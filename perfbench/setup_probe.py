"""Set-up half of one workload job, in a fresh interpreter.

    python3 perfbench/setup_probe.py <adprec cli arguments>

Imports adprec, parses the job's command line and, for ``run``, its config
(which builds the problem), then prints ``time.monotonic()``: the moment the
first iteration or audit trial would start.  run.py starts this process and
takes the difference to its own clock reading at the start as the set-up time.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import adprec.cli as cli  # noqa: E402

args = cli.build_parser().parse_args(sys.argv[1:])
if args.command == "run":
    cli.load_experiment(args.config)
print(time.monotonic())
