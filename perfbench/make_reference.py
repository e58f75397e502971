"""Write the stored reference outputs of every workload at the default seed.

    python3 perfbench/make_reference.py

Run it only when a change of the program's output is intended; run.py
compares each run's default-seed output with these files.
"""

import json
import sys
import tempfile
from pathlib import Path

import run
from workloads import DEFAULT_SEED, WORKLOADS, reference_path


def dump(stream: dict) -> str:
    """JSON with one line per row of a list of rows."""
    parts = []
    for key, value in stream.items():
        if isinstance(value, list) and value and isinstance(value[0], list):
            rows = ",\n  ".join(json.dumps(row) for row in value)
            parts.append(f"{json.dumps(key)}: [\n  {rows}\n]")
        else:
            parts.append(f"{json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main():
    adprec = run.import_adprec()
    reference_path("x").parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for name, workload in WORKLOADS.items():
            job = workload.prepare(DEFAULT_SEED, Path(tmp) / name)
            rcs = run.run_job(adprec.cli.main, job)
            if tuple(rcs) != workload.expected_rc:
                sys.exit(f"{name}: exit codes {rcs}, expected {workload.expected_rc}")
            stream = dict(workload=name, seed=DEFAULT_SEED, **workload.stream(job))
            reference_path(name).write_text(dump(stream))
            print(f"wrote {reference_path(name)}")


if __name__ == "__main__":
    main()
