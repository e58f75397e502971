"""Golden record streams: `adprec run` must reproduce stored outputs byte for byte.

Each directory under tests/golden/ holds a `config.json` (K <= 50, R <= 2)
and the `records*.csv` and `summary.json` that `adprec run` wrote for it,
with the machine-dependent `wall_time_s` dropped from the summary.  The
cases cover each geometry alone, Muon + AdaNorm under multiplicative noise
(the dual norm of the previous preconditioned step), and both momentum
modes on a quadratic (the `theta_k` / `bound_curve` columns).

`audit_bounds.json` holds the reports of the `bounds`, `momentum` and
`rates` suites at seed 5 and K = 300 (R = 4 for `rates`), which the bound
audits must reproduce exactly.  `audit_algebraic.json` holds the reports
of the `trace` and `identities` suites at 300 trials and seed 5, which
the algebraic audits must reproduce exactly.  `audit_potentials.json` holds
the 12 `path-potentials[*]` reports of the `potentials` suite at seed 5 and
K = 300, which the pathwise potential audits must reproduce exactly.

Regenerate only for an intended output change, and only the cases it
changes (all cases and every audit file when none is named):

    PYTHONPATH=src python tests/test_golden.py \
        [case ... | audit_bounds | audit_algebraic | audit_potentials]
"""

import json
import sys
from pathlib import Path

import pytest

from adprec.cli import main
from adprec.suites import (
    suite_bounds,
    suite_identities,
    suite_momentum,
    suite_potentials,
    suite_rates,
    suite_trace,
)

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.name for p in GOLDEN.iterdir() if (p / "config.json").is_file())
AUDIT_BOUNDS = GOLDEN / "audit_bounds.json"
AUDIT_ALGEBRAIC = GOLDEN / "audit_algebraic.json"
AUDIT_POTENTIALS = GOLDEN / "audit_potentials.json"


def run_case(case, out) -> dict:
    """Run one golden config into out; return its summary without wall time."""
    assert main(["run", "--config", str(GOLDEN / case / "config.json"), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    summary.pop("wall_time_s")
    return summary


def first_difference(name, got: str, want: str) -> str | None:
    """Where two CSV texts first differ, as 'file: row r column c: got x, golden y'."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    header = want_lines[0].split(",")
    if got_lines[0] != want_lines[0]:
        return f"{name}: header {got_lines[0]!r}, golden {want_lines[0]!r}"
    for row, (g, w) in enumerate(zip(got_lines[1:], want_lines[1:])):
        for col, a, b in zip(header, g.split(","), w.split(",")):
            if a != b:
                return f"{name}: row {row} column {col}: got {a}, golden {b}"
    if len(got_lines) != len(want_lines):
        return f"{name}: {len(got_lines) - 1} rows, golden {len(want_lines) - 1}"
    return None


@pytest.mark.parametrize("case", CASES)
def test_run_matches_golden(case, tmp_path):
    summary = run_case(case, tmp_path)
    golden = GOLDEN / case
    want_files = sorted(p.name for p in golden.glob("records*.csv"))
    assert sorted(p.name for p in tmp_path.glob("records*.csv")) == want_files
    for name in want_files:
        got, want = (tmp_path / name).read_text(), (golden / name).read_text()
        if got != want:
            pytest.fail(first_difference(f"{case}/{name}", got, want) or f"{case}/{name} differs")
    assert summary == json.loads((golden / "summary.json").read_text())


def reports_text(suites) -> str:
    """Named suites' reports as the JSON text of an audit golden file."""
    reports = {name: [r.to_dict() for r in reps] for name, reps in suites.items()}
    return json.dumps(reports, indent=2, sort_keys=True) + "\n"


def audit_bounds_text() -> str:
    """The bound-audit suites' reports as the JSON text of audit_bounds.json."""
    return reports_text({
        "bounds": suite_bounds(seed=5, K=300),
        "momentum": suite_momentum(seed=5, K=300),
        "rates": suite_rates(seed=5, K=300, R=4),
    })


def audit_algebraic_text() -> str:
    """The algebraic suites' reports as the JSON text of audit_algebraic.json."""
    return reports_text({
        "trace": suite_trace(300, seed=5),
        "identities": suite_identities(300, seed=5),
    })


def audit_potentials_text() -> str:
    """The potentials suite's reports as the JSON text of audit_potentials.json."""
    return reports_text({"potentials": suite_potentials(seed=5, K=300)})


def test_bound_audits_match_golden():
    assert audit_bounds_text() == AUDIT_BOUNDS.read_text()


def test_algebraic_audits_match_golden():
    assert audit_algebraic_text() == AUDIT_ALGEBRAIC.read_text()


def test_potential_audits_match_golden():
    assert audit_potentials_text() == AUDIT_POTENTIALS.read_text()


if __name__ == "__main__":
    audit_files = {"audit_bounds": (AUDIT_BOUNDS, audit_bounds_text),
                   "audit_algebraic": (AUDIT_ALGEBRAIC, audit_algebraic_text),
                   "audit_potentials": (AUDIT_POTENTIALS, audit_potentials_text)}
    for case in sys.argv[1:] or [*CASES, *audit_files]:
        if case in audit_files:
            path, text = audit_files[case]
            path.write_text(text())
            continue
        summary = run_case(case, GOLDEN / case)
        with open(GOLDEN / case / "summary.json", "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
