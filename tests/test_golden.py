"""Byte-for-byte regression of `massgate run` outputs.

Each directory under data/golden holds a config.json and the switches.csv,
mass.csv, snapshots.csv and report.json that `massgate run` wrote for it.
Any change to the solver, the relay, the time grid or the output formatting
that alters a single printed byte fails here.  The cases: the reference
trapezoid run, an adaptive run, and a fixed Riemann run on J=7 whose field
goes negative during outflow and whose `bound` values have long reprs.
data/compare/reference.json is the compare.json that `massgate compare`
wrote for the reference case.

Every case records snapshots, which the run prints as it steps, and
every file the run opens is closed by the time `main` returns.
"""

import os
from pathlib import Path

import pytest

from massgate.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
COMPARE = Path(__file__).parent / "data" / "compare"


CASES = sorted(p.name for p in GOLDEN.iterdir())


@pytest.mark.parametrize("case", CASES)
def test_run_outputs_match_golden(case, tmp_path, capsys):
    fds = "/proc/self/fd"
    descriptors = len(os.listdir(fds)) if os.path.isdir(fds) else None
    config = GOLDEN / case / "config.json"
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for name in ("switches.csv", "mass.csv", "snapshots.csv", "report.json"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / case / name).read_bytes(), name
    if descriptors is not None:
        assert len(os.listdir(fds)) == descriptors  # every file the run opened is closed


def test_compare_json_matches_golden(tmp_path, capsys):
    config = GOLDEN / "reference" / "config.json"
    assert main(["compare", "--config", str(config), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "compare.json").read_bytes() == (COMPARE / "reference.json").read_bytes()
