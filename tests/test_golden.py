"""Byte-for-byte regression of `massgate run` outputs.

Each directory under data/golden holds a config.json and the switches.csv,
mass.csv, snapshots.csv and report.json that `massgate run` wrote for it.
Any change to the solver, the relay, the time grid or the output formatting
that alters a single printed byte fails here.  The cases: the reference
trapezoid run, an adaptive run, and a fixed Riemann run on J=7 whose field
goes negative during outflow and whose `bound` values have long reprs.
data/compare/reference.json is the compare.json that `massgate compare`
wrote for the reference case.

Every case records snapshots, which the run prints as it steps.  The
one-CPU and failed-fork variants hold that one process writes the same
bytes whatever CPUs it may use and whether or not it could fork.
"""

import errno
import os
from pathlib import Path

import pytest

from massgate.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
COMPARE = Path(__file__).parent / "data" / "compare"


CASES = sorted(p.name for p in GOLDEN.iterdir())


@pytest.fixture
def one_cpu(monkeypatch):
    """One usable CPU; a fork fails the test."""
    def no_fork():
        raise AssertionError("forked on one CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork)


@pytest.fixture
def failing_fork(monkeypatch):
    """Two usable CPUs, but os.fork fails as it does at the process limit."""
    def no_fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork)


@pytest.mark.parametrize("case", CASES)
def test_run_outputs_match_golden(case, tmp_path, capsys):
    config = GOLDEN / case / "config.json"
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for name in ("switches.csv", "mass.csv", "snapshots.csv", "report.json"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / case / name).read_bytes(), name


def test_compare_json_matches_golden(tmp_path, capsys):
    config = GOLDEN / "reference" / "config.json"
    assert main(["compare", "--config", str(config), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "compare.json").read_bytes() == (COMPARE / "reference.json").read_bytes()


@pytest.mark.parametrize("case", CASES)
def test_run_outputs_match_golden_on_one_cpu(case, tmp_path, capsys, one_cpu):
    test_run_outputs_match_golden(case, tmp_path, capsys)


def test_compare_json_matches_golden_on_one_cpu(tmp_path, capsys, one_cpu):
    test_compare_json_matches_golden(tmp_path, capsys)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open descriptors in /proc")
@pytest.mark.parametrize("case", CASES)
def test_run_outputs_match_golden_when_fork_fails(case, tmp_path, capsys, failing_fork):
    descriptors = len(os.listdir("/proc/self/fd"))
    test_run_outputs_match_golden(case, tmp_path, capsys)
    assert len(os.listdir("/proc/self/fd")) == descriptors  # every file the run opened is closed


def test_compare_json_matches_golden_when_fork_fails(tmp_path, capsys, failing_fork):
    test_compare_json_matches_golden(tmp_path, capsys)
