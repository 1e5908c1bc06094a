import csv
import errno
import json
import logging
import math
import os
import re
import subprocess
import sys
import time
from array import array
from pathlib import Path

import numpy as np
import pytest

import massgate
from massgate.cli import (
    STREAM_SWITCHES,
    ConfigError,
    _log_level,
    _run_and_emit,
    config_from_mapping,
    config_to_mapping,
    emit_outputs,
    main,
    parse_config,
    serialize_config,
)
from massgate.analytic import switch_count, switch_time
from massgate.quadrature import QuadratureKind
from massgate.runner import (
    AdaptiveGrid,
    ErrorReport,
    EventError,
    FieldState,
    FixedGrid,
    Trajectory,
    compare_with_oracle,
    run,
)

REFERENCE = {"m": 0.1, "M": 0.2, "alpha": 0.05, "horizon": 10, "J": 50, "N": 200}
ADAPTIVE = {
    "m": 0.1,
    "M": 0.2,
    "alpha": 1,
    "horizon": 0.25,
    "J": 10,
    "mode": "adaptive",
    "N0": 10,
    "Nstage": 5,
}

# Past STREAM_SWITCHES closed-form switches: 499 and 449 of them.
DENSE_ADAPTIVE = {**ADAPTIVE, "horizon": 25.0}
DENSE_FIXED = {**REFERENCE, "J": 10, "N": 9000, "horizon": 450}
OUTPUTS = ("switches.csv", "mass.csv", "snapshots.csv", "report.json")


def use_cpus(monkeypatch, count):
    """Make os.sched_getaffinity report ``count`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def count_forks(monkeypatch):
    """Patch os.fork to record the pid of each helper forked; returns the list."""
    helpers = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            helpers.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return helpers


def fail_fork(monkeypatch):
    """Make os.fork fail as it does at the process limit."""
    def no_fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", no_fork)


def in_process_outputs(mapping, out):
    """The four files as emit_outputs writes them after the run, from
    compare_with_oracle's report."""
    run_config = config_from_mapping(mapping)
    traj = run(run_config)
    emit_outputs(traj, compare_with_oracle(traj, run_config), out)
    return {name: (out / name).read_bytes() for name in OUTPUTS}


def write_config(tmp_path, mapping, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(mapping), encoding="utf-8")
    return path


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def report_payload(report: ErrorReport) -> dict:
    """The report as the json.dump writer of report.json built it, kept as
    the reference for the byte template."""
    return {
        "events": [
            {
                "k": row.index,
                "T_k": row.computed_time,
                "t_k": row.oracle_time,
                "err": row.error,
                "bound": row.bound,
                "within_bound": row.within_bound,
            }
            for row in report.events
        ],
        "summary": {
            "max_abs_error": report.max_abs_error,
            "mean_spacing": report.mean_spacing,
        },
    }


def test_parse_reference_config():
    cfg = parse_config(json.dumps(REFERENCE))
    assert cfg.control.lower == 0.1
    assert cfg.control.upper == 0.2
    assert cfg.control.diffusivity == 0.05
    assert cfg.control.horizon == 10.0
    assert cfg.grid.cells == 50
    assert cfg.mode.steps == 200
    assert cfg.mode.stages(cfg.control)[0].dt == pytest.approx(0.05)
    assert cfg.quadrature is QuadratureKind.TRAPEZOID
    assert isinstance(cfg.mode, FixedGrid)
    assert cfg.snapshot_stride == 0


def test_parse_adaptive_config():
    cfg = parse_config(json.dumps(ADAPTIVE))
    assert isinstance(cfg.mode, AdaptiveGrid)
    assert cfg.mode.first_stage_steps == 10
    assert cfg.mode.stage_steps == 5
    # adaptive mode defaults to the quadrature it requires
    assert cfg.quadrature is QuadratureKind.RIEMANN_INTERIOR
    assert cfg.mode.stages(cfg.control)[0].dt == pytest.approx(0.01)


@pytest.mark.parametrize(
    "patch,key",
    [
        ({"m": 0.2, "M": 0.1}, "m"),
        ({"m": 0.0}, "m"),
        ({"alpha": -1}, "alpha"),
        ({"alpha": 0}, "alpha"),
        ({"horizon": 0}, "horizon"),
        ({"J": 1}, "J"),
        ({"N": 0}, "N"),
        ({"J": 50.5}, "J"),
        ({"snapshot_stride": -1}, "snapshot_stride"),
        ({"snapshot_stride": "two"}, "snapshot_stride"),
        ({"quadrature": "simpson"}, "quadrature"),
        ({"mode": "magic"}, "mode"),
        ({"N0": 3}, "N0"),
        ({"banana": 1}, "banana"),
    ],
)
def test_invalid_fixed_config_names_offending_key(patch, key):
    raw = {**REFERENCE, **patch}
    with pytest.raises(ConfigError) as excinfo:
        config_from_mapping(raw)
    assert excinfo.value.key == key


@pytest.mark.parametrize(
    "patch,key",
    [
        ({"quadrature": "trapezoid"}, "quadrature"),
        ({"N": 10}, "N"),
        ({"N0": 0}, "N0"),
        ({"Nstage": 0}, "Nstage"),
    ],
)
def test_invalid_adaptive_config_names_offending_key(patch, key):
    raw = {**ADAPTIVE, **patch}
    with pytest.raises(ConfigError) as excinfo:
        config_from_mapping(raw)
    assert excinfo.value.key == key


@pytest.mark.parametrize(
    "raw,key",
    [
        ({**REFERENCE, "alpha": float("nan")}, "alpha"),
        ({**ADAPTIVE, "horizon": float("inf")}, "horizon"),
    ],
)
def test_non_finite_values_are_rejected(raw, key):
    with pytest.raises(ConfigError) as excinfo:
        config_from_mapping(raw)
    assert excinfo.value.key == key


@pytest.mark.parametrize("key", ["m", "M", "alpha", "horizon"])
def test_integer_too_large_for_a_float_names_its_key(tmp_path, capsys, key):
    raw = {**REFERENCE, key: 10**400}
    with pytest.raises(ConfigError) as excinfo:
        config_from_mapping(raw)
    assert excinfo.value.key == key
    assert main(["run", "--config", str(write_config(tmp_path, raw)), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"massgate: config error: {key}:")
    assert len(err.strip().splitlines()) == 1
    assert "0000" not in err


@pytest.mark.parametrize("huge", [2**63, 10**400], ids=["2**63", "10**400"])
@pytest.mark.parametrize("key", ["J", "N", "N0", "Nstage"])
def test_integer_past_a_machine_index_names_its_key(tmp_path, capsys, key, huge):
    raw = {**(ADAPTIVE if key in ("N0", "Nstage") else REFERENCE), key: huge}
    with pytest.raises(ConfigError) as excinfo:
        config_from_mapping(raw)
    assert excinfo.value.key == key
    assert main(["run", "--config", str(write_config(tmp_path, raw)), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"massgate: config error: {key}:")
    assert len(err.strip().splitlines()) == 1
    assert str(huge) not in err


@pytest.mark.parametrize("key", ["J", "N"])
def test_largest_indexable_size_is_out_of_memory(tmp_path, capsys, key):
    # J + 1 field values or N per-step values: the size check fails at once
    raw = {**REFERENCE, key: sys.maxsize - 1}
    assert main(["run", "--config", str(write_config(tmp_path, raw)), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == "massgate: config error: out of memory: the field or the per-step columns do not fit\n"


@pytest.mark.parametrize(
    "raw",
    [
        pytest.param({**ADAPTIVE, "horizon": 1e300}, id="horizon-1e300"),
        pytest.param({**ADAPTIVE, "m": 1e-300, "M": 2e-300, "horizon": 1e10, "N0": 1}, id="infinite-count"),
    ],
)
def test_adaptive_step_count_past_a_machine_index_names_horizon(tmp_path, capsys, raw):
    cfg = config_from_mapping(raw)
    with pytest.raises(ConfigError) as excinfo:
        run(cfg)
    assert excinfo.value.key == "horizon"
    assert main(["run", "--config", str(write_config(tmp_path, raw)), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("massgate: config error: horizon:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("key", ["m", "M", "alpha", "horizon", "J", "N"])
def test_missing_required_key(key):
    raw = dict(REFERENCE)
    del raw[key]
    with pytest.raises(ConfigError) as excinfo:
        config_from_mapping(raw)
    assert excinfo.value.key == key


def test_parse_rejects_non_object_documents():
    with pytest.raises(ConfigError):
        parse_config("[1, 2, 3]")
    with pytest.raises(ConfigError):
        parse_config("{not json")


def test_config_round_trip():
    for raw in (REFERENCE, ADAPTIVE, {**REFERENCE, "quadrature": "riemann", "snapshot_stride": 4}):
        cfg = config_from_mapping(raw)
        again = parse_config(serialize_config(cfg))
        assert again == cfg
        assert config_to_mapping(again) == config_to_mapping(cfg)


def test_emit_outputs_reference_run(tmp_path):
    cfg = config_from_mapping(REFERENCE)
    traj = run(cfg)
    report = compare_with_oracle(traj, cfg)
    emit_outputs(traj, report, tmp_path)

    lines = (tmp_path / "switches.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "k,T_k,t_k,err,bound,within_bound"
    assert lines[1] == "1,1.9500000000,2.0000000000,-0.0500000000,0.05,false"
    assert len(lines) == 10

    mass_lines = (tmp_path / "mass.csv").read_text(encoding="utf-8").splitlines()
    assert mass_lines[0] == "time,mass,flux"
    assert len(mass_lines) == 201

    # parse-back within the printed precision
    rows = read_rows(tmp_path / "mass.csv")
    times = np.array([float(r["time"]) for r in rows])
    masses = np.array([float(r["mass"]) for r in rows])
    fluxes = np.array([int(r["flux"]) for r in rows])
    assert np.max(np.abs(times - traj.times)) <= 1e-9
    assert np.max(np.abs(masses - traj.masses)) <= 1e-9
    assert np.array_equal(fluxes, traj.fluxes)

    payload = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert payload["summary"]["max_abs_error"] == pytest.approx(0.45, abs=1e-10)
    assert payload["summary"]["mean_spacing"] == pytest.approx(0.95, abs=1e-12)
    assert [e["k"] for e in payload["events"]] == list(range(1, 10))
    assert payload["events"][0]["within_bound"] is False


def test_emit_outputs_without_events_writes_header_only(tmp_path):
    cfg = config_from_mapping({"m": 1.0, "M": 5.0, "alpha": 0.05, "horizon": 10, "J": 10, "N": 1})
    traj = run(cfg)
    report = compare_with_oracle(traj, cfg)
    emit_outputs(traj, report, tmp_path)
    assert (tmp_path / "switches.csv").read_text(encoding="utf-8") == "k,T_k,t_k,err,bound,within_bound\n"
    payload = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert payload["events"] == []
    assert payload["summary"]["max_abs_error"] is None


def test_emit_outputs_rejects_snapshots_on_different_grids(tmp_path):
    traj = Trajectory(
        times=array("d", [1.0, 2.0]),
        masses=array("d", [0.1, 0.2]),
        fluxes=array("b", [1, 1]),
        snapshots=(FieldState(array("d", [0.0, 1.0, 2.0]), 1.0),
                   FieldState(array("d", [0.0, 1.0, 2.0, 3.0, 4.0]), 2.0)),
        events=(),
    )
    with pytest.raises(ValueError, match="one spatial grid"):
        emit_outputs(traj, ErrorReport(events=(), max_abs_error=None, mean_spacing=None), tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_emit_outputs_rejects_single_node_snapshots(tmp_path):
    traj = Trajectory(
        times=array("d", [1.0]),
        masses=array("d", [0.1]),
        fluxes=array("b", [1]),
        snapshots=(FieldState(array("d", [0.5]), 1.0),),
        events=(),
    )
    with pytest.raises(ValueError, match="at least two nodes"):
        emit_outputs(traj, ErrorReport(events=(), max_abs_error=None, mean_spacing=None), tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_emitted_snapshots_show_rising_profiles_during_first_stage(tmp_path):
    cfg = config_from_mapping({**REFERENCE, "snapshot_stride": 1})
    traj = run(cfg)
    report = compare_with_oracle(traj, cfg)
    emit_outputs(traj, report, tmp_path)

    profiles: dict[float, list[float]] = {}
    for row in read_rows(tmp_path / "snapshots.csv"):
        profiles.setdefault(float(row["time"]), []).append(float(row["u"]))
    times = sorted(profiles)
    assert times == sorted(set(np.round(traj.times, 10)))
    first_switch = report.events[0].computed_time
    dt = cfg.mode.stages(cfg.control)[0].dt
    stage = [t for t in times if 3 * dt < t <= first_switch + 1e-12]
    maxima = [max(profiles[t]) for t in stage]
    assert all(b > a for a, b in zip(maxima, maxima[1:]))


def test_cli_run_subcommand(tmp_path, capsys):
    config_path = write_config(tmp_path, REFERENCE)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    for name in ("switches.csv", "mass.csv", "snapshots.csv", "report.json"):
        assert (out / name).exists()
    assert "9 switches" in capsys.readouterr().out


def test_cli_run_with_overrides(tmp_path):
    config_path = write_config(tmp_path, REFERENCE)
    out = tmp_path / "out"
    code = main(
        ["run", "--config", str(config_path), "--out", str(out), "--set", "N=400",
         "--set", "quadrature=riemann"]
    )
    assert code == 0
    payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert all(e["within_bound"] for e in payload["events"])
    assert abs(payload["events"][0]["T_k"] - 2.0) <= 1e-9


def test_cli_rejects_bad_config_with_diagnostic(tmp_path, capsys):
    config_path = write_config(tmp_path, {**REFERENCE, "m": 0.9})
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("massgate: config error:")
    assert len(err.strip().splitlines()) == 1


def test_cli_rejects_nan_override_with_diagnostic(tmp_path, capsys):
    config_path = write_config(tmp_path, REFERENCE)
    code = main(
        ["run", "--config", str(config_path), "--out", str(tmp_path / "out"), "--set", "alpha=NaN"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("massgate: config error: alpha:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("override", ["mode=[1]", "quadrature=[1]", "quadrature={}"])
def test_cli_rejects_non_string_names_with_diagnostic(tmp_path, capsys, override):
    config_path = write_config(tmp_path, REFERENCE)
    code = main(["run", "--config", str(config_path), "--out", str(tmp_path / "out"), "--set", override])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"massgate: config error: {override.partition('=')[0]}:")
    assert len(err.strip().splitlines()) == 1


def test_cli_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_unwritable_output_is_io_error(tmp_path, capsys):
    config_path = write_config(tmp_path, REFERENCE)
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory", encoding="utf-8")
    code = main(["run", "--config", str(config_path), "--out", str(blocker / "sub")])
    assert code == 1
    assert "io error" in capsys.readouterr().err


@pytest.mark.parametrize("stride, cpus", [(0, 2), (1, 1), (1, 2)])
def test_cli_full_disk_is_an_io_error(tmp_path, capsys, monkeypatch, stride, cpus):
    # with a stride and two CPUs, the helper process meets the full disk
    use_cpus(monkeypatch, cpus)
    out = tmp_path / "out"
    out.mkdir()
    (out / "snapshots.csv").symlink_to("/dev/full")
    config_path = write_config(tmp_path, {**REFERENCE, "snapshot_stride": stride})
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "massgate: io error: [Errno 28] No space left on device\n"


def test_cli_failed_snapshot_formatter_is_an_io_error_naming_the_file(tmp_path, capsys, monkeypatch):
    def broken_formatter():
        def format_snapshot(values, time):
            raise RuntimeError("formatter broke")
        return format_snapshot

    use_cpus(monkeypatch, 2)
    monkeypatch.setattr("massgate.cli._snapshot_formatter", broken_formatter)
    out = tmp_path / "out"
    config_path = write_config(tmp_path, {**REFERENCE, "snapshot_stride": 1})
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("massgate: io error: ")
    assert str(out / "snapshots.csv") in err
    assert len(err.strip().splitlines()) == 1


def test_cli_run_forks_one_helper_only_when_recording_snapshots(tmp_path, capsys, monkeypatch):
    use_cpus(monkeypatch, 2)
    helpers = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            helpers.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    cases = [({**REFERENCE, "snapshot_stride": 1}, 1), ({**REFERENCE, "snapshot_stride": 0}, 0),
             (ADAPTIVE, 0), ({**ADAPTIVE, "snapshot_stride": 2}, 1)]
    for config, forks in cases:
        helpers.clear()
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, config)), "--out", str(out)]) == 0
        assert len(helpers) == forks, config
        for pid in helpers:  # already reaped
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
    capsys.readouterr()


@pytest.mark.parametrize("cpus, fork_fails", [(1, False), (2, False), (2, True)])
def test_event_dense_run_matches_the_in_process_outputs(tmp_path, capsys, monkeypatch, cpus, fork_fails):
    mapping = {**DENSE_ADAPTIVE, "snapshot_stride": 7}
    assert switch_count(config_from_mapping(mapping).control, STREAM_SWITCHES) >= STREAM_SWITCHES
    expected = in_process_outputs(mapping, tmp_path / "expected")
    use_cpus(monkeypatch, cpus)
    if fork_fails:
        fail_fork(monkeypatch)
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, mapping)), "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"499 switches detected; outputs in {out}\n"
    for name, data in expected.items():
        assert (out / name).read_bytes() == data, name


def test_event_dense_compare_matches_on_one_and_two_cpus(tmp_path, capsys, monkeypatch):
    expected = {kind: in_process_outputs({**DENSE_FIXED, "quadrature": kind}, tmp_path / kind)
                for kind in ("riemann", "trapezoid")}
    config_path = write_config(tmp_path, DENSE_FIXED)
    compared = []
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main(["compare", "--config", str(config_path), "--out", str(out)]) == 0
        for kind, files in expected.items():
            for name, data in files.items():
                assert (out / kind / name).read_bytes() == data, (cpus, kind, name)
        compared.append((out / "compare.json").read_bytes())
    capsys.readouterr()
    assert compared[0] == compared[1]
    reports = {kind: json.loads(files["report.json"]) for kind, files in expected.items()}
    assert json.loads(compared[0]) == reports


def test_cli_forks_a_switch_helper_only_for_event_dense_runs(tmp_path, capsys, monkeypatch):
    use_cpus(monkeypatch, 2)
    helpers = count_forks(monkeypatch)
    cases = [(DENSE_ADAPTIVE, 1), (DENSE_FIXED, 1), ({**DENSE_ADAPTIVE, "snapshot_stride": 3}, 2),
             (REFERENCE, 0), (ADAPTIVE, 0)]
    for config, forks in cases:
        helpers.clear()
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, config)), "--out", str(out)]) == 0
        assert len(helpers) == forks, config
        for pid in helpers:  # already reaped
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
    capsys.readouterr()


@pytest.mark.parametrize("cpus, fork_fails", [(1, False), (2, False), (2, True)])
def test_cli_failed_event_dense_run_leaves_no_outputs(tmp_path, capsys, monkeypatch, cpus, fork_fails):
    # the run fails at step 1501, after about 300 switches
    use_cpus(monkeypatch, cpus)
    if fork_fails:
        fail_fork(monkeypatch)
    steps = []
    step = massgate.runner.step

    def failing_step(*args):
        steps.append(None)
        if len(steps) > 1500:
            raise ZeroDivisionError("step failed")
        return step(*args)

    monkeypatch.setattr(massgate.runner, "step", failing_step)
    out = tmp_path / "out"
    config_path = write_config(tmp_path, {**DENSE_ADAPTIVE, "snapshot_stride": 1})
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "massgate: config error: ZeroDivisionError: step failed\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("cpus, fork_fails", [(1, False), (2, False), (2, True)])
def test_cli_full_disk_under_event_dense_switches_is_an_io_error(tmp_path, capsys, monkeypatch, cpus,
                                                                 fork_fails):
    use_cpus(monkeypatch, cpus)
    if fork_fails:
        fail_fork(monkeypatch)
    out = tmp_path / "out"
    out.mkdir()
    (out / "switches.csv").symlink_to("/dev/full")
    config_path = write_config(tmp_path, DENSE_ADAPTIVE)
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "massgate: io error: [Errno 28] No space left on device\n"


def test_streamed_run_logs_each_helper_cpu_time(tmp_path, caplog, monkeypatch):
    use_cpus(monkeypatch, 2)
    caplog.set_level(logging.INFO, logger="massgate.cli")
    _run_and_emit(config_from_mapping({**DENSE_ADAPTIVE, "snapshot_stride": 5}), tmp_path)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("helper ")]
    cpu = r"in \d+\.\d{3} s of CPU"
    assert len(lines) == 2
    assert re.fullmatch(rf"helper \d+ wrote \S+/switches\.csv, \S+/report\.json {cpu}", lines[0])
    assert re.fullmatch(rf"helper \d+ wrote \S+/snapshots\.csv {cpu}", lines[1])


def test_cli_oracle_subcommand(tmp_path, capsys):
    config_path = write_config(tmp_path, REFERENCE)
    assert main(["oracle", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "switch spacing: 1.0000000000"
    assert out[1] == "k,t_k"
    assert out[2] == "1,2.0000000000"
    assert out[-1] == "9,10.0000000000"


def test_cli_oracle_rows_are_the_switches_up_to_the_horizon(tmp_path, capsys):
    rng = np.random.default_rng(5)
    for _ in range(200):
        lower = float(rng.uniform(0.01, 1.0))
        raw = {**REFERENCE, "m": lower, "M": lower * float(rng.uniform(1.01, 3.0)),
               "alpha": float(rng.uniform(0.01, 2.0))}
        control = config_from_mapping(raw).control
        # horizon on, just below, or between closed-form switch times
        k = int(rng.integers(1, 50))
        raw["horizon"] = switch_time(k, control) * float(rng.choice([1.0, 1.0 - 1e-15, 1.3]))
        control = config_from_mapping(raw).control
        expected = []
        while switch_time(len(expected) + 1, control) <= control.horizon:
            expected.append(len(expected) + 1)
        assert main(["oracle", "--config", str(write_config(tmp_path, raw))]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [int(row.split(",")[0]) for row in rows] == expected


def test_cli_oracle_rejects_horizon_with_too_many_switches(tmp_path, capsys):
    config_path = write_config(tmp_path, REFERENCE)
    start = time.monotonic()
    assert main(["oracle", "--config", str(config_path), "--set", "horizon=1e300"]) == 1
    assert time.monotonic() - start < 5.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("massgate: config error: horizon:")
    assert len(captured.err.strip().splitlines()) == 1


def test_cli_out_of_memory_is_a_one_line_diagnostic(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("cannot allocate the per-step arrays")

    monkeypatch.setattr("massgate.cli.run", exhausted)
    config_path = write_config(tmp_path, REFERENCE)
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("massgate: config error:")
    assert len(err.strip().splitlines()) == 1


ARITHMETIC_FAILURES = [
        pytest.param({"m": 0.1, "M": 0.2, "alpha": 1e200, "horizon": 10, "J": 50, "N": 2},
                     id="singular-pivot-fixed"),
        pytest.param({"m": 0.1, "M": 0.2, "alpha": 1e300, "horizon": 1e300, "J": 50, "N": 10**6},
                     id="overflowed-diffusion-number"),
        pytest.param({"m": 0.05, "M": 0.2, "alpha": 10, "horizon": 1.7e308, "J": 20,
                      "mode": "adaptive", "N0": 2, "Nstage": 50}, id="overflow"),
        pytest.param({"m": 5e-324, "M": 1, "alpha": 1.7e308, "horizon": 1e-12, "J": 3,
                      "mode": "adaptive", "N0": 2, "Nstage": 1}, id="infinite-mass-rate"),
        pytest.param({"m": 5e-324, "M": 1e-320, "alpha": 1e10, "horizon": 1e-12, "J": 3,
                      "mode": "adaptive", "N0": 2, "Nstage": 1}, id="zero-division"),
]


@pytest.mark.parametrize("config", ARITHMETIC_FAILURES)
def test_cli_arithmetic_failure_is_a_one_line_diagnostic(tmp_path, capsys, config):
    config_path = write_config(tmp_path, config)
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("massgate: config error:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("config", ARITHMETIC_FAILURES)
def test_cli_failed_run_leaves_no_snapshots(tmp_path, capsys, monkeypatch, config, cpus):
    use_cpus(monkeypatch, cpus)
    out = tmp_path / "out"
    config_path = write_config(tmp_path, {**config, "snapshot_stride": 1})
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("massgate: config error:")
    assert len(err.strip().splitlines()) == 1
    assert not (out / "snapshots.csv").exists()


def test_cli_two_cell_run_at_a_huge_diffusion_number_exits_0(tmp_path, capsys):
    # nu ~ 1e299: the one-unknown step matrix is exactly 1, not singular
    config = {"m": 0.1, "M": 1e300, "alpha": 0.2, "horizon": 1e300, "J": 2,
              "mode": "adaptive", "N0": 20, "Nstage": 1}
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, config)), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert len((out / "mass.csv").read_text(encoding="utf-8").splitlines()) == 1 + 8


@pytest.mark.parametrize(
    "config",
    [
        # nu overflows, so the climb's matrix would be NaN
        {"m": 0.1, "M": 1e308, "alpha": 1, "horizon": 1, "J": 50, "mode": "adaptive", "N0": 1, "Nstage": 1},
        # the climb's first step ends past the horizon
        {"m": 0.1, "M": 1e300, "alpha": 0.2, "horizon": 1e6, "J": 2, "mode": "adaptive", "N0": 20, "Nstage": 1},
    ],
)
def test_cli_run_with_no_steps_before_the_horizon_writes_empty_outputs(tmp_path, capsys, config):
    # The climb takes no step before the horizon, so no matrix is built.
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, config)), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert (out / "switches.csv").read_text(encoding="utf-8") == "k,T_k,t_k,err,bound,within_bound\n"
    assert (out / "mass.csv").read_text(encoding="utf-8") == "time,mass,flux\n"
    assert (out / "snapshots.csv").read_text(encoding="utf-8") == "time,x,u\n"
    assert json.loads((out / "report.json").read_text(encoding="utf-8"))["events"] == []


def test_report_json_is_json_dumps_with_indent(tmp_path):
    reference = config_from_mapping(REFERENCE)
    quiet = config_from_mapping({"m": 1.0, "M": 5.0, "alpha": 0.05, "horizon": 10, "J": 10, "N": 1})
    quiet_traj = run(quiet)
    special = ErrorReport(
        events=(
            EventError(1, math.nan, math.inf, -math.inf, 0.0, True),
            EventError(2, -0.0, 1e-300, 1.7976931348623157e308, 5e-324, False),
        ),
        max_abs_error=math.inf,
        mean_spacing=None,
    )
    cases = [
        (run(reference), None, reference),
        (quiet_traj, None, quiet),
        (quiet_traj, special, None),
    ]
    for traj, report, cfg in cases:
        report = report or compare_with_oracle(traj, cfg)
        emit_outputs(traj, report, tmp_path)
        expected = json.dumps(report_payload(report), indent=2) + "\n"
        assert (tmp_path / "report.json").read_text(encoding="utf-8") == expected


def test_cli_commands_run_without_numpy(tmp_path):
    # A fresh interpreter runs every subcommand and never imports numpy.
    configs = {
        "fixed.json": {**REFERENCE, "quadrature": "trapezoid", "snapshot_stride": 3},
        "adaptive.json": ADAPTIVE,
    }
    for name, mapping in configs.items():
        write_config(tmp_path, mapping, name)
    script = """
import sys
from massgate.cli import main
for argv in (
    ["run", "--config", "fixed.json", "--out", "run-fixed"],
    ["run", "--config", "adaptive.json", "--out", "run-adaptive"],
    ["compare", "--config", "fixed.json", "--out", "compare"],
    ["sweep", "--config", "fixed.json", "--out", "sweep", "--n-list", "50,200"],
    ["oracle", "--config", "fixed.json"],
):
    assert main(argv) == 0, argv
assert "numpy" not in sys.modules, "numpy was imported"
"""
    src = str(Path(massgate.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "run-fixed" / "snapshots.csv").stat().st_size > len("time,x,u\n")


def test_cli_import_skips_dataclasses_inspect_and_typing():
    # Without site, so that no .pth file imports typing first.
    script = """
import sys
import massgate.cli
skipped = ("dataclasses", "inspect", "typing", "multiprocessing", "concurrent.futures", "subprocess", "tempfile")
loaded = [name for name in skipped if name in sys.modules]
assert not loaded, loaded
"""
    src = str(Path(massgate.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("where", ["file", "override"])
def test_cli_deeply_nested_config_is_a_one_line_diagnostic(tmp_path, capsys, where):
    nested = "[" * 100000
    if where == "file":
        config_path = tmp_path / "config.json"
        config_path.write_text(nested, encoding="utf-8")
        argv, key = [], "config"
    else:
        config_path = write_config(tmp_path, REFERENCE)
        argv, key = ["--set", "m=" + nested[:50000]], "m"
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out"), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"massgate: config error: {key}:")
    assert len(err.strip().splitlines()) == 1
    assert "[[" not in err


def test_cli_undecodable_config_names_the_config(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_bytes(b"\xff\xfe" + json.dumps(REFERENCE).encode())
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("massgate: config error: config: cannot read")
    assert len(err.strip().splitlines()) == 1


def test_cli_run_reports_switch_past_the_horizon_as_out_of_bound(tmp_path):
    # The trapezoid mass detects switches early; here it detects a 9th
    # switch whose closed-form time lies past the horizon.
    config = {"m": 0.1, "M": 0.2, "alpha": 0.0495, "horizon": 10, "J": 50, "N": 2000}
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, config)), "--out", str(out)]) == 0
    for name in ("switches.csv", "mass.csv", "snapshots.csv", "report.json"):
        assert (out / name).exists()
    last = read_rows(out / "switches.csv")[-1]
    assert float(last["t_k"]) > config["horizon"]
    assert last["within_bound"] == "false"


def test_cli_compare_subcommand(tmp_path):
    config_path = write_config(tmp_path, REFERENCE)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(config_path), "--out", str(out)]) == 0
    for kind in ("riemann", "trapezoid"):
        assert (out / kind / "switches.csv").exists()
    payload = json.loads((out / "compare.json").read_text(encoding="utf-8"))
    assert payload["trapezoid"]["events"][0]["within_bound"] is False
    assert all(e["within_bound"] for e in payload["riemann"]["events"])


def test_cli_compare_requires_fixed_mode(tmp_path, capsys):
    config_path = write_config(tmp_path, ADAPTIVE)
    assert main(["compare", "--config", str(config_path), "--out", str(tmp_path / "x")]) == 1
    assert "mode" in capsys.readouterr().err


def test_cli_sweep_subcommand(tmp_path):
    config_path = write_config(tmp_path, {**REFERENCE, "quadrature": "riemann"})
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(config_path), "--n-list", "100,200", "--out", str(out)])
    assert code == 0
    rows = read_rows(out / "sweep.csv")
    assert [int(r["N"]) for r in rows] == [100, 200]
    assert all(r["all_within_bound"] == "true" for r in rows)
    payload = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
    assert [r["N"] for r in payload] == [100, 200]


def test_cli_sweep_rejects_bad_n_list(tmp_path, capsys):
    config_path = write_config(tmp_path, REFERENCE)
    code = main(["sweep", "--config", str(config_path), "--n-list", "a,b", "--out", str(tmp_path / "s")])
    assert code == 1
    assert "n-list" in capsys.readouterr().err


def test_log_level_mapping():
    assert _log_level("error") == logging.ERROR
    assert _log_level("info") == logging.INFO
    assert _log_level("DEBUG") == logging.DEBUG
    assert _log_level("bogus") == logging.ERROR


def test_adaptive_cli_run_reproduces_closed_form(tmp_path):
    config_path = write_config(tmp_path, ADAPTIVE)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
    first_three = [e["T_k"] for e in payload["events"][:3]]
    assert np.allclose(first_three, [0.1, 0.15, 0.2], atol=1e-9)
    assert all(abs(e["err"]) <= 1e-9 for e in payload["events"])
