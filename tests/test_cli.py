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
import tracemalloc
from array import array
from pathlib import Path

import numpy as np
import pytest

import massgate
from massgate.cli import (
    ConfigError,
    _json_object,
    _log_level,
    _run_and_emit,
    config_from_mapping,
    config_to_mapping,
    emit_outputs,
    main,
)
from massgate.analytic import switch_time
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
from massgate.stepper import step

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

# Event-dense: 499 and 449 closed-form switches up to the horizon.
DENSE_ADAPTIVE = {**ADAPTIVE, "horizon": 25.0}
DENSE_FIXED = {**REFERENCE, "J": 10, "N": 9000, "horizon": 450}
OUTPUTS = ("switches.csv", "mass.csv", "snapshots.csv", "report.json")


# One process writes every file, so neither the usable CPUs nor a fork
# that fails may change what a run writes or how it fails; the tests
# parametrized over ``cpus`` and ``fork_fails`` hold that.
def use_cpus(monkeypatch, count):
    """Make os.sched_getaffinity report ``count`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def fail_fork(monkeypatch):
    """Make os.fork fail as it does at the process limit."""
    def no_fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", no_fork)


def count_steps(monkeypatch):
    """Patch the runner's step to record each call; returns the list."""
    steps = []
    step = massgate.runner.step

    def counted_step(*args):
        steps.append(None)
        return step(*args)

    monkeypatch.setattr(massgate.runner, "step", counted_step)
    return steps


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
    cfg = config_from_mapping(_json_object(json.dumps(REFERENCE)))
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
    cfg = config_from_mapping(_json_object(json.dumps(ADAPTIVE)))
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
    assert_schedule_refused_before_any_output(tmp_path, capsys, raw, "horizon")


@pytest.mark.parametrize(
    "raw",
    [
        pytest.param({**REFERENCE, "alpha": 1e300, "horizon": 1e300, "N": 10**6}, id="fixed"),
        pytest.param({**ADAPTIVE, "M": 1e308, "horizon": 1.7e308, "N0": 1}, id="adaptive-climb"),
    ],
)
def test_non_finite_diffusion_number_names_alpha(tmp_path, capsys, raw):
    assert_schedule_refused_before_any_output(tmp_path, capsys, raw, "alpha")


def assert_schedule_refused_before_any_output(tmp_path, capsys, raw, key):
    """Building the config refuses its time grid with a ConfigError on
    ``key``, and ``massgate run`` prints the one-line diagnostic before
    any output is opened."""
    with pytest.raises(ConfigError) as excinfo:
        run(config_from_mapping(raw))
    assert excinfo.value.key == key
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, raw)), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"massgate: config error: {key}:")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("key", ["m", "M", "alpha", "horizon", "J", "N"])
def test_missing_required_key(key):
    raw = dict(REFERENCE)
    del raw[key]
    with pytest.raises(ConfigError) as excinfo:
        config_from_mapping(raw)
    assert excinfo.value.key == key


def test_parse_rejects_non_object_documents():
    with pytest.raises(ConfigError):
        config_from_mapping(_json_object("[1, 2, 3]"))
    with pytest.raises(ConfigError):
        config_from_mapping(_json_object("{not json"))


def test_config_round_trip():
    for raw in (REFERENCE, ADAPTIVE, {**REFERENCE, "quadrature": "riemann", "snapshot_stride": 4}):
        cfg = config_from_mapping(raw)
        again = config_from_mapping(_json_object(json.dumps(config_to_mapping(cfg), indent=2)))
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


@pytest.mark.parametrize("override", ["=5", "N"])
def test_cli_rejects_an_override_without_key_or_value_naming_it(tmp_path, capsys, override):
    config_path = write_config(tmp_path, REFERENCE)
    code = main(["run", "--config", str(config_path), "--out", str(tmp_path / "out"), "--set", override])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"massgate: config error: {override}: override must look like key=value\n"
    assert not (tmp_path / "out").exists()


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
    # the full disk fails the header's flush, before the first step
    use_cpus(monkeypatch, cpus)
    out = tmp_path / "out"
    out.mkdir()
    (out / "snapshots.csv").symlink_to("/dev/full")
    config_path = write_config(tmp_path, {**REFERENCE, "snapshot_stride": stride})
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "massgate: io error: [Errno 28] No space left on device\n"


def out_of_space(marker):
    """A printer that touches ``marker``, to show that it ran, then fails
    as on a full disk."""
    def fail(*args):
        marker.touch()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    return fail


@pytest.mark.parametrize("sink, mapping", [("_open_snapshot_sink", {**REFERENCE, "snapshot_stride": 1}),
                                           ("_switch_writer", DENSE_ADAPTIVE)], ids=["snapshots", "switches"])
@pytest.mark.parametrize("cpus, fork_fails", [(1, False), (2, False), (2, True)])
def test_cli_sink_out_of_space_is_its_errno_from_either_process(tmp_path, capsys, monkeypatch, cpus, fork_fails,
                                                                sink, mapping):
    # the snapshot printer fails during the run, the switch writer after
    # it: either way the errno is reported once and no file is left
    use_cpus(monkeypatch, cpus)
    if fork_fails:
        fail_fork(monkeypatch)
    marker = tmp_path / "printed"
    fail = out_of_space(marker)
    # the snapshot sink is opened before the run and fails at its first snapshot
    monkeypatch.setattr(f"massgate.cli.{sink}", (lambda *args: fail) if sink == "_open_snapshot_sink" else fail)
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, mapping)), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "massgate: io error: [Errno 28] No space left on device\n"
    assert marker.exists()
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("cells", [2, 3, 50, 51])
def test_cli_run_streams_each_snapshot_as_the_mirror_half(tmp_path, monkeypatch, cells, cpus):
    use_cpus(monkeypatch, cpus)
    widths = []
    open_sink = massgate.cli._open_snapshot_sink

    def recording_sink(cells, file):
        add = open_sink(cells, file)

        def recording_add(values, time):
            widths.append(len(values))
            add(values, time)

        return recording_add

    monkeypatch.setattr("massgate.cli._open_snapshot_sink", recording_sink)
    mapping = {**REFERENCE, "J": cells, "N": 50, "snapshot_stride": 1}
    _run_and_emit(config_from_mapping(mapping), tmp_path / "out")
    assert widths == [cells // 2 + 1] * 50
    expected = in_process_outputs(mapping, tmp_path / "expected")
    assert {name: (tmp_path / "out" / name).read_bytes() for name in OUTPUTS} == expected


@pytest.mark.parametrize("cpus, fork_fails", [(1, False), (2, False), (2, True)])
def test_event_dense_run_matches_the_in_process_outputs(tmp_path, capsys, monkeypatch, cpus, fork_fails):
    mapping = {**DENSE_ADAPTIVE, "snapshot_stride": 7}
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


# A switch every 2 steps, 48 steps up to the horizon.
SHORT_DENSE_ADAPTIVE = {"m": 0.1, "M": 0.2, "alpha": 0.05, "horizon": 25, "J": 50, "mode": "adaptive", "N0": 2,
                        "Nstage": 2}


@pytest.mark.parametrize("blocked, stride", [("switches.csv", 0), ("snapshots.csv", 1), ("mass.csv", 0)])
@pytest.mark.parametrize("cpus, fork_fails", [(1, False), (2, False), (2, True)])
def test_cli_full_disk_under_a_header_fails_before_the_first_step(tmp_path, capsys, monkeypatch, cpus, fork_fails,
                                                                  blocked, stride):
    # every header is written and flushed before the first step
    use_cpus(monkeypatch, cpus)
    if fork_fails:
        fail_fork(monkeypatch)
    steps = count_steps(monkeypatch)
    out = tmp_path / "out"
    out.mkdir()
    (out / blocked).symlink_to("/dev/full")
    config_path = write_config(tmp_path, {**SHORT_DENSE_ADAPTIVE, "snapshot_stride": stride})
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "massgate: io error: [Errno 28] No space left on device\n"
    assert steps == []
    assert list(out.iterdir()) == []


def test_cli_module_logs_under_massgate_names(tmp_path):
    # run as a module, the CLI is __main__, which must not name its records
    config_path = write_config(tmp_path, {**REFERENCE, "snapshot_stride": 1})
    src = str(Path(massgate.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "MASSGATE_LOG": "info"}
    result = subprocess.run([sys.executable, "-m", "massgate.cli", "run", "--config", str(config_path),
                             "--out", str(tmp_path / "out")], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    names = [line.split()[1] for line in result.stderr.splitlines() if line.startswith("INFO ")]
    assert names and all(name.startswith("massgate.") for name in names), result.stderr


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="restricts this process's CPU affinity")
@pytest.mark.parametrize("fork_fails", [False, True], ids=["one-cpu", "failed-fork"])
@pytest.mark.parametrize(
    "mapping",
    [
        pytest.param({**REFERENCE, "snapshot_stride": 5}, id="reference"),
        pytest.param({**ADAPTIVE, "snapshot_stride": 3}, id="adaptive"),
        pytest.param(DENSE_ADAPTIVE, id="dense-adaptive"),
    ],
)
def test_run_and_emit_writes_the_post_run_bytes(tmp_path, monkeypatch, mapping, fork_fails):
    expected = in_process_outputs(mapping, tmp_path / "expected")
    run_config, out = config_from_mapping(mapping), tmp_path / "out"
    if fork_fails:
        use_cpus(monkeypatch, 2)
        fail_fork(monkeypatch)
        _run_and_emit(run_config, out)
    else:  # only this process is restricted, to one of its CPUs
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            _run_and_emit(run_config, out)
        finally:
            os.sched_setaffinity(0, cpus)
    for name, data in expected.items():
        assert (out / name).read_bytes() == data, name


GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.mark.parametrize(
    "mapping",
    [
        *(pytest.param(json.loads((GOLDEN / case / "config.json").read_text()), id=case)
          for case in sorted(path.name for path in GOLDEN.iterdir())),
        pytest.param({**DENSE_ADAPTIVE, "snapshot_stride": 5}, id="dense-adaptive"),
    ],
)
def test_cli_run_and_compare_fork_nothing(tmp_path, capsys, monkeypatch, mapping):
    forks = []

    def no_fork():
        forks.append(None)
        pytest.fail("forked a process")

    monkeypatch.setattr(os, "fork", no_fork)
    config_path, out = write_config(tmp_path, mapping), tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    expected = in_process_outputs(mapping, tmp_path / "expected")
    assert {name: (out / name).read_bytes() for name in OUTPUTS} == expected
    if mapping.get("mode", "fixed") == "fixed":  # compare runs fixed configs only
        assert main(["compare", "--config", str(config_path), "--out", str(tmp_path / "compare")]) == 0
        for kind in ("riemann", "trapezoid"):
            expected = in_process_outputs({**mapping, "quadrature": kind}, tmp_path / f"expected-{kind}")
            assert {name: (tmp_path / "compare" / kind / name).read_bytes() for name in OUTPUTS} == expected, kind
    capsys.readouterr()
    assert forks == []


def test_sweep_holds_no_snapshots(tmp_path, capsys):
    # a sweep writes no snapshots, so a stride must not keep copies of the
    # field: 1000 of them at J=200 would hold about 1.7 MB
    peaks = []
    for stride in (0, 1):
        config_path = write_config(tmp_path, {**REFERENCE, "J": 200, "snapshot_stride": stride})
        tracemalloc.start()
        try:
            argv = ["sweep", "--config", str(config_path), "--n-list", "1000", "--out", str(tmp_path / "sweep")]
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    assert peaks[1] - peaks[0] < 200_000, peaks


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


def test_cli_oracle_refuses_an_adaptive_grid_that_run_refuses(tmp_path, capsys):
    # 2 climb steps to t=2, then steps of 5e-19: more up to the horizon
    # than a machine index can count, though the closed form has 9 rows
    raw = {**ADAPTIVE, "alpha": 0.05, "horizon": 10, "J": 50, "N0": 2, "Nstage": 2 * 10**18}
    for command in (["run", "--out", str(tmp_path / "out")], ["oracle"]):
        assert main([*command, "--config", str(write_config(tmp_path, raw))]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("massgate: config error: horizon:")
        assert len(captured.err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_cli_run_refuses_a_fixed_step_that_rounds_to_0_before_stepping(tmp_path, capsys, monkeypatch):
    steps = []

    def counted_step(*args):
        steps.append(None)
        return step(*args)

    monkeypatch.setattr("massgate.runner.step", counted_step)
    config = {**REFERENCE, "horizon": 5e-324, "N": 1000}
    assert main(["run", "--config", str(write_config(tmp_path, config)), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("massgate: config error: N:")
    assert len(err.strip().splitlines()) == 1
    assert len(steps) == 0


def test_cli_refuses_an_adaptive_stage_whose_step_cannot_advance_its_clock(tmp_path, capsys):
    # after 2 climb steps to t=2.0, steps of 1e-17, below half an ulp of 2.0
    raw = {**ADAPTIVE, "alpha": 0.05, "horizon": 2.00000000000001, "J": 50, "N0": 2, "Nstage": 10**17}
    for command in (["run", "--out", str(tmp_path / "out")], ["oracle"]):
        assert main([*command, "--config", str(write_config(tmp_path, raw))]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("massgate: config error: Nstage:")
        assert len(captured.err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


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
                     id="overflowed-field-fixed"),
        pytest.param({"m": 0.1, "M": 0.2, "alpha": 1e300, "horizon": 1e300, "J": 50, "N": 10**6},
                     id="overflowed-diffusion-number"),
        pytest.param({"m": 0.05, "M": 0.2, "alpha": 10, "horizon": 1.7e308, "J": 20,
                      "mode": "adaptive", "N0": 2, "Nstage": 50}, id="overflow"),
        pytest.param({"m": 5e-324, "M": 1, "alpha": 1.7e308, "horizon": 1e-12, "J": 3,
                      "mode": "adaptive", "N0": 2, "Nstage": 1}, id="infinite-mass-rate"),
        pytest.param({"m": 5e-324, "M": 1e-320, "alpha": 1e10, "horizon": 1e-12, "J": 3,
                      "mode": "adaptive", "N0": 2, "Nstage": 1}, id="zero-division"),
]


def test_cli_run_stops_at_the_first_non_finite_mass(tmp_path, capsys, monkeypatch):
    # nu ~ 1e299 is finite, but the first step's field overflows; the
    # remaining 199999 steps would only carry NaN.
    steps = []

    def counted_step(*args):
        steps.append(None)
        return step(*args)

    monkeypatch.setattr("massgate.runner.step", counted_step)
    config = {"m": 0.1, "M": 0.2, "alpha": 1e300, "horizon": 10, "J": 50, "N": 200000}
    assert main(["run", "--config", str(write_config(tmp_path, config)), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("massgate: config error: mass samples must be finite")
    assert len(err.strip().splitlines()) == 1
    assert len(steps) == 1


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
skipped = ("dataclasses", "inspect", "typing", "multiprocessing", "concurrent.futures", "subprocess", "tempfile",
           "logging")
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
    for n_list in ("a,b", ","):  # not integers; no step count at all
        code = main(["sweep", "--config", str(config_path), "--n-list", n_list, "--out", str(tmp_path / "s")])
        assert code == 1
        assert "n-list" in capsys.readouterr().err


def test_cli_sweep_rejects_adaptive_mode_before_making_its_directory(tmp_path, capsys):
    config_path = write_config(tmp_path, ADAPTIVE)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(config_path), "--n-list", "100", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "massgate: config error: mode: sweep varies N and requires fixed mode\n"
    assert not out.exists()


def test_cli_sweep_whose_run_fails_leaves_no_directory(tmp_path, capsys):
    # the config validates, but the first step's field overflows
    config = {"m": 0.1, "M": 0.2, "alpha": 1e200, "horizon": 10, "J": 50}
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(write_config(tmp_path, config)), "--n-list", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("massgate: config error: mass samples must be finite")
    assert not out.exists()


def test_cli_sweep_with_an_unwritable_sweep_json_leaves_no_sweep_csv(tmp_path, capsys):
    out = tmp_path / "sweep"
    (out / "sweep.json").mkdir(parents=True)
    config_path = write_config(tmp_path, {**REFERENCE, "quadrature": "riemann"})
    assert main(["sweep", "--config", str(config_path), "--n-list", "50,200", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("massgate: io error: ")
    assert len(err.strip().splitlines()) == 1
    assert [path.name for path in out.iterdir()] == ["sweep.json"]


def files_under(out):
    """Every path under ``out`` that is not a directory, symlinks included."""
    return [path for path in out.rglob("*") if path.is_symlink() or not path.is_dir()]


def test_cli_compare_with_an_unwritable_compare_json_fails_before_its_runs(tmp_path, capsys, monkeypatch):
    steps = count_steps(monkeypatch)
    out = tmp_path / "cmp"
    (out / "compare.json").mkdir(parents=True)
    assert main(["compare", "--config", str(write_config(tmp_path, REFERENCE)), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("massgate: io error: ")
    assert len(err.strip().splitlines()) == 1
    assert steps == []
    assert files_under(out) == []


@pytest.mark.parametrize("blocked", ["trapezoid/report.json", "compare.json"])
def test_cli_failed_compare_leaves_none_of_its_files(tmp_path, capsys, blocked):
    # a directory fails the second run as it opens its files; /dev/full
    # fails compare.json after both runs
    out = tmp_path / "cmp"
    if blocked == "compare.json":
        out.mkdir()
        (out / blocked).symlink_to("/dev/full")
    else:
        (out / blocked).mkdir(parents=True)
    assert main(["compare", "--config", str(write_config(tmp_path, REFERENCE)), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("massgate: io error: ")
    assert len(err.strip().splitlines()) == 1
    assert files_under(out) == []


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


def test_adaptive_cli_run_stops_at_the_horizon_as_oracle_does(tmp_path, capsys):
    # The horizon lies half a stage step past t_1 = 0.25; a step to 0.375
    # would detect switch 2, past the horizon.
    config = {"m": 0.25, "M": 0.5, "alpha": 1, "horizon": 0.3125, "J": 2, "mode": "adaptive", "N0": 1, "Nstage": 1}
    config_path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    assert main(["oracle", "--config", str(config_path)]) == 0
    oracle = capsys.readouterr().out.splitlines()[-1]
    assert [(row["k"], row["T_k"]) for row in read_rows(out / "switches.csv")] == [tuple(oracle.split(","))]
    assert [row["time"] for row in read_rows(out / "mass.csv")] == ["0.2500000000"]


@pytest.mark.parametrize("blocked", ["mass.csv", "switches.csv"])
@pytest.mark.parametrize("cpus, fork_fails", [(1, False), (2, False), (2, True)])
def test_cli_failed_emit_leaves_no_streamed_outputs(tmp_path, capsys, monkeypatch, cpus, fork_fails, blocked):
    # mass.csv fails when it is opened, and the full disk under
    # switches.csv when its header is flushed, both before the run
    use_cpus(monkeypatch, cpus)
    if fork_fails:
        fail_fork(monkeypatch)
    out = tmp_path / "out"
    out.mkdir()
    if blocked == "mass.csv":
        (out / blocked).mkdir()
    else:
        (out / blocked).symlink_to("/dev/full")
    config_path = write_config(tmp_path, {**DENSE_ADAPTIVE, "snapshot_stride": 1})
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("massgate: io error: ")
    assert len(err.strip().splitlines()) == 1
    assert not {"snapshots.csv", "switches.csv", "report.json"} & {path.name for path in out.iterdir()}
    # only the directory in mass.csv's place, if that is what failed
    assert [path.name for path in out.iterdir()] == (["mass.csv"] if blocked == "mass.csv" else [])


@pytest.mark.parametrize("blocked", OUTPUTS)
@pytest.mark.parametrize("cpus", [1, 2])
def test_cli_directory_in_place_of_an_output_leaves_only_it(tmp_path, capsys, monkeypatch, cpus, blocked):
    # every file is opened before the run, and those opened before the
    # directory failed are removed
    use_cpus(monkeypatch, cpus)
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    config_path = write_config(tmp_path, {**DENSE_ADAPTIVE, "snapshot_stride": 1})
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("massgate: io error: ")
    assert len(err.strip().splitlines()) == 1
    assert [path.name for path in out.iterdir()] == [blocked]


@pytest.mark.parametrize("cpus", [1, 2])
def test_cli_run_failing_at_step_1_removes_an_earlier_runs_outputs(tmp_path, capsys, monkeypatch, cpus):
    use_cpus(monkeypatch, cpus)
    out = tmp_path / "out"
    config_path = write_config(tmp_path, {**REFERENCE, "snapshot_stride": 1})
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    assert sorted(path.name for path in out.iterdir()) == sorted(OUTPUTS)
    capsys.readouterr()
    # the first step's field overflows
    assert main(["run", "--config", str(config_path), "--out", str(out), "--set", "alpha=1e200"]) == 1
    assert capsys.readouterr().err.startswith("massgate: config error: mass samples must be finite")
    assert list(out.iterdir()) == []


def test_failed_emit_outputs_leaves_no_file(tmp_path):
    run_config = config_from_mapping({**REFERENCE, "snapshot_stride": 10})
    traj = run(run_config)
    (tmp_path / "report.json").mkdir()
    with pytest.raises(IsADirectoryError):
        emit_outputs(traj, compare_with_oracle(traj, run_config), tmp_path)
    assert [path.name for path in tmp_path.iterdir()] == ["report.json"]


@pytest.mark.parametrize("cpus", [1, 2])
def test_cli_run_at_debug_logs_each_switch_and_writes_the_same_bytes(tmp_path, capsys, monkeypatch, cpus):
    use_cpus(monkeypatch, cpus)
    config_path = write_config(tmp_path, {**DENSE_ADAPTIVE, "snapshot_stride": 7})
    outputs, debug = {}, {}
    for level in ("debug", "error"):
        monkeypatch.setenv("MASSGATE_LOG", level)
        out = tmp_path / level
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        outputs[level] = {name: (out / name).read_bytes() for name in OUTPUTS}
        debug[level] = [line for line in capsys.readouterr().err.splitlines() if line.startswith("DEBUG ")]
    assert outputs["debug"] == outputs["error"]
    assert debug["error"] == []
    rows = read_rows(tmp_path / "debug" / "switches.csv")
    assert len(debug["debug"]) == len(rows) == 499
    for line, row in zip(debug["debug"], rows):
        k, time = re.match(r"DEBUG massgate\.runner: switch (\d+) at t=(\S+): mass ", line).groups()
        assert (k, f"{float(time):.10f}") == (row["k"], row["T_k"])
