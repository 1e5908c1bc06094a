"""Command line entry point and file I/O for experiment runs.

Configs are flat JSON objects with keys

    m, M          mass thresholds (lower, upper)
    alpha         diffusivity
    horizon       final time
    J             spatial cells
    N             time steps          (fixed mode)
    N0, Nstage    steps per stage     (adaptive mode)
    quadrature    "riemann" | "trapezoid"   (default: trapezoid when fixed,
                                             riemann when adaptive)
    mode          "fixed" | "adaptive"      (default: fixed)
    snapshot_stride  record a field snapshot every this many steps (0 = off)

Outputs per run: switches.csv, mass.csv, snapshots.csv and report.json.
The MASSGATE_LOG environment variable (error | info | debug) controls
diagnostic verbosity on standard error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from array import array
from contextlib import ExitStack
from functools import partial
from pathlib import Path

from .analytic import ConfigError, ControlConfig, switch_count, switch_spacing, switch_time
from .quadrature import QuadratureKind
from .runner import (
    AdaptiveGrid,
    ErrorReport,
    EventError,
    FixedGrid,
    RunConfig,
    Trajectory,
    compare_with_oracle,
    error_report,
    event_pairer,
    run,
)
from .stepper import GridSpec

log = logging.getLogger(__name__)

_KEYS = {"m", "M", "alpha", "horizon", "J", "N", "quadrature", "mode", "N0", "Nstage", "snapshot_stride"}
_QUADRATURES = {"riemann", "trapezoid"}
_MODES = {"fixed", "adaptive"}
# `oracle` rejects a horizon with more closed-form switches than this.
MAX_ORACLE_ROWS = 1_000_000
# Config record field -> config key, for fields whose names differ.
_FIELD_KEYS = {"lower": "m", "upper": "M", "diffusivity": "alpha", "cells": "J",
               "steps": "N", "first_stage_steps": "N0", "stage_steps": "Nstage"}


def _require(
    raw: dict, key: str, integer: bool = False, default: int | None = None
) -> float | int:
    """raw[key], or ``default`` when absent and given; it must be an
    integer, or any number unless ``integer``."""
    if key not in raw and default is None:
        raise ConfigError(key, "missing required key")
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ConfigError(key, f"must be {'an integer' if integer else 'a number'}, got {value!r}")
    if integer:
        if not -sys.maxsize < value < sys.maxsize:  # J + 1 field values must fit an index
            raise ConfigError(key, f"must be less than {sys.maxsize}, a machine index, in magnitude")
        return value
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(key, "integer too large for a float") from None


def config_from_mapping(raw: dict) -> RunConfig:
    """Validate a flat config mapping and build the run configuration.

    Key names and value types are checked here, value invariants by the
    config records, whose errors are re-keyed to config keys."""
    for key in raw:
        if key not in _KEYS:
            raise ConfigError(key, "unknown key")

    lower = _require(raw, "m")
    upper = _require(raw, "M")
    alpha = _require(raw, "alpha")
    horizon = _require(raw, "horizon")
    cells = _require(raw, "J", integer=True)

    mode_name = raw.get("mode", "fixed")
    if not isinstance(mode_name, str) or mode_name not in _MODES:
        raise ConfigError("mode", f"must be one of {sorted(_MODES)}, got {mode_name!r}")

    quad_name = raw.get("quadrature", "trapezoid" if mode_name == "fixed" else "riemann")
    if not isinstance(quad_name, str) or quad_name not in _QUADRATURES:
        raise ConfigError("quadrature", f"must be one of {sorted(_QUADRATURES)}, got {quad_name!r}")

    stride = _require(raw, "snapshot_stride", integer=True, default=0)

    try:
        if mode_name == "fixed":
            for key in ("N0", "Nstage"):
                if key in raw:
                    raise ConfigError(key, "only valid in adaptive mode")
            mode = FixedGrid(_require(raw, "N", integer=True))
        else:
            if "N" in raw:
                raise ConfigError("N", "only valid in fixed mode")
            mode = AdaptiveGrid(_require(raw, "N0", integer=True), _require(raw, "Nstage", integer=True))
        return RunConfig(
            control=ControlConfig(lower=lower, upper=upper, diffusivity=alpha, horizon=horizon),
            grid=GridSpec(cells),
            quadrature=QuadratureKind(quad_name),
            mode=mode,
            snapshot_stride=stride,
        )
    except ConfigError as exc:  # record field names -> config keys; CLI keys pass through
        raise ConfigError(_FIELD_KEYS.get(exc.key, exc.key), exc.message) from exc


def _json_value(text: str, key: str):
    """json.loads(text); a document nested past the recursion limit is a
    ConfigError on ``key``, which does not echo it."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ConfigError(key, "JSON nested too deeply") from None


def _json_object(text: str) -> dict:
    try:
        raw = _json_value(text, "config")
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config", "must be a JSON object")
    return raw


def parse_config(text: str) -> RunConfig:
    """Parse a JSON config document into a run configuration."""
    return config_from_mapping(_json_object(text))


def config_to_mapping(run_config: RunConfig) -> dict:
    """Inverse of config_from_mapping (round-trips exactly)."""
    control = run_config.control
    raw: dict = {
        "m": control.lower,
        "M": control.upper,
        "alpha": control.diffusivity,
        "horizon": control.horizon,
        "J": run_config.grid.cells,
        "quadrature": run_config.quadrature.value,
        "snapshot_stride": run_config.snapshot_stride,
    }
    if isinstance(run_config.mode, AdaptiveGrid):
        raw["mode"] = "adaptive"
        raw["N0"] = run_config.mode.first_stage_steps
        raw["Nstage"] = run_config.mode.stage_steps
    else:
        raw["mode"] = "fixed"
        raw["N"] = run_config.mode.steps
    return raw


def serialize_config(run_config: RunConfig) -> str:
    return json.dumps(config_to_mapping(run_config), indent=2) + "\n"


def _fmt(value: float) -> str:
    return f"{value:.10f}"


# Given a second usable CPU, a run with at least this many closed-form
# switches up to its horizon pairs and writes them in a helper process
# while it steps.  Forking and reaping the helper costs about 2.6 ms;
# pairing and writing a switch after the run costs about 7 us, and piping
# it to the helper 0.3 us, so the helper pays off from about 400 switches.
STREAM_SWITCHES = 400
# Bytes per pipe write: 64 KiB of snapshots, but 256 switches, so that
# the helper's work left after the run's last step is short (about 2 ms).
_SNAPSHOT_CHUNK = 1 << 16
_SWITCH_CHUNK = 256 * 3 * 8

_SWITCHES_HEADER = b"k,T_k,t_k,err,bound,within_bound\n"


def _switch_row(row: EventError) -> bytes:
    """The switches.csv row of one paired switch."""
    return b"%d,%.10f,%.10f,%.10f,%r,%s\n" % (row.index, row.computed_time, row.oracle_time, row.error,
                                             row.bound, b"true" if row.within_bound else b"false")


# report.json as json.dumps(..., indent=2) lays it out: the head, each
# event's entry, comma-separated, and the tail with the summary.  Every
# value is printed with %r, so it must be a Python scalar, as
# ``error_report`` builds them.  Where repr and JSON spell a value
# differently, _JSON_SPELLINGS maps one to the other, which is safe
# because no key contains them.
_REPORT_HEAD = b'{\n  "events": ['
_REPORT_EVENT = b"""
    {
      "k": %r,
      "T_k": %r,
      "t_k": %r,
      "err": %r,
      "bound": %r,
      "within_bound": %r
    }"""
_REPORT_TAIL = b"""],
  "summary": {
    "max_abs_error": %r,
    "mean_spacing": %r
  }
}
"""
_JSON_SPELLINGS = ((b"nan", b"NaN"), (b"inf", b"Infinity"), (b"None", b"null"),
                   (b"True", b"true"), (b"False", b"false"))


def _json_spelled(text: bytes) -> bytes:
    for spelling, json_spelling in _JSON_SPELLINGS:
        text = text.replace(spelling, json_spelling)
    return text


def _report_event(row: EventError) -> bytes:
    """The report.json entry of one paired switch, without the comma that
    separates it from the entry before."""
    return _json_spelled(_REPORT_EVENT % row)


def _report_tail(report: ErrorReport) -> bytes:
    """report.json after the last entry: the summary."""
    return _json_spelled((b"\n  " if report.events else b"") +
                         _REPORT_TAIL % (report.max_abs_error, report.mean_spacing))


def _snapshot_formatter():
    """``format_snapshot(values, time)``, which prints one snapshot as its
    snapshots.csv rows with one ``%`` of a byte template that the first
    call builds for its number of values, every node's x_j filled in."""
    node_rows: list[bytes] = []

    def format_snapshot(values, time: float) -> bytes:
        if not node_rows:
            # one row per node: the snapshot time is joined in front of
            # each row, then x_j, then a slot for u_j
            width = len(values)
            node_rows.extend([b"", *(b",%.10f,%%.10f\n" % (j / (width - 1)) for j in range(width))])
        return (b"%.10f" % time).join(node_rows) % tuple(values)

    return format_snapshot


def _open_snapshot_sink(width: int, file):
    """The sink of snapshots.csv (see ``StreamWriter``); a record is a
    snapshot's values, then its time."""
    file.write(b"time,x,u\n")
    format_snapshot = _snapshot_formatter()

    def add(batch) -> None:
        file.writelines(format_snapshot(batch[i:i + width - 1], batch[i + width - 1])
                        for i in range(0, len(batch), width))

    return add, lambda: None


def _open_switch_sink(control: ControlConfig, stages, width: int, switches, report):
    """The sink of switches.csv and report.json (see ``StreamWriter``); a
    record is the index, time and mass of a switch detected on the time
    grid of ``stages``.  Each is paired with its closed-form time and
    written at once; the summary follows the last one."""
    switches.write(_SWITCHES_HEADER)
    report.write(_REPORT_HEAD)
    pair, rows = event_pairer(control, stages), []

    def add(batch) -> None:
        for i in range(0, len(batch), width):
            row = pair(int(batch[i]), batch[i + 1])
            switches.write(_switch_row(row))
            report.write(b"," + _report_event(row) if rows else _report_event(row))
            rows.append(row)

    return add, lambda: report.write(_report_tail(error_report(rows)))


def _second_cpu() -> bool:
    """Whether a helper process can run beside this one."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1


class StreamWriter:
    """Output files of one run, written one record of ``width`` floats at
    a time while the run steps.

    ``open_sink(width, *files)`` writes the files' headers and returns
    ``(add, finish)``: ``add(batch)`` writes a flat sequence of whole
    records, and ``finish()`` what follows the last one.  The files are
    opened here, so open errors surface before the run.  With ``stream``
    and a second usable CPU, a forked helper process owns the files:
    ``add(record)`` pipes a list of floats as float64, the whole records
    that fit in ``chunk`` bytes per write, and the helper writes them as
    they come.  Otherwise, or when the fork fails, ``add`` writes the record
    in-process.  Several writers may stream at once, but a helper holds
    the pipes of the writers opened before it, so close them in the
    reverse order of opening.
    """

    def __init__(self, paths: list[Path], open_sink, width: int, chunk: int = 0,
                 stream: bool = False) -> None:
        paths[0].parent.mkdir(parents=True, exist_ok=True)
        self.paths = paths
        with ExitStack() as opened:
            self.files = [opened.enter_context(path.open("wb")) for path in paths]
            self.opened = opened.pop_all()
        self.pid = 0
        if stream and _second_cpu():
            self.pid = self._fork(open_sink, width, 8 * width * max(1, chunk // (8 * width)))
        if not self.pid:
            self.add, self.finish = open_sink(width, *self.files)

    def _fork(self, open_sink, width: int, chunk: int) -> int:
        """Fork the helper and return its pid, or 0 if the fork failed."""
        pipe = ()
        try:
            pipe = os.pipe()
            pid = os.fork()
        except OSError as exc:  # e.g. EMFILE or EAGAIN at a process limit
            for fd in pipe:
                os.close(fd)
            log.info("cannot fork a helper (%s); writing %s in-process", exc, self._names())
            return 0
        read_end, write_end = pipe
        if not pid:
            os.close(write_end)  # else the pipe would never close
            self._serve(read_end, open_sink, width, chunk)
        os.close(read_end)
        self.opened.close()  # the helper's now; nothing was written to them here
        self.pipe = open(write_end, "wb", buffering=chunk)
        self.records, self.batch = array("d"), chunk // 8
        self.add = self._send
        return pid

    def _serve(self, pipe: int, open_sink, width: int, chunk: int) -> None:
        """The helper process: write the records from the pipe, read
        ``chunk`` bytes at a time.  Exits 0, an OSError's errno, or 255
        otherwise."""
        code = 255
        try:
            with open(pipe, "rb") as records, self.opened:
                add, finish = open_sink(width, *self.files)
                while data := records.read(chunk):
                    add(array("d", data).tolist())
                finish()
            code = 0
        except OSError as exc:
            code = exc.errno or 255
        finally:
            os._exit(code)

    def _send(self, record: list[float]) -> None:
        records = self.records
        records.fromlist(record)  # faster than extend, or a new array per record
        if len(records) >= self.batch:
            self.pipe.write(records)
            del records[:]

    def _names(self) -> str:
        return ", ".join(map(str, self.paths))

    def end(self) -> None:
        """Add no more records; a helper then finishes the files while the
        caller goes on."""
        if self.pid and not self.pipe.closed:
            try:
                with self.pipe:
                    self.pipe.write(self.records)
            except BrokenPipeError:  # the helper stopped early; its status says why
                pass

    def close(self) -> None:
        """Complete the files: finish them here, or end the input and wait
        for the helper.  OSError if a record was not written."""
        if not self.pid:
            with self.opened:  # closes every file, even if finish fails
                self.finish()
            return
        self.end()
        _, status, usage = os.wait4(self.pid, 0)
        cpu = usage.ru_utime + usage.ru_stime
        log.info("helper %d wrote %s in %.3f s of CPU", self.pid, self._names(), cpu)
        code = os.waitstatus_to_exitcode(status)
        if 0 < code < 255:
            raise OSError(code, os.strerror(code))
        if code:
            raise OSError(f"{self._names()}: the helper writing it exited with status {code}")

    def discard(self) -> None:
        """Close, then remove the files, as a failed run must."""
        try:
            self.close()
        finally:
            for path in self.paths:
                path.unlink(missing_ok=True)


def emit_outputs(traj: Trajectory, report: ErrorReport | None, out_dir: Path | str,
                 snapshots: StreamWriter | None = None, switches: StreamWriter | None = None) -> list[Path]:
    """Write switches.csv, mass.csv, snapshots.csv and report.json.

    Times, masses and field values are printed with 10 decimal places and
    ``bound`` as its shortest round-trip repr; rows ascend in time.  Each
    file has one printf-style byte template, built once, and is streamed
    over its rows, never joined whole in memory.  Files are binary, so
    every line ends in a bare newline on every platform.

    ``snapshots`` and ``switches`` are the writers of snapshots.csv and of
    switches.csv with report.json that ``run`` may have fed already; they
    are closed last, once mass.csv is written, ``switches`` first.
    Without ``switches``, switches.csv and report.json are written here
    from ``report``; without ``snapshots``, a new in-process writer takes
    the trajectory's snapshots.  All snapshots must share one spatial grid
    of at least two nodes, as those of one run do: ValueError otherwise,
    before any file is written.  Raises OSError on unwritable paths.
    """
    width = len(traj.snapshots[0].values) if traj.snapshots else 0
    if any(len(snap.values) != width for snap in traj.snapshots):
        raise ValueError("all snapshots must share one spatial grid")
    if width == 1:
        raise ValueError("a snapshot needs at least two nodes, the grid's ends")
    out = Path(out_dir)
    if snapshots is None:
        snapshots = StreamWriter([out / "snapshots.csv"], _open_snapshot_sink, width + 1)
    files = [("mass.csv", b"time,mass,flux\n",
              map(b"%.10f,%.10f,%d\n".__mod__, zip(traj.times, traj.masses, traj.fluxes)))]
    if switches is None:
        entries = b",".join(map(_report_event, report.events))
        files = [("switches.csv", _SWITCHES_HEADER, map(_switch_row, report.events)), *files,
                 ("report.json", _REPORT_HEAD, (entries, _report_tail(report)))]
    try:
        for values, time in traj.snapshots:
            snapshots.add([*values, time])
        if switches is not None:
            switches.end()  # its helper writes the summary while mass.csv is written
        for name, header, rows in files:
            with (out / name).open("wb") as f:
                f.write(header)
                f.writelines(rows)
    finally:
        try:
            if switches is not None:
                switches.close()
        finally:
            snapshots.close()
    written = [out / name for name in ("switches.csv", "mass.csv", "snapshots.csv", "report.json")]
    log.info("wrote %s", ", ".join(str(p) for p in written))
    return written


def _load_mapping(config_path: str, overrides: list[str] | None) -> dict:
    try:
        text = Path(config_path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"cannot read {config_path}: {exc}") from exc
    raw = _json_object(text)
    for item in overrides or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(key or item, "override must look like key=value")
        try:
            raw[key] = _json_value(value, key)
        except json.JSONDecodeError:
            raw[key] = value
    return raw


def _run_and_emit(run_config: RunConfig, out: Path | str) -> Trajectory:
    """Run and emit the four files.  snapshots.csv is written while the run
    steps, by a helper process where a second CPU allows.  With a second
    CPU and at least STREAM_SWITCHES closed-form switches up to the
    horizon, a helper writes switches.csv and report.json while the run
    steps too; on one CPU they are cheaper to write after it.  A failed
    run leaves none of the files that were being written while it
    stepped."""
    out = Path(out)
    control, grid, _, mode, stride = run_config
    snapshots = StreamWriter([out / "snapshots.csv"], _open_snapshot_sink, grid.cells + 2,
                             _SNAPSHOT_CHUNK, stride > 0)
    switches = None
    try:
        if _second_cpu() and switch_count(control, STREAM_SWITCHES) >= STREAM_SWITCHES:
            # computed here, so that a schedule that fails to compute
            # fails as the run would, not in the helper
            stages = mode.stages(control)
            switches = StreamWriter([out / "switches.csv", out / "report.json"],
                                    partial(_open_switch_sink, control, stages), 3, _SWITCH_CHUNK, True)
        on_switch = (lambda event: switches.add([*event])) if switches else None
        traj = run(run_config, lambda values, time: snapshots.add([*values, time]), on_switch)
    except BaseException:
        try:
            if switches is not None:
                switches.discard()  # raises the helper's error, if it failed
        finally:
            snapshots.discard()
        raise
    report = None if switches else compare_with_oracle(traj, run_config)
    emit_outputs(traj, report, out, snapshots, switches)
    return traj


def _cmd_run(args: argparse.Namespace) -> int:
    run_config = config_from_mapping(_load_mapping(args.config, args.set))
    traj = _run_and_emit(run_config, args.out)
    print(f"{len(traj.events)} switches detected; outputs in {args.out}")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    run_config = config_from_mapping(_load_mapping(args.config, args.set))
    control = run_config.control
    count = switch_count(control, MAX_ORACLE_ROWS)
    if count > MAX_ORACLE_ROWS:
        raise ConfigError("horizon", f"more than {MAX_ORACLE_ROWS} closed-form switches up to it")
    print(f"switch spacing: {_fmt(switch_spacing(control))}")
    print("k,t_k")
    for k in range(1, count + 1):
        print(f"{k},{_fmt(switch_time(k, control))}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    run_config = config_from_mapping(_load_mapping(args.config, args.set))
    if not isinstance(run_config.mode, FixedGrid):
        raise ConfigError("mode", "compare runs both quadratures and requires fixed mode")
    out = Path(args.out)
    control, grid, _, mode, stride = run_config
    reports = []
    for kind in (QuadratureKind.RIEMANN_INTERIOR, QuadratureKind.TRAPEZOID):
        # a new RunConfig, not _replace, so that the variant is validated
        variant = RunConfig(control, grid, kind, mode, stride)
        _run_and_emit(variant, out / kind.value)
        # each report.json, less its final newline, two spaces in under its key
        text = (out / kind.value / "report.json").read_bytes()[:-1].replace(b"\n", b"\n  ")
        reports.append(b'  "%s": %s' % (kind.value.encode(), text))
    (out / "compare.json").write_bytes(b"{\n%s\n}\n" % b",\n".join(reports))
    print(f"side-by-side reports in {out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    raw = _load_mapping(args.config, args.set)
    try:
        step_counts = [int(part) for part in args.n_list.split(",") if part]
    except ValueError as exc:
        raise ConfigError("n-list", f"must be comma-separated integers: {exc}") from exc
    if not step_counts:
        raise ConfigError("n-list", "must list at least one step count")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for steps in step_counts:
        raw_n = dict(raw)
        raw_n["N"] = steps
        # config_from_mapping rejects N outside fixed mode
        run_config = config_from_mapping(raw_n)
        traj = run(run_config)
        report = compare_with_oracle(traj, run_config)
        rows.append(
            {
                "N": steps,
                "dt": run_config.mode.stages(run_config.control)[0].dt,
                "events": len(report.events),
                "max_abs_err": report.max_abs_error,
                "all_within_bound": all(r.within_bound for r in report.events),
            }
        )

    path = out / "sweep.csv"
    with path.open("w", encoding="utf-8") as f:
        f.write("N,dt,events,max_abs_err,all_within_bound\n")
        for row in rows:
            err = "" if row["max_abs_err"] is None else _fmt(row["max_abs_err"])
            within = "true" if row["all_within_bound"] else "false"
            f.write(f"{row['N']},{row['dt']},{row['events']},{err},{within}\n")
    with (out / "sweep.json").open("w", encoding="utf-8") as f:
        json.dump(rows, f, indent=2)
        f.write("\n")
    print(f"sweep over N={step_counts} written to {out}")
    return 0


def _log_level(name: str) -> int:
    return {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        name.lower(), logging.ERROR
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="massgate",
        description="Simulate 1D diffusion with threshold-switched boundary flux.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_out: bool = True) -> None:
        p.add_argument("--config", required=True, help="path to a JSON config file")
        if with_out:
            p.add_argument("--out", required=True, help="output directory")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )

    p_run = sub.add_parser("run", help="run one experiment and emit its outputs")
    add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_oracle = sub.add_parser("oracle", help="print the closed-form switch times")
    add_common(p_oracle, with_out=False)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_compare = sub.add_parser("compare", help="run both quadratures side by side")
    add_common(p_compare)
    p_compare.set_defaults(func=_cmd_compare)

    p_sweep = sub.add_parser("sweep", help="vary N and tabulate switch-time errors")
    add_common(p_sweep)
    p_sweep.add_argument("--n-list", required=True, help="comma-separated step counts")
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr,
        level=_log_level(os.environ.get("MASSGATE_LOG", "error")),
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError and every other library ValueError
        print(f"massgate: config error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # the field of a huge J, or the per-step columns of a huge step count
        detail = str(exc) or "the field or the per-step columns do not fit"
        print(f"massgate: config error: out of memory: {detail}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:  # SingularPivot, overflow, zero division at extreme values
        print(f"massgate: config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"massgate: io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
