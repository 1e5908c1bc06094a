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
from pathlib import Path

from .analytic import ConfigError, ControlConfig, mass_rate, switch_spacing, switch_time
from .quadrature import QuadratureKind
from .runner import (
    AdaptiveGrid,
    ErrorReport,
    FixedGrid,
    RunConfig,
    Trajectory,
    compare_with_oracle,
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


# report.json as json.dumps(..., indent=2) lays it out, every value
# printed with %r; each event row is one % of its EventError.  Where repr
# and JSON spell a value differently, _JSON_SPELLINGS maps one to the
# other over the whole text, which is safe because no key contains them.
_REPORT_EVENT = b"""\
    {
      "k": %r,
      "T_k": %r,
      "t_k": %r,
      "err": %r,
      "bound": %r,
      "within_bound": %r
    }"""
_REPORT = b"""\
{
  "events": %s,
  "summary": {
    "max_abs_error": %r,
    "mean_spacing": %r
  }
}
"""
_JSON_SPELLINGS = ((b"nan", b"NaN"), (b"inf", b"Infinity"), (b"None", b"null"),
                   (b"True", b"true"), (b"False", b"false"))


def _report_json(report: ErrorReport) -> bytes:
    """report.json's bytes: json.dumps of the events (keys k, T_k, t_k,
    err, bound, within_bound) and the summary (max_abs_error,
    mean_spacing) with indent=2, plus a newline.  The values must be
    Python scalars, as ``compare_with_oracle`` builds them."""
    rows = b",\n".join(map(_REPORT_EVENT.__mod__, report.events))
    text = _REPORT % (b"[\n%s\n  ]" % rows if rows else b"[]", report.max_abs_error, report.mean_spacing)
    for spelling, json_spelling in _JSON_SPELLINGS:
        text = text.replace(spelling, json_spelling)
    return text


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


def _format_records(pipe: int, file, width: int) -> None:
    """The helper process: format each (values..., time) record from the
    pipe into ``file``.  Exits 0, an OSError's errno, or 255 otherwise."""
    code = 255
    try:
        format_snapshot, record = _snapshot_formatter(), width + 1
        with open(pipe, "rb") as records, file:
            file.write(b"time,x,u\n")
            while data := records.read(8 * record * max(1, 8192 // record)):  # ~64 KiB of whole records
                batch = array("d", data).tolist()
                file.writelines(format_snapshot(batch[i:i + width], batch[i + width])
                                for i in range(0, len(batch), record))
        code = 0
    except OSError as exc:
        code = exc.errno or 255
    finally:
        os._exit(code)


class SnapshotWriter:
    """snapshots.csv of one run: ``add(values, time)`` is the run's
    snapshot sink, and ``close`` completes the file.  Given the node count
    ``stream_width`` and a second usable CPU, ``add`` pipes raw float64
    values to a forked helper process that formats them while the run
    steps; otherwise it formats in-process.  Open one streaming writer at
    a time: a second helper would hold the first one's pipe open."""

    def __init__(self, out_dir: Path | str, stream_width: int = 0) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        self.path = out / "snapshots.csv"
        self.file = self.path.open("wb")
        self.pid = 0
        if stream_width and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1:
            read_end, write_end = os.pipe()
            self.pid = os.fork()
            if not self.pid:
                os.close(write_end)  # else the pipe would never close
                _format_records(read_end, self.file, stream_width)
            os.close(read_end)
            self.file.close()  # the helper's now; nothing was written to it here
            self.file = open(write_end, "wb", buffering=1 << 16)
        else:
            self.file.write(b"time,x,u\n")
            self.format = _snapshot_formatter()

    def add(self, values, time: float) -> None:
        if self.pid:
            record = array("d", values)
            record.append(time)
            self.file.write(record)
        else:
            self.file.write(self.format(values, time))

    def close(self) -> None:
        """Wait until every added row is written; OSError if one was not."""
        pid, self.pid = self.pid, 0
        try:
            self.file.close()
        except BrokenPipeError:  # the helper stopped early; its status says why
            if not pid:
                raise
        if pid:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if 0 < code < 255:
                raise OSError(code, os.strerror(code))
            if code:
                raise OSError(f"{self.path}: the snapshot formatter exited with status {code}")


def emit_outputs(traj: Trajectory, report: ErrorReport, out_dir: Path | str,
                 snapshots: SnapshotWriter | None = None) -> list[Path]:
    """Write switches.csv, mass.csv, snapshots.csv and report.json.

    Times, masses and field values are printed with 10 decimal places and
    ``bound`` as its shortest round-trip repr; rows ascend in time.  Each
    file has one printf-style byte template, built once, and is streamed
    over its rows, never joined whole in memory.  Files are binary, so
    every line ends in a bare newline on every platform.  The snapshots
    go to ``snapshots``, which ``run`` may have filled already, or to a
    new in-process writer; it is closed last, once the other files are
    written.  All snapshots must share one spatial grid of at least two
    nodes, as those of one run do: ValueError otherwise, before any file
    is written.  Raises OSError on unwritable paths.
    """
    width = len(traj.snapshots[0].values) if traj.snapshots else 0
    if any(len(snap.values) != width for snap in traj.snapshots):
        raise ValueError("all snapshots must share one spatial grid")
    if width == 1:
        raise ValueError("a snapshot needs at least two nodes, the grid's ends")
    if snapshots is None:
        snapshots = SnapshotWriter(out_dir)
    files = (
        ("switches.csv", b"k,T_k,t_k,err,bound,within_bound\n",
         (b"%d,%.10f,%.10f,%.10f,%r,%s\n" % (row.index, row.computed_time, row.oracle_time, row.error,
                                             row.bound, b"true" if row.within_bound else b"false")
          for row in report.events)),
        ("mass.csv", b"time,mass,flux\n",
         map(b"%.10f,%.10f,%d\n".__mod__, zip(traj.times, traj.masses, traj.fluxes))),
        ("report.json", _report_json(report), ()),
    )
    try:
        for values, time in traj.snapshots:
            snapshots.add(values, time)
        for name, header, rows in files:
            with (Path(out_dir) / name).open("wb") as f:
                f.write(header)
                f.writelines(rows)
    finally:
        snapshots.close()
    written = [Path(out_dir) / name for name in ("switches.csv", "mass.csv", "snapshots.csv", "report.json")]
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


def _run_and_emit(run_config: RunConfig, out: Path | str) -> tuple[Trajectory, ErrorReport]:
    """Run, compare and emit the four files, streaming snapshots.csv while
    the run steps.  A failed run leaves no snapshots.csv behind."""
    snapshots = SnapshotWriter(out, run_config.snapshot_stride and run_config.grid.cells + 1)
    try:
        traj = run(run_config, snapshots.add)
    except BaseException:
        try:
            snapshots.close()  # raises the helper's error, if it failed
        finally:
            snapshots.path.unlink(missing_ok=True)
        raise
    report = compare_with_oracle(traj, run_config)
    emit_outputs(traj, report, out, snapshots=snapshots)
    return traj, report


def _cmd_run(args: argparse.Namespace) -> int:
    run_config = config_from_mapping(_load_mapping(args.config, args.set))
    traj, _ = _run_and_emit(run_config, args.out)
    print(f"{len(traj.events)} switches detected; outputs in {args.out}")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    run_config = config_from_mapping(_load_mapping(args.config, args.set))
    control = run_config.control
    # Count the switches t_k <= horizon from the closed form, then settle
    # the count against switch_time itself, which the rows print.
    span = control.upper - control.lower
    estimate = (control.horizon * mass_rate(control) - control.lower) / span
    count = max(0, int(min(estimate, MAX_ORACLE_ROWS + 1)))
    while count and switch_time(count, control) > control.horizon:
        count -= 1
    while count <= MAX_ORACLE_ROWS and switch_time(count + 1, control) <= control.horizon:
        count += 1
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
        _, report = _run_and_emit(variant, out / kind.value)
        # each report.json, less its final newline, two spaces in under its key
        text = _report_json(report)[:-1].replace(b"\n", b"\n  ")
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
