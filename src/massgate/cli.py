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
import math
import os
import sys
from dataclasses import replace
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
# Config dataclass field -> config key, for fields whose names differ.
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
    config dataclasses, whose errors are re-keyed to config keys."""
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
    except ConfigError as exc:  # dataclass field names -> config keys; CLI keys pass through
        raise ConfigError(_FIELD_KEYS.get(exc.key, exc.key), exc.message) from exc


def _json_object(text: str) -> dict:
    try:
        raw = json.loads(text)
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


# report.json as json.dumps(_report_payload(report), indent=2) lays it out;
# filling this in avoids the json module's pure-Python indenting encoder.
_REPORT_EVENT = """\
    {{
      "k": {},
      "T_k": {},
      "t_k": {},
      "err": {},
      "bound": {},
      "within_bound": {}
    }}"""
_REPORT = """\
{{
  "events": {},
  "summary": {{
    "max_abs_error": {},
    "mean_spacing": {}
  }}
}}
"""


def _json_scalar(value: float | int | bool | None) -> str:
    """``value`` as json.dumps writes it, NaN and +-Infinity included."""
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if not isinstance(value, float):
        return int.__repr__(value)
    if math.isfinite(value):
        return float.__repr__(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


def _report_json(report: ErrorReport) -> str:
    """report.json's text, byte for byte json.dumps(_report_payload(report),
    indent=2) plus a newline."""
    rows = ",\n".join(
        _REPORT_EVENT.format(*map(_json_scalar, (row.index, row.computed_time, row.oracle_time,
                                                 row.error, row.bound, row.within_bound)))
        for row in report.events
    )
    events = f"[\n{rows}\n  ]" if rows else "[]"
    return _REPORT.format(events, _json_scalar(report.max_abs_error), _json_scalar(report.mean_spacing))


def _report_payload(report: ErrorReport) -> dict:
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


def emit_outputs(traj: Trajectory, report: ErrorReport, out_dir: Path | str) -> list[Path]:
    """Write switches.csv, mass.csv, snapshots.csv and report.json.

    Times, masses and field values are printed with 10 decimal places and
    ``bound`` as its shortest round-trip repr; rows ascend in time.  Each
    file has one printf-style byte template, built once, and is streamed
    with one ``writelines`` over its rows, never joined whole in memory.
    A snapshot's template holds every node's row with x_j filled in, so
    one ``%`` prints the whole snapshot.  Files are binary, so every line
    ends in a bare newline on every platform.  All snapshots must share
    one spatial grid, as those of one run do: ValueError otherwise, before
    any file is written.  Raises OSError on unwritable paths.
    """
    snapshots = traj.snapshots
    width = len(snapshots[0].values) if snapshots else 0
    if any(len(snap.values) != width for snap in snapshots):
        raise ValueError("all snapshots must share one spatial grid")
    # one row per node: the snapshot time is joined in front of each
    # row, then x_j, then a slot for u_j
    node_rows = [b"", *(b",%.10f,%%.10f\n" % (j / (width - 1)) for j in range(width))]
    files = (
        ("switches.csv", b"k,T_k,t_k,err,bound,within_bound\n",
         (b"%d,%.10f,%.10f,%.10f,%r,%s\n" % (row.index, row.computed_time, row.oracle_time, row.error,
                                             row.bound, b"true" if row.within_bound else b"false")
          for row in report.events)),
        ("mass.csv", b"time,mass,flux\n",
         map(b"%.10f,%.10f,%d\n".__mod__, zip(traj.times, traj.masses, traj.fluxes))),
        ("snapshots.csv", b"time,x,u\n",
         ((b"%.10f" % snap.time).join(node_rows) % tuple(snap.values) for snap in snapshots)),
        ("report.json", _report_json(report).encode(), ()),
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, header, rows in files:
        path = out / name
        with path.open("wb") as f:
            f.write(header)
            f.writelines(rows)
        written.append(path)
    log.info("wrote %s", ", ".join(str(p) for p in written))
    return written


def _load_mapping(config_path: str, overrides: list[str] | None) -> dict:
    try:
        text = Path(config_path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError("config", f"cannot read {config_path}: {exc}") from exc
    raw = _json_object(text)
    for item in overrides or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(key or item, "override must look like key=value")
        try:
            raw[key] = json.loads(value)
        except json.JSONDecodeError:
            raw[key] = value
    return raw


def _cmd_run(args: argparse.Namespace) -> int:
    run_config = config_from_mapping(_load_mapping(args.config, args.set))
    traj = run(run_config)
    report = compare_with_oracle(traj, run_config)
    emit_outputs(traj, report, args.out)
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
    payload = {}
    for kind in (QuadratureKind.RIEMANN_INTERIOR, QuadratureKind.TRAPEZOID):
        variant = replace(run_config, quadrature=kind)
        traj = run(variant)
        report = compare_with_oracle(traj, variant)
        emit_outputs(traj, report, out / kind.value)
        payload[kind.value] = _report_payload(report)
    path = out / "compare.json"
    with path.open("w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
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
