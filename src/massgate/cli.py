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
import os
import sys
from contextlib import ExitStack
from operator import itemgetter
from pathlib import Path

from .analytic import ConfigError, ControlConfig, switch_count, switch_spacing, switch_time
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

# `oracle` rejects a horizon with more closed-form switches than this.
MAX_ORACLE_ROWS = 1_000_000
# Config key -> the record field it sets; inverted, it re-keys record errors.
_FIELDS = {"m": "lower", "M": "upper", "alpha": "diffusivity", "horizon": "horizon", "J": "cells",
           "N": "steps", "N0": "first_stage_steps", "Nstage": "stage_steps", "quadrature": "quadrature",
           "mode": "mode", "snapshot_stride": "snapshot_stride"}
_KEY_OF = {field: key for key, field in _FIELDS.items()}
# Mode name -> its grid record, whose fields' keys only that mode takes, and
# its default quadrature.
_GRIDS = {"fixed": (FixedGrid, QuadratureKind.TRAPEZOID),
          "adaptive": (AdaptiveGrid, QuadratureKind.RIEMANN_INTERIOR)}


def _require(raw: dict, key: str, integer: bool = False, default: int | None = None) -> float | int:
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


def _choice(raw: dict, key: str, choices: dict, default: str):
    """choices[raw[key]], or choices[default] when absent; raw[key] must
    name one of ``choices``."""
    name = raw.get(key, default)
    if not isinstance(name, str) or name not in choices:
        raise ConfigError(key, f"must be one of {sorted(choices)}, got {name!r}")
    return choices[name]


def config_from_mapping(raw: dict) -> RunConfig:
    """Validate a flat config mapping and build the run configuration.

    Key names and value types are checked here, value invariants by the
    config records, whose errors are re-keyed to config keys."""
    for key in raw:
        if key not in _FIELDS:
            raise ConfigError(key, "unknown key")

    control = [_require(raw, _KEY_OF[field]) for field in ControlConfig._fields]
    cells = _require(raw, "J", integer=True)
    record, default = _choice(raw, "mode", _GRIDS, "fixed")
    quadrature = _choice(raw, "quadrature", {kind.value: kind for kind in QuadratureKind}, default.value)
    stride = _require(raw, "snapshot_stride", integer=True, default=0)

    for name, (other, _) in _GRIDS.items():
        stray = [key for key in map(_KEY_OF.get, other._fields) if key in raw]
        if stray and other is not record:
            raise ConfigError(stray[0], f"only valid in {name} mode")
    try:
        mode = record(*(_require(raw, _KEY_OF[field], integer=True) for field in record._fields))
        return RunConfig(ControlConfig(*control), GridSpec(cells), quadrature, mode, stride)
    except ConfigError as exc:  # record field names -> config keys; config keys pass through
        raise ConfigError(_KEY_OF.get(exc.key, exc.key), exc.message) from exc


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


def config_to_mapping(run_config: RunConfig) -> dict:
    """Inverse of config_from_mapping (round-trips exactly)."""
    control, grid, quadrature, mode, _ = run_config
    fields = {**run_config._asdict(), **control._asdict(), **grid._asdict(), **mode._asdict(),
              "quadrature": quadrature.value,
              "mode": next(name for name, (record, _) in _GRIDS.items() if isinstance(mode, record))}
    return {key: fields[field] for key, field in _FIELDS.items() if field in fields}


def _info(message: str, *args) -> None:
    """Log ``message % args`` at INFO, if ``logging`` is imported: ``main``
    imports it only when a record can be shown."""
    if logging := sys.modules.get("logging"):
        logging.getLogger("massgate.cli").info(message, *args)


# Each output file's buffer: snapshot rows of about 2 KB go out in fewer
# writes than by 8 KiB.
_BUFFER = 1 << 16

_SWITCHES_HEADER = b"k,T_k,t_k,err,bound,within_bound\n"
_SWITCH_ROW = b"%d,%.10f,%.10f,%.10f,%s,%s\n"

# report.json as json.dumps(..., indent=2) lays it out: the head, each
# event's entry, comma-separated, and the tail with the summary.  Values
# are printed with %r, ``within_bound`` as true or false, so each must be
# a Python scalar, as ``compare_with_oracle`` builds them.  Where repr and
# JSON spell a value differently (nan, inf, None), _JSON_SPELLINGS maps
# one to the other, which is safe because no key contains them.
_REPORT_HEAD = b'{\n  "events": ['
_REPORT_EVENT = b"""
    {
      "k": %r,
      "T_k": %r,
      "t_k": %r,
      "err": %r,
      "bound": %s,
      "within_bound": %s
    }"""
_REPORT_TAIL = b"""],
  "summary": {
    "max_abs_error": %r,
    "mean_spacing": %r
  }
}
"""
_JSON_SPELLINGS = ((b"nan", b"NaN"), (b"inf", b"Infinity"), (b"None", b"null"))
# A run's output files, in the order ``_create`` opens them, and their headers.
OUTPUTS = {"switches.csv": _SWITCHES_HEADER, "mass.csv": b"time,mass,flux\n", "snapshots.csv": b"time,x,u\n",
           "report.json": _REPORT_HEAD}


def _switch_writer(switches, report, summary: ErrorReport) -> None:
    """Write the rows of switches.csv and the entries and summary of
    report.json, the one writer of both, from ``summary``, the
    ``ErrorReport`` of a run's paired switches, each file in one write.
    A row and its entry share one repr of ``bound``.  Of all that the rows
    and the summary print, only nan, inf and None hold an ``n``, so the
    _JSON_SPELLINGS passes run only if one search of them finds one."""
    lines, entries = [], []
    for k, computed, oracle, error, bound, within in summary.events:
        row = k, computed, oracle, error, b"%r" % bound, b"true" if within else b"false"
        lines.append(_SWITCH_ROW % row)
        entries.append(_REPORT_EVENT % row)
    rows = b"".join(lines)
    values = summary.max_abs_error, summary.mean_spacing
    text = b",".join(entries) + (b"\n  " if entries else b"") + _REPORT_TAIL % values
    if b"n" in rows or b"n" in b"%r%r" % values:
        for spelling, json_spelling in _JSON_SPELLINGS:
            text = text.replace(spelling, json_spelling)
    switches.write(rows)
    report.write(text)


def _open_snapshot_sink(cells: int, file):
    """``add(values, time)``, the one printer of snapshots.csv rows of a
    grid of J = ``cells`` cells: it prints the snapshot of ``values`` at
    ``time``.  ``values`` is the whole field U_0..U_J, or, when they are
    at most J, its mirror half U_0..U_{J//2}, whose node j prints value
    min(j, J - j).  Each value is formatted once, by one ``%`` of an
    ``%.10f`` template, and a snapshot's J + 1 rows are laid out by one
    ``%`` of a byte template, every x_j filled in.

    Half or whole, templates and node map are fixed on the first call:
    every run opens the sink, while J may be close to ``sys.maxsize``.
    Such a run must fail at once, out of memory, when it allocates its
    field; building them earlier would hang it."""
    template = nodes = rows = None
    write = file.write

    def add(values, time: float) -> None:
        nonlocal template, nodes, rows
        if template is None:
            # one row per node: the snapshot time is joined in front of
            # each row, then x_j, then a slot for u_j
            half = len(values) <= cells
            template = b",".join([b"%.10f"] * len(values))
            nodes = itemgetter(*(min(j, cells - j) if half else j for j in range(cells + 1)))
            rows = [b"", *(b",%.10f,%%s\n" % (j / cells) for j in range(cells + 1))]
        write((b"%.10f" % time).join(rows) % nodes((template % tuple(values)).split(b",")))

    return add


def _discard(paths: list):
    """An ``ExitStack`` exit callback: on an error, unlink ``paths`` and return None, so the error goes on."""
    def discard(kind, value, traceback) -> None:
        if kind is not None:
            for path in paths:
                path.unlink(missing_ok=True)

    return discard


def _create(stack: ExitStack, out: Path, headers: dict[str, bytes] = OUTPUTS) -> list:
    """Make ``out`` and open the files ``headers`` names (a run's, sweep's
    or compare's) for writing, in that order, on ``stack``, each buffered
    by _BUFFER bytes.  Each header is written and flushed as its file
    opens, so a file that cannot take it fails before any row is made.
    Beneath them goes a ``_discard`` of them: if the stack unwinds with
    an error, every file opened here goes."""
    out.mkdir(parents=True, exist_ok=True)
    paths, files = [], []
    stack.push(_discard(paths))
    for name, header in headers.items():
        file = stack.enter_context((out / name).open("wb", buffering=_BUFFER))
        paths.append(out / name)
        file.write(header)
        file.flush()
        files.append(file)
    return files


def emit_outputs(traj: Trajectory, report: ErrorReport, out_dir: Path | str,
                 opened: tuple[ExitStack, list] | None = None) -> list[Path]:
    """Write switches.csv, mass.csv, snapshots.csv and report.json.

    Times, masses and field values are printed with 10 decimal places and
    ``bound`` as its shortest round-trip repr; rows ascend in time.  Each
    file has one printf-style byte template, built once, and is streamed
    over its rows, never joined whole in memory.  Files are binary, so
    every line ends in a bare newline on every platform.

    ``opened`` is ``(stack, files)``: the ``ExitStack`` on which
    ``_create`` opened the four files, and those files, into which the
    run has already printed its snapshots; the stack unwinds once the
    rest is written.  Without ``opened``, ``_create`` opens the files
    here, and the trajectory's snapshots are printed by the same
    snapshot sink.  All snapshots must share one spatial grid of at
    least two nodes, as those of one run do: ValueError otherwise, before
    any file is opened.  Raises OSError on unwritable paths.  If anything
    fails, none of the four files is left.
    """
    out = Path(out_dir)
    stack, files = opened or (ExitStack(), None)
    with stack:
        if files is None:
            nodes = len(traj.snapshots[0].values) if traj.snapshots else 0
            if any(len(snap.values) != nodes for snap in traj.snapshots):
                raise ValueError("all snapshots must share one spatial grid")
            if nodes == 1:
                raise ValueError("a snapshot needs at least two nodes, the grid's ends")
            files = _create(stack, out)
            add = _open_snapshot_sink(nodes - 1, files[2])
            for values, time in traj.snapshots:
                add(values, time)
        switches, mass_csv, _, entries = files
        _switch_writer(switches, entries, report)
        mass_csv.writelines(map(b"%.10f,%.10f,%d\n".__mod__, zip(traj.times, traj.masses, traj.fluxes)))
    written = [out / name for name in OUTPUTS]
    _info("wrote %s", ", ".join(str(p) for p in written))
    return written


def _load_mapping(config_path: str, overrides: list[str] | None) -> dict:
    try:
        text = Path(config_path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"cannot read {config_path}: {exc}") from exc
    raw = _json_object(text)
    for item in overrides or []:
        key, sep, value = item.partition("=")
        if not (key and sep):
            raise ConfigError(item, "override must look like key=value")
        try:
            raw[key] = _json_value(value, key)
        except json.JSONDecodeError:
            raw[key] = value
    return raw


def _run_and_emit(run_config: RunConfig, out: Path | str) -> Trajectory:
    """Run and emit the four files, all in this process.  All four are
    opened, and their headers written, first, so an unwritable one fails
    before the first step.  Each snapshot is printed as the run takes it,
    as the run's mirror half U_0..U_{J//2}.  Once the run ends, its
    switches are paired with their closed-form times and written, and so
    is mass.csv.  A failed run or emit leaves none of the four files."""
    out = Path(out)
    with ExitStack() as stack:
        files = _create(stack, out)
        traj = run(run_config, _open_snapshot_sink(run_config.grid.cells, files[2]))
        emit_outputs(traj, compare_with_oracle(traj, run_config), out, (stack.pop_all(), files))
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
    print(f"switch spacing: {switch_spacing(control):.10f}")
    print("k,t_k")
    for k in range(1, count + 1):
        print(f"{k},{switch_time(k, control):.10f}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    run_config = config_from_mapping(_load_mapping(args.config, args.set))
    if not isinstance(run_config.mode, FixedGrid):
        raise ConfigError("mode", "compare runs both quadratures and requires fixed mode")
    out = Path(args.out)
    control, grid, _, mode, stride = run_config
    reports = []
    with ExitStack() as stack:  # compare.json first, so an unwritable one fails before the runs
        (compare_json,) = _create(stack, out, {"compare.json": b""})
        for kind in (QuadratureKind.RIEMANN_INTERIOR, QuadratureKind.TRAPEZOID):
            # a new RunConfig, not _replace, so that the variant is validated
            variant = RunConfig(control, grid, kind, mode, stride)
            _run_and_emit(variant, out / kind.value)
            stack.push(_discard([out / kind.value / name for name in OUTPUTS]))
            # each report.json, less its final newline, two spaces in under its key
            text = (out / kind.value / "report.json").read_bytes()[:-1].replace(b"\n", b"\n  ")
            reports.append(b'  "%s": %s' % (kind.value.encode(), text))
        compare_json.write(b"{\n%s\n}\n" % b",\n".join(reports))
        compare_json.flush()  # a full disk fails here, where the runs' files are still removed
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

    if raw.get("mode", "fixed") != "fixed":  # else the N injected here is the one rejected
        raise ConfigError("mode", "sweep varies N and requires fixed mode")
    run_configs = [config_from_mapping({**raw, "N": steps}) for steps in step_counts]
    rows = []
    for run_config in run_configs:
        traj = run(run_config, lambda values, time: None)  # sweep writes no snapshots
        report = compare_with_oracle(traj, run_config)
        rows.append({"N": run_config.mode.steps, "dt": run_config.mode.stages(run_config.control)[0].dt,
                     "events": len(report.events), "max_abs_err": report.max_abs_error,
                     "all_within_bound": all(r.within_bound for r in report.events)})

    out = Path(args.out)
    with ExitStack() as stack:  # after the last run, so a failed sweep leaves no directory
        sweep_csv, sweep_json = _create(stack, out, {"sweep.csv": b"N,dt,events,max_abs_err,all_within_bound\n",
                                                     "sweep.json": b""})
        sweep_csv.writelines(b"%d,%r,%d,%s,%s\n" % (
            row["N"], row["dt"], row["events"], b"" if row["max_abs_err"] is None else b"%.10f" % row["max_abs_err"],
            b"true" if row["all_within_bound"] else b"false") for row in rows)
        sweep_json.write(json.dumps(rows, indent=2).encode() + b"\n")
    print(f"sweep over N={step_counts} written to {out}")
    return 0


def _log_level(name: str) -> int:
    """The ``logging`` level that MASSGATE_LOG names: ERROR, INFO or DEBUG."""
    return {"error": 40, "info": 20, "debug": 10}.get(name.lower(), 40)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="massgate",
                                     description="Simulate 1D diffusion with threshold-switched boundary flux.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_out: bool = True) -> None:
        p.add_argument("--config", required=True, help="path to a JSON config file")
        if with_out:
            p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key (repeatable)")

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
    args = build_parser().parse_args(argv)
    level = _log_level(os.environ.get("MASSGATE_LOG", "error"))
    # massgate logs only at INFO and DEBUG, so at ERROR importing logging
    # (about 10 ms) is skipped.  Else the massgate logger gets the level and
    # a stderr handler for this call alone: the caller's logging is untouched.
    log = None
    if level < 40:
        import logging
        log = logging.getLogger("massgate")
        previous = log.level
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        log.addHandler(handler)
        log.setLevel(level)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError and every other library ValueError
        print(f"massgate: config error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # the field of a huge J, or the per-step columns of a huge step count
        detail = str(exc) or "the field or the per-step columns do not fit"
        print(f"massgate: config error: out of memory: {detail}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:  # overflow and zero division at extreme values
        print(f"massgate: config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"massgate: io error: {exc}", file=sys.stderr)
        return 1
    finally:
        if log is not None:
            log.removeHandler(handler)
            log.setLevel(previous)


if __name__ == "__main__":
    sys.exit(main())
