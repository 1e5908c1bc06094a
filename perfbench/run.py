"""End-to-end benchmark of `massgate run` on four named workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload long_narrow --seed 0 --seconds 30 --trace 0

Each repetition runs the CLI in a fresh single-threaded child process
(`child.py`), because a CLI user pays for imports and process memory on
every run.  Untraced runs (--trace 0) report the end-to-end metrics;
traced runs (--trace 1) alternate untraced and traced repetitions and
report per-layer calls, inclusive and self time from spans recorded
around each module's public functions, plus the tracing overhead.
Every repetition's outputs are checked by `checks.py`, which does not use
the code under test.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

Seed 0 runs the nominal configs.  Other seeds scale alpha, m and M by
one common factor within +-2% of nominal.  That keeps every closed-form
switch time t_k = k + 1 where it is, so every seed runs the same number
of steps against the same expected switches, while the field, the
diffusion number and the rounding differ; every check holds for any
seed.  See README.md for the workloads, the layers each one loads and
the known defects.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from child import HOOKS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
CALIB = HERE / "calib.py"
WORK = ROOT / ".perfbench_work"

CHILD_TIMEOUT_S = 120
# Wall time of calib.py at the reference machine speed.  Every reported
# time is divided by the speed factor of the cycle it was measured in
# (Bench.run, README.md "Machine speed").
CALIB_REFERENCE_S = 0.5
MIN_CYCLES = 3
PERTURBATION = 0.02
NOMINAL = {"m": 0.1, "M": 0.2, "alpha": 0.05}

LONG_NARROW = {"mode": "fixed", "quadrature": "trapezoid", "horizon": 10.0, "J": 50, "N": 20000}
WORKLOADS = {
    "long_narrow": LONG_NARROW,
    "wide": {**LONG_NARROW, "J": 10000, "N": 200},
    "snapshot_emit": {**LONG_NARROW, "snapshot_stride": 1},
    "adaptive_dense": {
        "mode": "adaptive", "quadrature": "riemann", "horizon": 10000.0, "J": 50, "N0": 2, "Nstage": 2,
    },
}
# Solve bytes are computed, not measured: per unknown, the Thomas sweep
# reads three diagonals and the right-hand side and writes the solution,
# all float64.
SOLVE_BYTES_PER_ROW = 5 * 8


def workload_config(name: str, seed: int) -> dict:
    """The CLI config of a workload; seed 0 is nominal."""
    scale = 1.0 if seed == 0 else 1.0 + random.Random(seed).uniform(-PERTURBATION, PERTURBATION)
    return {**{k: v * scale for k, v in NOMINAL.items()}, **WORKLOADS[name]}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", MASSGATE_LOG="error"
    )
    return env


@dataclass
class Child:
    """One finished child process."""

    rc: int
    wall_s: float
    setup_s: float | None
    rss_mb: float
    log: str


def spawn(script: list[str], prefix: str) -> Child:
    """Run a Python script in a child process and time it from spawn to exit.

    A script that writes PREFIX.json with a `setup_end` reading of the
    monotonic clock also gets its set-up time measured from the spawn.
    """
    argv = [sys.executable, *script]
    env = child_env()
    with open(prefix + ".log", "wb") as log:
        actions = [(os.POSIX_SPAWN_DUP2, log.fileno(), 1), (os.POSIX_SPAWN_DUP2, log.fileno(), 2)]
        t0 = time.monotonic()
        pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], CHILD_TIMEOUT_S)
            if not ready:
                os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
            t1 = time.monotonic()
        finally:
            os.close(pidfd)
    rc = os.waitstatus_to_exitcode(status) if ready else -signal.SIGKILL
    try:
        with open(prefix + ".json", encoding="utf-8") as f:
            result = json.load(f)
    except (OSError, ValueError):
        result = {}
    setup_end = result.get("setup_end")
    with open(prefix + ".log", encoding="utf-8", errors="replace") as f:
        text = f.read()
    return Child(
        rc=rc,
        wall_s=t1 - t0,
        setup_s=None if setup_end is None else setup_end - t0,
        rss_mb=usage.ru_maxrss / 1024.0,
        log=text[-2000:],
    )


def layer_totals(npz_path: str) -> dict[str, tuple[int, float, float]]:
    """Per span name: calls, inclusive seconds, self seconds."""
    with np.load(npz_path) as z:
        names, name, start, end, parent = (z[k] for k in ("names", "name", "start", "end", "parent"))
    dur = end - start
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    self_time = dur - children
    count = len(names)
    calls = np.bincount(name, minlength=count)
    incl = np.bincount(name, weights=dur, minlength=count)
    own = np.bincount(name, weights=self_time, minlength=count)
    return {str(n): (int(calls[i]), float(incl[i]), float(own[i])) for i, n in enumerate(names)}


@dataclass
class Rep:
    """One checked `massgate run` repetition."""

    kind: str
    child: Child
    outcome: checks.Outcome
    layers: dict = field(default_factory=dict)
    # Speed factor of the cycle the repetition ran in (see Bench.run).
    speed: float = 1.0
    # Set-up time of the probe that ran in the same cycle.
    setup_probe: float | None = None

    @property
    def steps(self) -> int:
        return self.outcome.counts.get("mass_rows", 0)


class Bench:
    """Runs and checks the repetitions of one workload."""

    def __init__(self, workload: str, cfg: dict, work: str):
        self.workload = workload
        self.cfg = cfg
        self.work = work
        self.config_path = os.path.join(work, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as f:
            json.dump(cfg, f)
        self.ref = checks.reference_fixed(cfg) if cfg["mode"] == "fixed" else None
        self.reps: list[Rep] = []
        self.errors: list[str] = []
        self._serial = 0

    def _paths(self) -> tuple[str, str]:
        self._serial += 1
        return os.path.join(self.work, f"out{self._serial}"), os.path.join(self.work, f"r{self._serial}")

    def massgate(self, config_path: str, mode: str) -> tuple[Child, str, str]:
        out, prefix = self._paths()
        return spawn([str(CHILD), str(SRC), config_path, out, prefix, mode], prefix), out, prefix

    def calibrate(self) -> float:
        _, prefix = self._paths()
        child = spawn([str(CALIB)], prefix)
        if child.rc != 0:
            raise RuntimeError(f"calib.py exited with {child.rc}: {child.log}")
        return child.wall_s

    def smoke(self) -> None:
        """Run the reference config once; this also warms the bytecode cache."""
        path = os.path.join(self.work, "reference.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(checks.REFERENCE_CONFIG, f)
        child, out, _ = self.massgate(path, "plain")
        ref = checks.reference_fixed(checks.REFERENCE_CONFIG)
        outcome = checks.check_run(checks.REFERENCE_CONFIG, out, child.rc, ref)
        self.errors += [f"reference run: {e}" for e in outcome.errors]
        shutil.rmtree(out, ignore_errors=True)

    def probe_setup(self) -> float | None:
        child, _, _ = self.massgate(self.config_path, "setup")
        if child.rc != 0 or child.setup_s is None:
            self.errors.append(f"set-up probe exited with {child.rc}: {child.log}")
            return None
        return child.setup_s

    def rep(self, kind: str) -> Rep:
        child, out, prefix = self.massgate(self.config_path, kind)
        outcome = checks.check_run(self.cfg, out, child.rc, self.ref)
        shutil.rmtree(out, ignore_errors=True)
        rep = Rep(kind, child, outcome)
        if outcome.errors:
            self.errors += [f"{kind} run {len(self.reps) + 1}: {e}" for e in outcome.errors]
            if child.rc != 0:
                self.errors.append(child.log)
        if child.setup_s is None:
            self.errors.append(f"{kind} run {len(self.reps) + 1}: set-up end not recorded")
        if kind == "trace" and os.path.exists(prefix + ".npz"):
            rep.layers = layer_totals(prefix + ".npz")
        self._require_same_counts(rep)
        self.reps.append(rep)
        return rep

    def _require_same_counts(self, rep: Rep) -> None:
        """Exact counts must repeat; a mismatch means the run is not deterministic."""
        if not self.reps:
            return
        first = self.reps[0]
        same_kind = next((r for r in self.reps if r.kind == rep.kind), rep)
        if (
            first.outcome.counts != rep.outcome.counts
            or first.outcome.switches_failed != rep.outcome.switches_failed
            or _calls(same_kind) != _calls(rep)
        ):
            raise NonDeterministic(
                f"{self.workload}: exact counts differ between repetitions: "
                f"{first.outcome.counts} vs {rep.outcome.counts}, "
                f"failed switches {first.outcome.switches_failed} vs {rep.outcome.switches_failed}, "
                f"calls {_calls(same_kind)} vs {_calls(rep)}"
            )

    def run(self, seconds: float, trace: bool) -> None:
        """Repeat cycles for `seconds`, each between two calibration runs.

        A cycle's speed factor is the mean of the calibration times just
        before and just after it, over CALIB_REFERENCE_S.  This machine's
        speed swings by tens of percent within seconds, and every time of
        the cycle is divided by the factor measured around it.
        """
        deadline = time.monotonic() + seconds
        kinds = ("plain", "trace") if trace else ("plain",)
        cycles = 0
        before = self.calibrate()
        while True:
            started = time.monotonic()
            reps = [self.rep(kind) for kind in kinds]
            reps[0].setup_probe = self.probe_setup()
            after = self.calibrate()
            for rep in reps:
                rep.speed = (before + after) / (2.0 * CALIB_REFERENCE_S)
            before = after
            cycles += 1
            now = time.monotonic()
            if cycles >= MIN_CYCLES and now + (now - started) > deadline:
                break


class NonDeterministic(RuntimeError):
    """Counts that must repeat exactly differed between repetitions."""


def _calls(rep: Rep) -> dict[str, int]:
    return {name: totals[0] for name, totals in rep.layers.items()}


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(bench: Bench) -> dict:
    """Untraced medians; times are at the reference machine speed."""
    plain = [r for r in bench.reps if r.kind == "plain" and r.child.setup_s is not None]
    setups = [t / r.speed for r in plain for t in (r.child.setup_s, r.setup_probe) if t is not None]
    return {
        "wall_s": (_median(r.child.wall_s / r.speed for r in plain), "s"),
        "setup_s": (_median(setups), "s"),
        "steps_per_s": (_median(r.steps * r.speed / (r.child.wall_s - r.child.setup_s) for r in plain), "1/s"),
        "peak_rss_mb": (_median(r.child.rss_mb for r in plain), "MiB"),
    }


def per_layer(bench: Bench) -> tuple[dict, list[str]]:
    """Traced medians and exact counts; times are at the reference machine speed."""
    traced = [r for r in bench.reps if r.kind == "trace"]
    plain = [r for r in bench.reps if r.kind == "plain"]
    first = traced[0]
    counts = first.outcome.counts
    metrics: dict = {}
    absent = [name for name, _, _ in HOOKS if name not in first.layers]
    for name, _, _ in HOOKS:
        if name in absent:
            continue
        metrics[f"{name}.calls"] = (first.layers[name][0], "count")
        metrics[f"{name}.s"] = (_median(r.layers[name][1] / r.speed for r in traced), "s")
        metrics[f"{name}.self_s"] = (_median(r.layers[name][2] / r.speed for r in traced), "s")
    if "cli.emit_outputs" not in absent:
        metrics["cli.emit_outputs.bytes"] = (counts["bytes"], "bytes")
        metrics["cli.emit_outputs.rows"] = (
            counts["mass_rows"] + counts["switch_rows"] + counts["snapshot_rows"], "rows"
        )
    if "tridiag.solve" not in absent:
        rows = first.layers["tridiag.solve"][0] * (bench.cfg["J"] - 1)
        metrics["tridiag.solve.rows"] = (rows, "rows")
        metrics["tridiag.solve.bytes_computed"] = (rows * SOLVE_BYTES_PER_ROW, "bytes")
    metrics["controller.switches"] = (counts["switch_rows"], "count")
    metrics["switch_fail_frac"] = (first.outcome.switch_fail_frac, "ratio")
    # Each cycle runs one untraced and one traced repetition back to back.
    overhead = _median((t.child.wall_s - p.child.wall_s) / t.speed for p, t in zip(plain, traced))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, absent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "massgate" / "cli.py").is_file():
        print(f"perfbench: no massgate source at {SRC}", file=sys.stderr)
        return 2
    smoke = checks.smoke_reference_table()
    if smoke:
        print(f"perfbench: reference implementation is wrong: {smoke}", file=sys.stderr)
        return 2

    cfg = workload_config(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed}: {json.dumps(cfg)}")
    WORK.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK)
    try:
        bench = Bench(args.workload, cfg, work)
        bench.smoke()
        bench.run(args.seconds, bool(args.trace))
    except NonDeterministic as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    for err in bench.errors:
        print(f"CHECK FAILED: {err}")
    kind = "trace" if args.trace else "plain"
    reps = [r for r in bench.reps if r.kind == kind]
    print(
        f"medians over {len(reps)} {kind} repetitions; median speed factor "
        f"{_median(r.speed for r in reps):.4f}; unscaled median wall {_median(r.child.wall_s for r in reps):.4f} s"
    )
    outcome = reps[0].outcome
    print(
        f"switch_fail_frac {outcome.switch_fail_frac:.6f} ratio "
        f"({outcome.switches_failed} of {outcome.switches_expected} expected switches)"
    )
    if args.trace:
        metrics, absent = per_layer(bench)
        for name in absent:
            print(f"layer absent: {name}")
    else:
        metrics = end_to_end(bench)
    samples = {"setup_s": sum(1 + (r.setup_probe is not None) for r in reps)}
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:>16.6f} {unit} (n={samples.get(name, len(reps))})")

    failed = sum(1 for r in bench.reps if r.outcome.errors)
    result = {
        "correct": not bench.errors,
        "attempted": len(bench.reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
