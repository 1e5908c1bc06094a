"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import time

import numpy as np

from massgate.analytic import ControlConfig, switch_spacing, switch_time
from massgate.cli import main as cli_main
from massgate.quadrature import QuadratureKind, mass
from massgate.runner import (
    AdaptiveGrid,
    FixedGrid,
    RunConfig,
    compare_with_oracle,
    run,
)
from massgate.stepper import FluxSign, GridSpec, assemble, solve, step

REFERENCE_SWITCH_TIMES = [1.95, 2.90, 3.85, 4.80, 5.75, 6.70, 7.65, 8.60, 9.55]


def _finish(label: str, failures: list[str]) -> None:
    print(f"[acceptance] {label}: {'PASS' if not failures else 'FAIL'}")
    assert not failures, f"{label}: " + " | ".join(failures[:5])


def reference_config(quadrature: QuadratureKind, steps: int = 200, stride: int = 0) -> RunConfig:
    control = ControlConfig(lower=0.1, upper=0.2, diffusivity=0.05, horizon=10.0)
    return RunConfig(
        control=control,
        grid=GridSpec(cells=50),
        quadrature=quadrature,
        mode=FixedGrid(steps=steps),
        snapshot_stride=stride,
    )


def test_criterion_1_reference_switch_table():
    failures: list[str] = []
    started = time.perf_counter()
    cfg = reference_config(QuadratureKind.TRAPEZOID)
    traj = run(cfg)
    elapsed = time.perf_counter() - started

    times = [ev.time for ev in traj.events]
    if len(times) != 9:
        failures.append(f"expected 9 switches, got {len(times)}")
    for got, expected in zip(times, REFERENCE_SWITCH_TIMES):
        if abs(got - expected) > 5e-5:  # equality to 4 decimal places
            failures.append(f"switch at {got:.6f}, expected {expected:.4f}")
    dt = cfg.mode.stages(cfg.control)[0].dt
    for a, b in zip(times, times[1:]):
        if abs((b - a) - 0.95) > 1e-12:
            failures.append(f"spacing {b - a!r} != 0.95")
        if round((b - a) / dt) != 19:
            failures.append(f"spacing {b - a!r} is not 19 grid steps")
    if elapsed > 1.0:
        failures.append(f"run took {elapsed:.2f}s, expected well under 1s")
    _finish("criterion 1 (reference switch table)", failures)


def test_criterion_2_closed_form_switch_times():
    failures: list[str] = []
    rng = np.random.default_rng(20240902)
    for _ in range(100):
        upper = float(rng.uniform(0.05, 2.0))
        lower = upper * float(rng.uniform(0.1, 0.9))
        control = ControlConfig(lower=lower, upper=upper, diffusivity=1.0, horizon=10.0)
        checks = [
            (switch_time(1, control), upper / 2.0, "t_1"),
            (switch_time(2, control), upper - lower / 2.0, "t_2"),
            (switch_time(3, control), 1.5 * upper - lower, "t_3"),
            (switch_spacing(control), (upper - lower) / 2.0, "spacing"),
        ]
        for k in range(2, 11):
            checks.append(
                (switch_time(k, control) - switch_time(k - 1, control), (upper - lower) / 2.0,
                 f"t_{k} - t_{k - 1}")
            )
        for got, expected, label in checks:
            if abs(got - expected) > 1e-12:
                failures.append(f"{label}: {got!r} vs {expected!r} (m={lower}, M={upper})")
    _finish("criterion 2 (closed-form switch times)", failures)


def test_criterion_3_interior_mass_identity():
    failures: list[str] = []
    rng = np.random.default_rng(55)
    for _ in range(100):
        cells = int(rng.integers(2, 81))
        grid, dt = GridSpec(cells=cells), float(rng.uniform(1e-4, 0.5))
        alpha = float(rng.uniform(0.01, 10.0))
        flux = FluxSign.INFLOW if rng.integers(2) else FluxSign.OUTFLOW
        state = rng.uniform(-1.0, 1.0, cells + 1)
        before = mass(state, grid, QuadratureKind.RIEMANN_INTERIOR)
        after = mass(step(state, flux, assemble(grid, dt, alpha)), grid, QuadratureKind.RIEMANN_INTERIOR)
        expected = 2.0 * alpha * dt * float(flux)
        if abs((after - before) - expected) > 1e-11:
            failures.append(
                f"increment {after - before!r} vs {expected!r} "
                f"(J={cells}, dt={dt}, alpha={alpha}, s={int(flux)})"
            )
    _finish("criterion 3 (interior mass identity)", failures)


def test_criterion_4_adaptive_grid_exactness():
    failures: list[str] = []
    rng = np.random.default_rng(8675309)
    for alpha in (1.0, 0.05):
        for _ in range(8):
            upper = float(rng.uniform(0.05, 1.0))
            lower = upper * float(rng.uniform(0.15, 0.9))
            probe = ControlConfig(lower=lower, upper=upper, diffusivity=alpha, horizon=1.0)
            horizon = switch_time(10, probe) + 0.4 * switch_spacing(probe)
            control = ControlConfig(lower=lower, upper=upper, diffusivity=alpha, horizon=horizon)
            mode = AdaptiveGrid(
                first_stage_steps=int(rng.integers(1, 13)),
                stage_steps=int(rng.integers(1, 13)),
            )
            cells = int(rng.integers(2, 41))
            cfg = RunConfig(
                control=control,
                grid=GridSpec(cells=cells),
                quadrature=QuadratureKind.RIEMANN_INTERIOR,
                mode=mode,
            )
            traj = run(cfg)
            if len(traj.events) < 10:
                failures.append(f"only {len(traj.events)} switches (alpha={alpha})")
                continue
            for ev in traj.events[:10]:
                expected = switch_time(ev.index, control)
                if abs(ev.time - expected) > 1e-10:
                    failures.append(
                        f"switch {ev.index} at {ev.time!r}, closed form {expected!r} "
                        f"(alpha={alpha}, m={lower}, M={upper}, mode={mode})"
                    )
    _finish("criterion 4 (adaptive-grid exactness)", failures)


def test_criterion_5a_switch_lag_ladder_randomized():
    # As specified, each switch must lag its closed-form time by less than
    # k * dt.  The implementation genuinely violates this for generic
    # configurations: the step that detects a crossing overshoots the
    # threshold by up to one mass increment, and the overshoot has to be
    # traversed again after the flip, so each stage can add up to 2 * dt
    # of lag (the attained bound is (2k - 1) * dt, covered by the runner
    # tests).  Worked example: rate 1, dt 1, thresholds 0.5/2.01 gives
    # T_2 - t_2 = 2.48 >= 2 * dt.  Kept failing rather than weakened.
    failures: list[str] = []
    rng = np.random.default_rng(2)
    for _ in range(30):
        upper = float(rng.uniform(0.05, 0.8))
        lower = upper * float(rng.uniform(0.15, 0.85))
        alpha = float(rng.uniform(0.02, 2.0))
        probe = ControlConfig(lower=lower, upper=upper, diffusivity=alpha, horizon=1.0)
        horizon = float(switch_time(6, probe) * rng.uniform(1.0, 1.3))
        control = ControlConfig(lower=lower, upper=upper, diffusivity=alpha, horizon=horizon)
        steps = int(rng.integers(100, 800))
        cfg = RunConfig(
            control=control,
            grid=GridSpec(cells=30),
            quadrature=QuadratureKind.RIEMANN_INTERIOR,
            mode=FixedGrid(steps=steps),
        )
        report = compare_with_oracle(run(cfg), cfg)
        for row in report.events:
            if not (-1e-9 <= row.error < row.bound):
                failures.append(
                    f"switch {row.index}: lag {row.error:.6g} outside [0, {row.bound:.6g}) "
                    f"(m={lower:.4g}, M={upper:.4g}, alpha={alpha:.4g}, N={steps})"
                )
    _finish("criterion 5a (switch-lag ladder, randomized)", failures)


def test_criterion_5b_reference_lag_nonincreasing_over_refinement():
    failures: list[str] = []
    worst = []
    for steps in (200, 400, 800):
        cfg = reference_config(QuadratureKind.RIEMANN_INTERIOR, steps=steps)
        report = compare_with_oracle(run(cfg), cfg)
        if not report.events:
            failures.append(f"no switches at N={steps}")
            continue
        for row in report.events:
            if not (-1e-9 <= row.error < row.bound):
                failures.append(f"N={steps} switch {row.index} lag {row.error!r} outside bound")
        worst.append(report.max_abs_error)
    for a, b in zip(worst, worst[1:]):
        if b > a + 1e-12:
            failures.append(f"max lag increased under refinement: {a!r} -> {b!r}")
    _finish("criterion 5b (lag non-increasing over refinement)", failures)


def test_criterion_6_known_trapezoid_discrepancy_is_reported(tmp_path):
    failures: list[str] = []
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"m": 0.1, "M": 0.2, "alpha": 0.05, "horizon": 10, "J": 50, "N": 200}),
        encoding="utf-8",
    )
    out = tmp_path / "cmp"
    code = cli_main(["compare", "--config", str(config_path), "--out", str(out)])
    if code != 0:
        failures.append(f"compare exited with {code}, expected a report instead of a failure")
    else:
        lines = (out / "trapezoid" / "switches.csv").read_text(encoding="utf-8").splitlines()
        expected_row = "1,1.9500000000,2.0000000000,-0.0500000000,0.05,false"
        if lines[1] != expected_row:
            failures.append(f"first switch row {lines[1]!r}, expected {expected_row!r}")
        payload = json.loads((out / "compare.json").read_text(encoding="utf-8"))
        first = payload["trapezoid"]["events"][0]
        if first["within_bound"] is not False:
            failures.append("trapezoid first switch should be flagged within_bound=false")
        if abs(first["err"] + 0.05) > 1e-12:
            failures.append(f"trapezoid first lag {first['err']!r}, expected -0.05")
    _finish("criterion 6 (known trapezoid discrepancy reported)", failures)


def test_criterion_7_property_bundle():
    failures: list[str] = []
    rng = np.random.default_rng(424242)

    # tridiagonal solve of the step matrix against a dense LU oracle
    worst = 0.0
    for _ in range(1000):
        cells = int(rng.integers(3, 22))
        nu = float(10.0 ** rng.uniform(-4.0, 3.0))
        matrix = assemble(GridSpec(cells=cells), nu / cells**2, 1.0)
        n = cells - 1
        laplacian = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        laplacian[0, 0] = laplacian[-1, -1] = 1.0
        rhs = rng.uniform(-5.0, 5.0, n)
        dense = np.linalg.solve(np.eye(n) + matrix.nu * laplacian, rhs)
        worst = max(worst, float(np.max(np.abs(solve(matrix, rhs) - dense))))
    if worst > 1e-10:
        failures.append(f"solver vs dense oracle max-norm {worst!r} > 1e-10")

    # mirror-symmetry preservation of one implicit step
    for cells in (6, 25):
        half = rng.uniform(-1.0, 1.0, cells // 2 + 1)
        values = np.concatenate([half, half[: (cells + 1) // 2][::-1]])
        grid = GridSpec(cells=cells)
        for flux in (FluxSign.INFLOW, FluxSign.OUTFLOW):
            out = np.asarray(step(values, flux, assemble(grid, 0.02, 0.8)))
            gap = float(np.max(np.abs(out - out[::-1])))
            if gap > 1e-12:
                failures.append(f"mirror symmetry broken by {gap!r} (J={cells}, s={int(flux)})")

    # quadrature difference identity
    for cells in (2, 17, 50):
        grid = GridSpec(cells=cells)
        for _ in range(50):
            state = rng.uniform(-1.0, 1.0, cells + 1)
            trap = mass(state, grid, QuadratureKind.TRAPEZOID)
            riem = mass(state, grid, QuadratureKind.RIEMANN_INTERIOR)
            expected = 0.5 * grid.dx * (state[0] + state[-1])
            if abs(trap - riem - expected) > 1e-14:
                failures.append(f"quadrature identity off by {trap - riem - expected!r}")

    # trajectory determinism, bit-identical reruns
    cfg = reference_config(QuadratureKind.TRAPEZOID, stride=7)
    first, second = run(cfg), run(cfg)
    if not (
        np.array_equal(first.times, second.times)
        and np.array_equal(first.masses, second.masses)
        and np.array_equal(first.fluxes, second.fluxes)
        and first.events == second.events
        and all(np.array_equal(a.values, b.values) for a, b in zip(first.snapshots, second.snapshots))
    ):
        failures.append("identical configs produced different trajectories")

    _finish("criterion 7 (property bundle)", failures)


def test_criterion_8_phase_shape_checks():
    # Stand-ins for the qualitative plots: within a pumping phase the field
    # max rises step over step (after the first 3 steps of the phase),
    # within a draining phase it falls, and the midpoint trace repeats
    # with period 2 * switch spacing up to the grid resolution.
    failures: list[str] = []
    for quadrature in (QuadratureKind.TRAPEZOID, QuadratureKind.RIEMANN_INTERIOR):
        cfg = reference_config(quadrature, stride=1)
        traj = run(cfg)
        fluxes = traj.fluxes
        boundaries = [0] + [i + 1 for i in range(len(fluxes) - 1) if fluxes[i + 1] != fluxes[i]]
        boundaries.append(len(fluxes))
        for start, stop in zip(boundaries, boundaries[1:]):
            maxima = [float(np.asarray(s.values).max()) for s in traj.snapshots[start:stop]][3:]
            steps_in = np.diff(maxima)
            if fluxes[start] == 1 and not np.all(steps_in > 0):
                failures.append(f"{quadrature.value}: pumping max not rising at step {start}")
            if fluxes[start] == -1 and not np.all(steps_in < 0):
                failures.append(f"{quadrature.value}: draining max not falling at step {start}")

    cfg = reference_config(QuadratureKind.RIEMANN_INTERIOR, stride=1)
    traj = run(cfg)
    midpoint = np.array([s.values[25] for s in traj.snapshots])
    peaks = [
        i for i in range(1, len(midpoint) - 1)
        if midpoint[i] > midpoint[i - 1] and midpoint[i] >= midpoint[i + 1]
    ]
    if len(peaks) < 3:
        failures.append(f"expected several midpoint peaks, found {len(peaks)}")
    separations = np.diff(np.asarray(traj.times)[peaks])
    period = 2.0 * switch_spacing(cfg.control)
    dt = cfg.mode.stages(cfg.control)[0].dt
    for sep in separations:
        if abs(sep - period) > 2.0 * dt + 1e-9:
            failures.append(f"midpoint peaks {sep!r} apart, expected {period} +- {2 * dt}")
    _finish("criterion 8 (phase shape checks)", failures)
