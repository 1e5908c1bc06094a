import logging

import numpy as np
import pytest

from massgate.analytic import ControlConfig, switch_spacing, switch_time
from massgate.controller import SwitchEvent
from massgate.quadrature import QuadratureKind
from massgate.runner import (
    AdaptiveGrid,
    FixedGrid,
    RunConfig,
    Trajectory,
    compare_with_oracle,
    run,
)
from massgate.stepper import GridSpec

REFERENCE_SWITCH_TIMES = [1.95, 2.90, 3.85, 4.80, 5.75, 6.70, 7.65, 8.60, 9.55]


def reference_config(quadrature: QuadratureKind, stride: int = 0) -> RunConfig:
    control = ControlConfig(lower=0.1, upper=0.2, diffusivity=0.05, horizon=10.0)
    return RunConfig(
        control=control,
        grid=GridSpec(cells=50),
        quadrature=quadrature,
        mode=FixedGrid(steps=200),
        snapshot_stride=stride,
    )


def random_fixed_config(rng: np.random.Generator, crossings: int = 6) -> RunConfig:
    upper = float(rng.uniform(0.05, 0.8))
    lower = upper * float(rng.uniform(0.15, 0.85))
    alpha = float(rng.uniform(0.02, 2.0))
    probe = ControlConfig(lower=lower, upper=upper, diffusivity=alpha, horizon=1.0)
    horizon = float(switch_time(crossings, probe) * rng.uniform(1.05, 1.4))
    control = ControlConfig(lower=lower, upper=upper, diffusivity=alpha, horizon=horizon)
    steps = int(rng.integers(50, 900))
    return RunConfig(
        control=control,
        grid=GridSpec(cells=20),
        quadrature=QuadratureKind.RIEMANN_INTERIOR,
        mode=FixedGrid(steps=steps),
    )


def test_trapezoid_fixed_grid_reproduces_reference_switch_times():
    traj = run(reference_config(QuadratureKind.TRAPEZOID))
    times = [ev.time for ev in traj.events]
    assert len(times) == 9
    assert np.allclose(times, REFERENCE_SWITCH_TIMES, atol=1e-10)
    assert np.allclose(np.diff(times), 0.95, atol=1e-12)


def test_riemann_fixed_grid_detects_exact_grid_hits():
    # Mass increment per step is 0.005, so the upper threshold is hit at
    # step 40 exactly and every 20 steps after that; detected switches are
    # the closed-form ones.
    cfg = reference_config(QuadratureKind.RIEMANN_INTERIOR)
    traj = run(cfg)
    times = [ev.time for ev in traj.events]
    assert len(times) == 9
    assert np.allclose(times, np.arange(2.0, 11.0), atol=1e-11)
    assert np.allclose(np.diff(times), 1.0, atol=1e-12)


def test_single_step_run_without_crossings():
    control = ControlConfig(lower=1.0, upper=5.0, diffusivity=0.05, horizon=10.0)
    cfg = RunConfig(
        control=control,
        grid=GridSpec(cells=10),
        quadrature=QuadratureKind.RIEMANN_INTERIOR,
        mode=FixedGrid(steps=1),
    )
    traj = run(cfg)
    assert len(traj.times) == 1
    assert traj.events == ()


def test_fixed_grid_times_are_exact_step_multiples():
    # Times are stamped from the step index, so a long run does not drift
    # the way a running sum of dt does.
    control = ControlConfig(lower=0.1, upper=0.2, diffusivity=0.05, horizon=10.0)
    steps = 20000
    cfg = RunConfig(
        control=control,
        grid=GridSpec(cells=2),
        quadrature=QuadratureKind.RIEMANN_INTERIOR,
        mode=FixedGrid(steps=steps),
    )
    dt = cfg.mode.stages(control)[0].dt
    assert np.array_equal(run(cfg).times, dt * np.arange(1, steps + 1))


def test_riemann_mass_trace_is_piecewise_linear_in_steps():
    for cfg in (
        reference_config(QuadratureKind.RIEMANN_INTERIOR),
        random_fixed_config(np.random.default_rng(3)),
    ):
        traj = run(cfg)
        rate_dt = 2.0 * cfg.control.diffusivity * cfg.mode.stages(cfg.control)[0].dt
        expected = np.cumsum(rate_dt * np.asarray(traj.fluxes))
        assert np.max(np.abs(np.asarray(traj.masses) - expected)) <= 1e-11


def test_detection_lag_bounds_randomized():
    # Detection is never early, and never later than (2k-1) time steps:
    # up to one step of grid rounding per crossing plus the carried-over
    # threshold overshoot, which costs each crossing's lag a second time.
    rng = np.random.default_rng(12345)
    for _ in range(40):
        cfg = random_fixed_config(rng)
        report = compare_with_oracle(run(cfg), cfg)
        dt = cfg.mode.stages(cfg.control)[0].dt
        assert report.events
        for row in report.events:
            assert row.error >= -1e-9
            assert row.error < (2 * row.index - 1) * dt


def test_detection_lag_vanishes_with_time_refinement():
    control = ControlConfig(lower=0.117, upper=0.233, diffusivity=0.05, horizon=10.0)
    worst = {}
    for steps in (200, 800, 3200):
        cfg = RunConfig(
            control=control,
            grid=GridSpec(cells=50),
            quadrature=QuadratureKind.RIEMANN_INTERIOR,
            mode=FixedGrid(steps=steps),
        )
        report = compare_with_oracle(run(cfg), cfg)
        dt = cfg.mode.stages(cfg.control)[0].dt
        assert len(report.events) == 7
        for row in report.events:
            assert -1e-9 <= row.error < (2 * row.index - 1) * dt
        worst[steps] = report.max_abs_error
    assert worst[3200] < worst[800] < worst[200]
    assert worst[3200] < 0.02


def test_adaptive_grid_reproduces_closed_form_switches():
    control = ControlConfig(lower=0.1, upper=0.2, diffusivity=1.0, horizon=0.25)
    cfg = RunConfig(
        control=control,
        grid=GridSpec(cells=10),
        quadrature=QuadratureKind.RIEMANN_INTERIOR,
        mode=AdaptiveGrid(first_stage_steps=10, stage_steps=5),
    )
    traj = run(cfg)
    assert len(traj.events) >= 3
    for ev, expected_time in zip(traj.events, (0.1, 0.15, 0.2)):
        assert abs(ev.time - expected_time) <= 1e-10
        threshold = control.upper if ev.index % 2 == 1 else control.lower
        assert abs(ev.mass_at_switch - threshold) <= 1e-10


def test_adaptive_event_spacing_matches_closed_form():
    rng = np.random.default_rng(71)
    for _ in range(15):
        upper = float(rng.uniform(0.05, 1.0))
        lower = upper * float(rng.uniform(0.2, 0.9))
        alpha = float(rng.uniform(0.02, 3.0))
        probe = ControlConfig(lower=lower, upper=upper, diffusivity=alpha, horizon=1.0)
        horizon = switch_time(6, probe) + 0.4 * switch_spacing(probe)
        control = ControlConfig(lower=lower, upper=upper, diffusivity=alpha, horizon=horizon)
        cfg = RunConfig(
            control=control,
            grid=GridSpec(cells=12),
            quadrature=QuadratureKind.RIEMANN_INTERIOR,
            mode=AdaptiveGrid(
                first_stage_steps=int(rng.integers(1, 9)),
                stage_steps=int(rng.integers(1, 9)),
            ),
        )
        traj = run(cfg)
        assert len(traj.events) >= 6
        spacings = np.diff([ev.time for ev in traj.events])
        assert np.max(np.abs(spacings - switch_spacing(control))) <= 1e-10


def test_adaptive_schedule_stops_on_switch_at_horizon():
    # With the horizon on the K-th closed-form switch, the run takes the
    # climb plus K - 1 full stages and not one step more, even where the
    # stamped step end rounds just below the horizon.
    rng = np.random.default_rng(404)
    cases = [(2, 2, 0.0989068234375242, 0.1978136468750484, 0.0494534117187621, 9999)]
    for _ in range(60):
        upper = float(rng.uniform(0.05, 1.0))
        cases.append((
            int(rng.integers(1, 13)),
            int(rng.integers(1, 13)),
            upper * float(rng.uniform(0.1, 0.9)),
            upper,
            float(rng.uniform(0.02, 3.0)),
            int(rng.integers(1, 40)),
        ))
    for first, later, lower, upper, alpha, k in cases:
        probe = ControlConfig(lower=lower, upper=upper, diffusivity=alpha, horizon=1.0)
        control = ControlConfig(
            lower=lower, upper=upper, diffusivity=alpha, horizon=switch_time(k, probe)
        )
        stages = AdaptiveGrid(first_stage_steps=first, stage_steps=later).stages(control)
        assert sum(stage.steps for stage in stages) == first + (k - 1) * later

    first, later, lower, upper, alpha, k = cases[1]
    probe = ControlConfig(lower=lower, upper=upper, diffusivity=alpha, horizon=1.0)
    horizon = switch_time(k, probe)
    cfg = RunConfig(
        control=ControlConfig(lower=lower, upper=upper, diffusivity=alpha, horizon=horizon),
        grid=GridSpec(cells=12),
        quadrature=QuadratureKind.RIEMANN_INTERIOR,
        mode=AdaptiveGrid(first_stage_steps=first, stage_steps=later),
    )
    traj = run(cfg)
    assert len(traj.times) == first + (k - 1) * later
    assert traj.events[-1].index == k


def test_adaptive_single_giant_first_step_hits_threshold():
    control = ControlConfig(lower=0.1, upper=0.2, diffusivity=1.0, horizon=0.12)
    cfg = RunConfig(
        control=control,
        grid=GridSpec(cells=8),
        quadrature=QuadratureKind.RIEMANN_INTERIOR,
        mode=AdaptiveGrid(first_stage_steps=1, stage_steps=3),
    )
    traj = run(cfg)
    assert traj.events
    assert abs(traj.events[0].time - switch_time(1, control)) <= 1e-12
    assert abs(traj.events[0].mass_at_switch - control.upper) <= 1e-12


def _past_switch_12(lower, upper):
    probe = ControlConfig(lower=lower, upper=upper, diffusivity=1.0, horizon=1.0)
    return switch_time(12, probe) * (1 + 1e-9)


@pytest.mark.parametrize(
    "lower, upper, alpha, horizon, cells, first, later, count, err_tol",
    [
        pytest.param(0.1, 0.2, 0.05, 10000.0, 50, 2, 2, 9999, 1e-9, id="adaptive_dense"),
        pytest.param(25.0, 50.0, 1.0, _past_switch_12(25.0, 50.0), 20, 997, 613, 12, 1e-9, id="M=50"),
        pytest.param(500.0, 1000.0, 1.0, _past_switch_12(500.0, 1000.0), 20, 997, 613, 12, 1e-9,
                     id="M=1000"),
        # switch times near 1e8, where one ulp is 1.5e-8
        pytest.param(0.1, 0.2, 5e-9, 1e8, 50, 2, 2, 9, 1e-7, id="alpha=5e-9"),
    ],
)
def test_adaptive_switches_match_closed_form_at_any_scale(
    lower, upper, alpha, horizon, cells, first, later, count, err_tol
):
    # Long runs, large thresholds and long switch times: the relay window
    # and the oracle slack must scale with the step to keep every landing.
    cfg = RunConfig(
        control=ControlConfig(lower=lower, upper=upper, diffusivity=alpha, horizon=horizon),
        grid=GridSpec(cells=cells),
        quadrature=QuadratureKind.RIEMANN_INTERIOR,
        mode=AdaptiveGrid(first_stage_steps=first, stage_steps=later),
    )
    report = compare_with_oracle(run(cfg), cfg)
    assert len(report.events) == count
    assert [row.index for row in report.events] == list(range(1, count + 1))
    assert all(row.within_bound for row in report.events)
    assert report.max_abs_error < err_tol


def test_adaptive_requires_interior_riemann_quadrature():
    control = ControlConfig(lower=0.1, upper=0.2, diffusivity=1.0, horizon=0.25)
    with pytest.raises(ValueError):
        RunConfig(
            control=control,
            grid=GridSpec(cells=10),
            quadrature=QuadratureKind.TRAPEZOID,
            mode=AdaptiveGrid(first_stage_steps=10, stage_steps=5),
        )


def test_mode_dispatch():
    fixed = reference_config(QuadratureKind.RIEMANN_INTERIOR)
    control = ControlConfig(lower=0.1, upper=0.2, diffusivity=1.0, horizon=0.25)
    adaptive = RunConfig(
        control=control,
        grid=GridSpec(cells=10),
        quadrature=QuadratureKind.RIEMANN_INTERIOR,
        mode=AdaptiveGrid(first_stage_steps=10, stage_steps=5),
    )
    assert len(run(fixed).events) == 9
    assert len(run(adaptive).events) >= 3


def test_matrix_assembled_once_per_stage_and_solved_once_per_step(monkeypatch):
    import massgate.runner
    import massgate.stepper

    calls = {"assemble": 0, "solve": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(massgate.runner, "assemble", counting("assemble", massgate.runner.assemble))
    monkeypatch.setattr(massgate.stepper, "solve", counting("solve", massgate.stepper.solve))
    control = ControlConfig(lower=0.1, upper=0.2, diffusivity=1.0, horizon=0.25)
    adaptive = RunConfig(
        control=control,
        grid=GridSpec(cells=10),
        quadrature=QuadratureKind.RIEMANN_INTERIOR,
        mode=AdaptiveGrid(first_stage_steps=10, stage_steps=5),
    )
    for cfg, stages in ((reference_config(QuadratureKind.TRAPEZOID), 1), (adaptive, 2)):
        calls.update(assemble=0, solve=0)
        traj = run(cfg)
        assert calls == {"assemble": stages, "solve": len(traj.times)}


def test_runs_are_deterministic():
    cfg = reference_config(QuadratureKind.TRAPEZOID, stride=7)
    first = run(cfg)
    second = run(cfg)
    assert np.array_equal(first.times, second.times)
    assert np.array_equal(first.masses, second.masses)
    assert np.array_equal(first.fluxes, second.fluxes)
    assert first.events == second.events
    assert len(first.snapshots) == len(second.snapshots)
    for a, b in zip(first.snapshots, second.snapshots):
        assert a.time == b.time
        assert np.array_equal(a.values, b.values)


def test_snapshot_stride():
    cfg = reference_config(QuadratureKind.TRAPEZOID)
    assert run(cfg).snapshots == ()

    control = ControlConfig(lower=1.0, upper=5.0, diffusivity=0.05, horizon=1.0)
    cfg = RunConfig(
        control=control,
        grid=GridSpec(cells=10),
        quadrature=QuadratureKind.RIEMANN_INTERIOR,
        mode=FixedGrid(steps=20),
        snapshot_stride=3,
    )
    traj = run(cfg)
    assert len(traj.snapshots) == 6
    expected = [0.15, 0.30, 0.45, 0.60, 0.75, 0.90]
    assert np.allclose([s.time for s in traj.snapshots], expected, atol=1e-12)


def test_compare_reports_trapezoid_discrepancy():
    cfg = reference_config(QuadratureKind.TRAPEZOID)
    report = compare_with_oracle(run(cfg), cfg)
    first = report.events[0]
    assert first.index == 1
    assert abs(first.error + 0.05) <= 1e-12
    assert first.bound == pytest.approx(0.05)
    assert not first.within_bound
    assert abs(report.mean_spacing - 0.95) <= 1e-12
    assert report.max_abs_error == pytest.approx(0.45, abs=1e-10)


def test_compare_riemann_all_within_bound():
    cfg = reference_config(QuadratureKind.RIEMANN_INTERIOR)
    report = compare_with_oracle(run(cfg), cfg)
    assert report.events
    assert all(row.within_bound for row in report.events)
    assert report.max_abs_error <= 1e-12


def test_compare_adaptive_errors_are_zero():
    control = ControlConfig(lower=0.1, upper=0.2, diffusivity=1.0, horizon=0.25)
    cfg = RunConfig(
        control=control,
        grid=GridSpec(cells=10),
        quadrature=QuadratureKind.RIEMANN_INTERIOR,
        mode=AdaptiveGrid(first_stage_steps=10, stage_steps=5),
    )
    report = compare_with_oracle(run(cfg), cfg)
    assert report.events
    for row in report.events:
        assert abs(row.error) <= 1e-10
        assert row.within_bound


def test_spurious_event_is_reported_out_of_bound():
    control = ControlConfig(lower=0.1, upper=0.2, diffusivity=0.05, horizon=1.0)
    cfg = RunConfig(
        control=control,
        grid=GridSpec(cells=10),
        quadrature=QuadratureKind.RIEMANN_INTERIOR,
        mode=FixedGrid(steps=100),
    )
    bogus = Trajectory(
        times=np.array([0.9]),
        masses=np.array([0.25]),
        fluxes=np.array([1]),
        snapshots=(),
        events=(SwitchEvent(5, 0.9, 0.25),),
    )
    (row,) = compare_with_oracle(bogus, cfg).events
    assert row.oracle_time > control.horizon + row.bound
    assert row.error < 0.0
    assert not row.within_bound


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(
            times=np.array([0.2, 0.1]),
            masses=np.array([0.0, 0.0]),
            fluxes=np.array([1, 1]),
            snapshots=(),
            events=(),
        )
    with pytest.raises(ValueError):
        Trajectory(
            times=np.array([0.1, 0.2]),
            masses=np.array([0.0, np.nan]),
            fluxes=np.array([1, 1]),
            snapshots=(),
            events=(),
        )


def test_config_validation():
    with pytest.raises(ValueError):
        AdaptiveGrid(first_stage_steps=0, stage_steps=5)
    with pytest.raises(ValueError):
        AdaptiveGrid(first_stage_steps=5, stage_steps=0)
    with pytest.raises(ValueError):
        RunConfig(
            control=ControlConfig(lower=0.1, upper=0.2, diffusivity=1.0, horizon=1.0),
            grid=GridSpec(cells=4),
            quadrature=QuadratureKind.TRAPEZOID,
            mode=FixedGrid(steps=1),
            snapshot_stride=-1,
        )


def test_run_hands_each_switch_to_on_switch_as_it_is_appended():
    cfg = reference_config(QuadratureKind.TRAPEZOID, stride=1)
    steps, seen = [], []
    traj = run(cfg, on_snapshot=lambda values, time: steps.append(time),
               on_switch=lambda event: seen.append((event, len(steps))))
    assert [event for event, _ in seen] == list(traj.events)
    # each switch is handed over at the step that detects it, not after the run
    assert [steps for _, steps in seen] == [round(event.time / 0.05) for event in traj.events]


def test_run_logs_each_switch_at_debug_and_checks_the_level_once(caplog, monkeypatch):
    cfg = reference_config(QuadratureKind.TRAPEZOID)
    caplog.set_level(logging.DEBUG, logger="massgate.runner")
    traj = run(cfg)
    lines = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    assert len(lines) == len(traj.events) == 9
    control = cfg.control
    for line, (index, time, mu) in zip(lines, traj.events):
        overshoot = mu - control.upper if index % 2 else control.lower - mu
        assert line == f"switch {index} at t={time!r}: mass {mu!r}, overshoot {overshoot!r}"
        assert overshoot >= 0.0

    caplog.set_level(logging.INFO, logger="massgate.runner")
    logger = logging.getLogger("massgate.runner")
    checks = []
    enabled = logger.isEnabledFor
    monkeypatch.setattr(logger, "isEnabledFor", lambda level: checks.append(level) or enabled(level))
    run(cfg)  # 200 steps: one check for the switch log, one for the closing info line
    assert checks == [logging.DEBUG, logging.INFO]
