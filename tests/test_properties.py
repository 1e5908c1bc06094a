"""Property tests over the accepted input space, with a fixed example set.

Adaptive runs reproduce the closed-form switch times at any threshold
size and time scale; every config that validation accepts either runs
to completion or ends in the one-line diagnostic; fixed Riemann runs
keep the scheme's per-step mass identity; and one step matches a dense
solve of the same backward-implicit system on small grids.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from massgate.analytic import ConfigError, ControlConfig, switch_spacing, switch_time
from massgate.cli import config_from_mapping, main
from massgate.quadrature import QuadratureKind
from massgate.runner import AdaptiveGrid, FixedGrid, RunConfig, compare_with_oracle, run
from massgate.stepper import FluxSign, GridSpec, assemble, diffusion_number, step

EPS = float(np.finfo(float).eps)

# At most this many steps per generated run; larger configs are skipped
# before anything is allocated.
MAX_STEPS = 20000

PROPERTY_SETTINGS = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def log_uniform(low: int, high: int):
    """Floats 10**e for e drawn uniformly from [low, high]."""
    return st.floats(low, high).map(lambda e: 10.0**e)


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(
    alpha=log_uniform(-4, 4),
    upper=log_uniform(-4, 4),
    ratio=st.floats(0.01, 0.99),
    first=st.integers(1, 40),
    later=st.integers(1, 40),
    cells=st.integers(2, 60),
    switches=st.integers(1, 25),
    past=st.floats(0.0, 0.9),
)
def test_adaptive_runs_match_the_closed_form(alpha, upper, ratio, first, later, cells, switches, past):
    probe = ControlConfig(lower=ratio * upper, upper=upper, diffusivity=alpha, horizon=1.0)
    horizon = switch_time(switches, probe) + past * switch_spacing(probe)
    control = ControlConfig(lower=probe.lower, upper=upper, diffusivity=alpha, horizon=horizon)
    cfg = RunConfig(
        control=control,
        grid=GridSpec(cells=cells),
        quadrature=QuadratureKind.RIEMANN_INTERIOR,
        mode=AdaptiveGrid(first_stage_steps=first, stage_steps=later),
    )
    expected = switches
    while switch_time(expected + 1, control) <= horizon:
        expected += 1

    report = compare_with_oracle(run(cfg), cfg)
    assert len(report.events) == expected
    for row in report.events:
        assert row.within_bound
        assert abs(row.error) <= 1e-9 * max(1.0, row.oracle_time)


EXTREMES = st.sampled_from([5e-324, 1e-300, 1e300, 1.7e308])
POSITIVE = EXTREMES | log_uniform(-6, 6)


@st.composite
def accepted_mappings(draw):
    """Flat config mappings that ``config_from_mapping`` accepts."""
    lower, upper = sorted((draw(POSITIVE), draw(POSITIVE)))
    raw = {
        "m": lower,
        "M": upper,
        "alpha": draw(POSITIVE),
        "horizon": draw(POSITIVE),
        "J": draw(st.integers(2, 200)),
    }
    if draw(st.booleans()):
        raw["mode"] = "adaptive"
        raw["N0"] = draw(st.integers(1, 50) | st.sampled_from([10**6, 10**12]))
        raw["Nstage"] = draw(st.integers(1, 50) | st.sampled_from([10**6, 10**12]))
    else:
        raw["N"] = draw(st.integers(1, 3000) | st.sampled_from([MAX_STEPS + 1, 10**12]))
        raw["quadrature"] = draw(st.sampled_from(["riemann", "trapezoid"]))
    raw["snapshot_stride"] = draw(st.sampled_from([0, 0, 1, 7, 10**9]))
    try:
        config_from_mapping(raw)
    except ConfigError:
        assume(False)
    return raw


def run_cli(raw: dict) -> tuple[int, str]:
    """``massgate run`` on the mapping in-process: exit code and stderr.

    A warning, which would print to stderr, escapes as an exception."""
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "config.json"
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--config", str(config_path), "--out", str(Path(tmp) / "out")])
    return code, err.getvalue()


@settings(PROPERTY_SETTINGS, max_examples=120)
@given(raw=accepted_mappings())
def test_accepted_configs_run_or_give_the_one_line_diagnostic(raw):
    cfg = config_from_mapping(raw)
    try:
        steps = sum(stage.steps for stage in cfg.mode.stages(cfg.control))
    except ArithmeticError:
        steps = None  # the CLI must turn this into the diagnostic
    assume(steps is None or steps <= MAX_STEPS)

    code, err = run_cli(raw)
    if code == 0:
        assert steps is not None and err == ""
    else:
        assert code == 1
        assert err.startswith("massgate: config error:")
        assert len(err.strip().splitlines()) == 1


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(
    alpha=log_uniform(-4, 4),
    upper=log_uniform(-4, 4),
    ratio=st.floats(0.01, 0.99),
    cells=st.integers(2, 60),
    steps=st.integers(1, 1500),
    switches=st.integers(1, 12),
    past=st.floats(0.0, 0.9),
)
def test_fixed_riemann_mass_moves_by_the_rate_times_dt(alpha, upper, ratio, cells, steps, switches, past):
    # The stencil telescopes, so each step adds exactly 2*alpha*dt*s to the
    # interior mass; what is left is roundoff, which the solve scales by
    # up to the diffusion number nu.
    probe = ControlConfig(lower=ratio * upper, upper=upper, diffusivity=alpha, horizon=1.0)
    horizon = switch_time(switches, probe) + past * switch_spacing(probe)
    control = ControlConfig(lower=probe.lower, upper=upper, diffusivity=alpha, horizon=horizon)
    cfg = RunConfig(
        control=control,
        grid=GridSpec(cells=cells),
        quadrature=QuadratureKind.RIEMANN_INTERIOR,
        mode=FixedGrid(steps=steps),
    )
    dt = cfg.mode.stages(control)[0].dt
    increment = 2.0 * alpha * dt
    scale = 4.0 * EPS * (1.0 + diffusion_number(cfg.grid, dt, alpha)) * max(upper, increment)

    traj = run(cfg)
    expected = 0.0
    for n, (mu, flux) in enumerate(zip(traj.masses, traj.fluxes), start=1):
        expected += increment * flux
        assert abs(mu - expected) <= n * scale


def dense_step(values: list[float], flux: int, cells: int, nu: float) -> np.ndarray:
    """One backward-implicit step as a dense (J+1) x (J+1) solve: the flux
    conditions (U_1 - U_0)/dx = -s and (U_J - U_{J-1})/dx = s as the first
    and last rows, the implicit stencil on the interior rows."""
    dx = 1.0 / cells
    A = np.zeros((cells + 1, cells + 1))
    b = np.array(values, dtype=float)
    A[0, :2], b[0] = (-1.0, 1.0), -flux * dx
    A[cells, cells - 1:], b[cells] = (-1.0, 1.0), flux * dx
    for j in range(1, cells):
        A[j, j - 1:j + 2] = (-nu, 1.0 + 2.0 * nu, -nu)
    return np.linalg.solve(A, b)


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(
    cells=st.integers(2, 12),
    nu=log_uniform(-4, 3),
    alpha=log_uniform(-3, 3),
    flux=st.sampled_from([FluxSign.INFLOW, FluxSign.OUTFLOW]),
    values=st.lists(st.floats(-1e3, 1e3), min_size=13, max_size=13),
)
def test_step_matches_a_dense_solve_on_small_grids(cells, nu, alpha, flux, values):
    values = values[: cells + 1]
    dt = nu / (alpha * cells**2)
    new = np.asarray(step(values, flux, assemble(GridSpec(cells), dt, alpha)))
    expected = dense_step(values, int(flux), cells, diffusion_number(GridSpec(cells), dt, alpha))
    assert np.max(np.abs(new - expected)) <= 1e-12 * np.max(np.abs(expected))
