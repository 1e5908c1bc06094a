"""Property tests over the accepted input space, with a fixed example set.

Adaptive runs reproduce the closed-form switch times at any threshold
size and time scale, up to a diffusion number of 1e14, and every pivot
of a step matrix is finite and at least 1; every config that validation accepts either runs
to completion or ends in the one-line diagnostic, and survives a round
trip through its mapping; any mapping at all either builds a config or
raises ConfigError; fixed Riemann runs keep the scheme's per-step mass
identity and detect switch k less than (2k - 1) steps late; every
interior-Riemann switch falls on the step that exact sums of the mass
increment put it on; and one step
matches a dense solve of the same backward-implicit system on small
grids, and, stepped as the half of a mirror-symmetric field through the
mirror fold, an exact solve up to a diffusion number of 1e14; and the
mass of a mirror-symmetric field's half is the whole field's, bit for bit.
"""

import contextlib
import io
import json
import math
import random
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from massgate.analytic import ConfigError, ControlConfig, switch_spacing, switch_time
from massgate.cli import config_from_mapping, config_to_mapping, main
from massgate.quadrature import QuadratureKind, mass
from massgate.runner import STEP_SLACK, AdaptiveGrid, FixedGrid, RunConfig, compare_with_oracle, run
from massgate.stepper import FluxSign, GridSpec, assemble, diffusion_number, step
from test_tridiag import exact_solve

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


def assert_adaptive_run_matches_the_closed_form(alpha, upper, ratio, first, later, cells, switches, past):
    """The adaptive run up to ``past`` of a spacing after closed-form switch
    ``switches`` finds every closed-form switch, each within 1e-9 of its
    time (relative past t = 1) and within bound."""
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
    assert_adaptive_run_matches_the_closed_form(alpha, upper, ratio, first, later, cells, switches, past)


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(
    nu=log_uniform(0, 14),
    alpha=log_uniform(-4, 4),
    ratio=st.floats(0.01, 0.99),
    first=st.integers(1, 6),
    later=st.integers(1, 6),
    cells=st.integers(2, 200),
    switches=st.integers(1, 40),
    past=st.floats(0.0, 0.9),
)
def test_adaptive_runs_match_the_closed_form_up_to_a_diffusion_number_of_1e14(
        nu, alpha, ratio, first, later, cells, switches, past):
    # The climb's diffusion number is upper * J**2 / (2 * N0); every stage
    # end must still land on its threshold within STEP_SLACK.
    upper = 2.0 * first * nu / cells**2
    assert_adaptive_run_matches_the_closed_form(alpha, upper, ratio, first, later, cells, switches, past)


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(nu=log_uniform(-300, 300), cells=st.integers(2, 200))
def test_every_pivot_is_finite_and_at_least_one(nu, cells):
    matrix = assemble(GridSpec(cells=cells), nu / cells**2, 1.0)
    assert all(math.isfinite(p) and p >= 1.0 for p in matrix.pivots + matrix.folded.pivots)


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


@settings(PROPERTY_SETTINGS, max_examples=120)
@given(raw=accepted_mappings())
def test_accepted_configs_round_trip_through_their_mapping(raw):
    cfg = config_from_mapping(raw)
    assert config_from_mapping(config_to_mapping(cfg)) == cfg


CONFIG_KEYS = ["m", "M", "alpha", "horizon", "J", "N", "N0", "Nstage", "quadrature", "mode", "snapshot_stride"]
# Edge cases, one of the three kinds of value drawn, so they come up often.
SPECIAL_VALUES = st.sampled_from(
    [True, False, None, float("nan"), float("inf"), -float("inf"), 0, -1, 2**63, 10**400, -(10**400),
     "riemann", "adaptive", [], [1.0], {}, {"m": 1}]
)
JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
JSON_VALUES = st.one_of(
    SPECIAL_VALUES,
    JSON_SCALARS,
    st.recursive(
        JSON_SCALARS,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=4,
    ),
)


@st.composite
def arbitrary_mappings(draw):
    """A valid fixed or adaptive mapping with keys dropped, set to any
    JSON value, or added, known or unknown."""
    raw = dict(draw(st.sampled_from([
        {"m": 0.1, "M": 0.2, "alpha": 0.05, "horizon": 10, "J": 50, "N": 200},
        {"m": 0.1, "M": 0.2, "alpha": 1, "horizon": 0.25, "J": 10, "mode": "adaptive", "N0": 10, "Nstage": 5},
    ])))
    rarely = st.sampled_from([False] * 7 + [True])  # a dropped or unknown key ends validation early
    if draw(rarely):
        del raw[draw(st.sampled_from(sorted(raw)))]
    raw.update(draw(st.dictionaries(st.sampled_from(CONFIG_KEYS), JSON_VALUES, min_size=1, max_size=3)))
    if draw(rarely):
        raw[draw(st.text(max_size=4))] = draw(JSON_VALUES)
    return raw


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(raw=arbitrary_mappings())
def test_any_mapping_builds_a_config_or_raises_config_error(raw):
    try:
        cfg = config_from_mapping(raw)
    except ConfigError as exc:
        # never a record field such as lower, cells or first_stage_steps
        assert exc.key in CONFIG_KEYS or exc.key == "config" or exc.key in raw
        return
    assert isinstance(cfg, RunConfig)


def fixed_riemann(alpha, upper, ratio, cells, steps, switches, past) -> RunConfig:
    """A fixed-grid interior-Riemann run with thresholds ratio * upper and
    upper, up to ``past`` of a spacing after closed-form switch ``switches``."""
    probe = ControlConfig(lower=ratio * upper, upper=upper, diffusivity=alpha, horizon=1.0)
    horizon = switch_time(switches, probe) + past * switch_spacing(probe)
    return RunConfig(
        control=ControlConfig(lower=probe.lower, upper=upper, diffusivity=alpha, horizon=horizon),
        grid=GridSpec(cells=cells),
        quadrature=QuadratureKind.RIEMANN_INTERIOR,
        mode=FixedGrid(steps=steps),
    )


@settings(PROPERTY_SETTINGS, max_examples=80)
@given(
    alpha=log_uniform(-4, 4),
    upper=log_uniform(-4, 4),
    ratio=st.floats(0.01, 0.99),
    cells=st.integers(2, 60),
    steps=st.integers(1, 2000),
    switches=st.integers(1, 12),
    past=st.floats(0.0, 0.9),
)
def test_fixed_riemann_switch_k_lags_less_than_2k_minus_1_steps(alpha, upper, ratio, cells, steps, switches, past):
    # The step that detects a crossing overshoots by up to one increment,
    # which the flux traverses again after the flip: up to two steps of
    # lag per switch after the first.  Criterion 5a's k * dt is not met.
    cfg = fixed_riemann(alpha, upper, ratio, cells, steps, switches, past)
    dt = cfg.mode.stages(cfg.control)[0].dt
    for ev in run(cfg).events:
        lag = ev.time - switch_time(ev.index, cfg.control)
        assert -STEP_SLACK * dt <= lag < (2 * ev.index - 1) * dt


def interior_riemann_sample(seed: int, size: int):
    """``size`` fixed and ``size`` adaptive interior-Riemann configs drawn
    from ``random.Random(seed)``, up to 0 to 8 spacings past switch 1."""
    rng = random.Random(seed)
    for adaptive in (False, True):
        for _ in range(size):
            upper = 10 ** rng.uniform(-2, 1)
            lower = upper * rng.uniform(0.1, 0.9)
            alpha = 10 ** rng.uniform(-3, 1)
            probe = ControlConfig(lower=lower, upper=upper, diffusivity=alpha, horizon=1.0)
            horizon = switch_time(1, probe) + rng.uniform(0, 8) * switch_spacing(probe)
            cells = rng.choice((2, 3, 7, 50))
            mode = AdaptiveGrid(rng.randint(1, 6), rng.randint(1, 6)) if adaptive else FixedGrid(rng.randint(50, 1000))
            yield RunConfig(probe._replace(horizon=horizon), GridSpec(cells), QuadratureKind.RIEMANN_INTERIOR, mode)


def test_interior_riemann_switches_fall_on_their_discrete_steps():
    # Each step adds s * q, q = 2*alpha*dt, to the interior mass (the
    # mass identity, tested below), and the relay flips on the first step within
    # its window w of the threshold.  From zero mass, switch 1 falls on
    # step c_up = ceil((M - w)/q) and the lower crossings on mass c_lo * q,
    # c_lo = floor((m + w)/q), so switch k on c_up + (k - 1)(c_up - c_lo).
    # An adaptive grid lands on a threshold every N0, then Nstage, steps.
    mismatches = []
    for cfg in interior_riemann_sample(seed=0, size=60):
        traj = run(cfg)
        found = [traj.times.index(event.time) + 1 for event in traj.events]
        if isinstance(cfg.mode, AdaptiveGrid):
            first, period = cfg.mode
        else:
            dt = cfg.mode.stages(cfg.control)[0].dt
            rate = 2.0 * cfg.control.diffusivity
            q, w = Fraction(rate) * Fraction(dt), Fraction(STEP_SLACK * rate * dt)
            up = math.ceil((Fraction(cfg.control.upper) - w) / q)
            first, period = up, up - math.floor((Fraction(cfg.control.lower) + w) / q)
        expected = list(range(first, len(traj.times) + 1, period))
        if found != expected:
            mismatches.append((cfg, found, expected))
    assert mismatches == []


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
    # interior mass; what is left is roundoff of a few eps of the mass per
    # step, at any diffusion number.
    cfg = fixed_riemann(alpha, upper, ratio, cells, steps, switches, past)
    dt = cfg.mode.stages(cfg.control)[0].dt
    increment = 2.0 * alpha * dt
    scale = 4.0 * EPS * max(upper, increment)

    traj = run(cfg)
    expected = 0.0
    for n, (mu, flux) in enumerate(zip(traj.masses, traj.fluxes), start=1):
        expected += increment * flux
        assert abs(mu - expected) <= n * scale


@settings(PROPERTY_SETTINGS, max_examples=80)
@given(
    alpha=log_uniform(-4, 4),
    upper=log_uniform(-4, 4),
    ratio=st.floats(0.01, 0.99),
    cells=st.integers(2, 20),
    adaptive=st.booleans(),
    steps=st.integers(1, 400),
    first=st.integers(1, 6),
    later=st.integers(1, 6),
    switches=st.integers(1, 12),
    past=st.floats(0.0, 0.9),
)
def test_no_step_ends_past_the_horizon(alpha, upper, ratio, cells, adaptive, steps, first, later, switches, past):
    # The run ends on the last step that ends by the horizon, not on the
    # first step that ends at or past it.
    cfg = fixed_riemann(alpha, upper, ratio, cells, steps, switches, past)
    if adaptive:
        cfg = RunConfig(cfg.control, cfg.grid, cfg.quadrature, AdaptiveGrid(first, later))
    dt = cfg.mode.stages(cfg.control)[-1].dt
    horizon = cfg.control.horizon
    assert horizon - dt < max(run(cfg).times) <= horizon + STEP_SLACK * dt


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


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(
    cells=st.integers(2, 12),
    nu=log_uniform(-4, 14),
    flux=st.sampled_from([FluxSign.INFLOW, FluxSign.OUTFLOW]),
    half=st.lists(st.floats(-1e3, 1e3), min_size=7, max_size=7),
)
def test_step_of_a_mirror_symmetric_field_matches_an_exact_solve(cells, nu, flux, half):
    # The half U_0..U_h stepped through the mirror fold, then mirrored;
    # the reference is the exact solution of the full system at the same
    # rounded right-hand side.
    values = [half[min(j, cells - j)] for j in range(cells + 1)]
    matrix = assemble(GridSpec(cells), nu / cells**2, 1.0)
    folded = step(half[:cells // 2 + 1], flux, matrix.folded)
    new = folded + folded[cells % 2 - 2::-1]

    forcing = matrix.forcing * flux
    rhs = values[1:-1]
    rhs[0] += forcing
    rhs[-1] += forcing
    numerators, den = exact_solve(matrix.nu, rhs)
    interior = [Fraction(numerator, den) for numerator in numerators]
    offset = Fraction(matrix.dx * flux)
    expected = [interior[0] + offset, *interior, interior[-1] + offset]
    error = max(abs(Fraction(u) - e) for u, e in zip(new, expected))
    assert error <= Fraction(1e-12) * max(map(abs, expected))


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(
    cells=st.integers(2, 13),
    kind=st.sampled_from(list(QuadratureKind)),
    # normal floats, and zeros, whose halves are exact
    half=st.lists(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=False)
                  .filter(lambda x: 2.0 * (0.5 * x) == x), min_size=7, max_size=7),
)
def test_mass_of_a_mirror_half_is_the_mass_of_the_whole_field_bit_for_bit(cells, kind, half):
    half = half[:cells // 2 + 1]
    grid = GridSpec(cells)
    assert mass(half, grid, kind).hex() == mass(half + half[cells % 2 - 2::-1], grid, kind).hex()
    for length in range(cells + 4):
        if length not in (cells // 2 + 1, cells + 1):
            with pytest.raises(ValueError):
                mass([0.0] * length, grid, kind)
