import math
from array import array
from fractions import Fraction

import numpy as np
import pytest

from massgate.analytic import ControlConfig
from massgate.controller import SwitchEvent
from massgate.quadrature import QuadratureKind, mass
from massgate.runner import FixedGrid, RunConfig, Trajectory, compare_with_oracle
from massgate.stepper import GridSpec


def make_grid(cells: int) -> GridSpec:
    return GridSpec(cells=cells)


def sampled(fn, grid: GridSpec) -> np.ndarray:
    return fn(np.asarray([j * grid.dx for j in range(grid.cells + 1)]))


def test_trapezoid_exact_for_constants():
    for cells in (2, 5, 50):
        grid = make_grid(cells)
        state = np.full(cells + 1, 3.7)
        assert mass(state, grid, QuadratureKind.TRAPEZOID) == pytest.approx(3.7, abs=1e-14)


def test_riemann_interior_omits_both_endpoints():
    grid = make_grid(50)
    state = np.full(51, 2.0)
    assert mass(state, grid, QuadratureKind.RIEMANN_INTERIOR) == pytest.approx(
        2.0 * 49.0 / 50.0, abs=1e-14
    )


def test_trapezoid_exact_for_linear_ramp():
    grid = make_grid(4)
    state = sampled(lambda x: x, grid)
    # trapezoid integrates piecewise-linear data exactly: integral of x is 1/2
    assert mass(state, grid, QuadratureKind.TRAPEZOID) == pytest.approx(0.5, abs=1e-15)


def test_difference_identity():
    rng = np.random.default_rng(60)
    for cells in (2, 17, 50, 128):
        grid = make_grid(cells)
        for _ in range(25):
            state = rng.uniform(-1.0, 1.0, cells + 1)
            trap = mass(state, grid, QuadratureKind.TRAPEZOID)
            riem = mass(state, grid, QuadratureKind.RIEMANN_INTERIOR)
            expected = 0.5 * grid.dx * (state[0] + state[-1])
            assert abs(trap - riem - expected) <= 1e-14


def test_linearity_in_the_field():
    rng = np.random.default_rng(61)
    grid = make_grid(33)
    for kind in QuadratureKind:
        u = rng.uniform(-1.0, 1.0, 34)
        v = rng.uniform(-1.0, 1.0, 34)
        a, b = 1.75, -0.4
        combined = mass(a * u + b * v, grid, kind)
        parts = a * mass(u, grid, kind) + b * mass(v, grid, kind)
        assert abs(combined - parts) <= 1e-13


def test_convergence_orders_on_cubic():
    # For u = x^3 (exact integral 1/4) the trapezoid error shrinks like
    # dx^2 and the interior Riemann error like dx.
    exact = 0.25
    errors = {QuadratureKind.TRAPEZOID: [], QuadratureKind.RIEMANN_INTERIOR: []}
    for cells in (8, 16, 32, 64):
        grid = make_grid(cells)
        state = sampled(lambda x: x**3, grid)
        for kind in errors:
            errors[kind].append(abs(mass(state, grid, kind) - exact))
    for kind, order in ((QuadratureKind.TRAPEZOID, 2.0), (QuadratureKind.RIEMANN_INTERIOR, 1.0)):
        seq = errors[kind]
        assert seq[0] > seq[1] > seq[2] > seq[3]
        observed = [np.log2(a / b) for a, b in zip(seq, seq[1:])]
        for rate in observed:
            assert abs(rate - order) <= 0.3


def test_field_length_validation():
    grid = make_grid(4)
    with pytest.raises(ValueError):
        mass([0.0] * 4, grid, QuadratureKind.TRAPEZOID)


def test_unknown_quadrature_kind_is_refused():
    # a kind's name is not a kind
    with pytest.raises(ValueError, match="unknown quadrature kind: 'riemann'"):
        mass([0.0] * 5, make_grid(4), "riemann")


def bits(*values: float) -> list[int]:
    return np.array(values, dtype=float).view(np.int64).tolist()


def exact_sum(values) -> Fraction:
    """The exact sum of finite floats: integer numerators over their
    common power-of-two denominator."""
    ratios = [float(v).as_integer_ratio() for v in values]
    den = max((d for _, d in ratios), default=1)
    return Fraction(sum(c * (den // d) for c, d in ratios), den)


def signed_fields(cells: int, rng: np.random.Generator, count: int = 20) -> list[np.ndarray]:
    """Fields over many magnitudes, with signed zeros."""
    fields = []
    for _ in range(count):
        u = rng.normal(size=cells + 1) * 10.0 ** rng.uniform(-6.0, 6.0, cells + 1)
        u[rng.random(cells + 1) < 0.1] = 0.0
        u[rng.random(cells + 1) < 0.1] = -0.0
        fields.append(u)
    return fields


@pytest.mark.parametrize("cells", [2, 3, 9, 50, 129, 1000, 10000])
def test_mass_of_a_list_is_the_correctly_rounded_sum_bit_for_bit(cells):
    # Over many magnitudes and signed zeros, each mass is dx times the
    # exact sum rounded once; a sum of -0.0 comes out as 0.0.
    rng = np.random.default_rng(cells)
    grid = make_grid(cells)
    for u in [np.full(cells + 1, -0.0), *signed_fields(cells, rng)]:
        interior = exact_sum(u[1:-1])
        riemann = mass(u.tolist(), grid, QuadratureKind.RIEMANN_INTERIOR)
        trapezoid = mass(u.tolist(), grid, QuadratureKind.TRAPEZOID)
        assert bits(riemann, trapezoid) == bits(
            grid.dx * float(interior), grid.dx * float(interior + exact_sum([u[0], u[-1]]) / 2)
        )


@pytest.mark.parametrize("cells", [2, 3, 8, 51, 1000])
def test_mass_does_not_depend_on_the_order_of_the_samples(cells):
    # the mirror image of a field, or any shuffle of its interior, has the
    # same mass to the last bit
    rng = np.random.default_rng(100 + cells)
    grid = make_grid(cells)
    for u in signed_fields(cells, rng):
        shuffled = u.copy()
        rng.shuffle(shuffled[1:-1])
        for kind in QuadratureKind:
            expected = bits(mass(u.tolist(), grid, kind))
            assert bits(mass(u[::-1].tolist(), grid, kind)) == expected
            assert bits(mass(shuffled.tolist(), grid, kind)) == expected


@pytest.mark.parametrize(
    "field, expected",
    [
        ([1e308] * 4, math.inf),
        ([-1e308] * 4, -math.inf),
        ([0.0, math.inf, -math.inf, 0.0], math.nan),
    ],
)
def test_a_sum_past_the_float_range_is_the_ieee_result(field, expected):
    for kind in QuadratureKind:
        assert repr(mass(field, make_grid(3), kind)) == repr(expected)


def test_an_overflowing_partial_sum_still_gives_the_correctly_rounded_mass():
    # 1e308 + 1e308 leaves the float range, but the exact sum is 1e308
    grid = make_grid(4)
    u = [0.0, 1e308, 1e308, -1e308, 0.0]
    for kind in QuadratureKind:
        assert mass(u, grid, kind) == grid.dx * 1e308


@pytest.mark.parametrize("count", [2, 9, 14, 200, 257, 1000])
def test_mean_spacing_is_the_correctly_rounded_sum_over_the_count_bit_for_bit(count):
    # at count 14 numpy's pairwise order, np.mean(np.diff(times)), differs
    # in the last bit
    rng = np.random.default_rng(count)
    control = ControlConfig(lower=0.1, upper=0.2, diffusivity=0.05, horizon=10.0)
    cfg = RunConfig(control, make_grid(50), QuadratureKind.TRAPEZOID, FixedGrid(steps=200))
    times = np.cumsum(rng.uniform(0.0, 1.0, count) * 10.0 ** rng.uniform(-3.0, 3.0, count))
    events = tuple(SwitchEvent(k, t, 0.0) for k, t in enumerate(times.tolist(), start=1))
    traj = Trajectory(times=array("d"), masses=array("d"), fluxes=array("b"), snapshots=(), events=events)
    report = compare_with_oracle(traj, cfg)
    spacings = [b - a for a, b in zip(times.tolist(), times[1:].tolist())]
    assert bits(report.mean_spacing) == bits(float(sum(map(Fraction, spacings))) / len(spacings))
