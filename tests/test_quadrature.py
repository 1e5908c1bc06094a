import numpy as np
import pytest

from massgate.quadrature import QuadratureKind, mass
from massgate.stepper import GridSpec


def make_grid(cells: int) -> GridSpec:
    return GridSpec(cells=cells)


def sampled(fn, grid: GridSpec) -> np.ndarray:
    return fn(grid.points)


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
        mass(np.zeros(4), grid, QuadratureKind.TRAPEZOID)
