import numpy as np
import pytest

from massgate.runner import FixedGrid
from massgate.stepper import (
    FluxSign,
    GridSpec,
    assemble,
    diffusion_number,
    step,
)


def interior_mass(values: np.ndarray, dx: float) -> float:
    """Direct summation oracle for the interior Riemann mass."""
    return dx * float(np.sum(values[1:-1]))


def random_state(rng: np.random.Generator, cells: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, cells + 1)


def test_assemble_matches_hand_derivation():
    # cells=3, nu=1: eliminating the end values leaves [[2, -1], [-1, 2]],
    # whose pivots are 2 and 2 - 1/2 with multiplier 1/2, and a flux
    # forcing of nu * dx = dx.
    grid, dt = GridSpec(cells=3), 1.0 / 9.0
    assert diffusion_number(grid, dt, 1.0) == pytest.approx(1.0)
    matrix = assemble(grid, dt, 1.0)
    assert np.allclose(matrix.pivots, [2.0, 1.5])
    assert np.allclose(matrix.multipliers, [0.5])
    assert matrix.nu == pytest.approx(1.0)
    assert matrix.forcing == pytest.approx(grid.dx)


@pytest.mark.parametrize(
    "cells, multipliers, pivots",
    [(2, [], [1.0]), (3, [], [1.0]), (4, [1.0], [2.0, 2.0]), (5, [0.5], [2.0, 1.5])],
)
def test_folded_factors_match_hand_derivation(cells, multipliers, pivots):
    # nu = 1.  J = 4 folds U_3 = U_1 into [[2, -1], [-2, 3]]: multiplier
    # 2 * 1/2 and pivot 3 - 1 = 1 + 2 * 1 * 1/2.  J = 5 folds U_3 = U_2
    # into [[2, -1], [-1, 2]], an end row: pivot 2 - 1/2.  J = 2 and 3
    # leave the middle row alone, with pivot 1.
    folded = assemble(GridSpec(cells), 1.0 / cells**2, 1.0).folded
    assert folded.multipliers == pytest.approx(multipliers)
    assert folded.pivots == pytest.approx(pivots)
    assert folded.folded is None


@pytest.mark.parametrize("nu", [4e15, 1e16, 1e300])
def test_two_cell_diagonal_is_exactly_one_at_any_coupling(nu):
    # With one unknown both end folds land on one entry, 1 + 2*nu - 2*nu,
    # which is 1 however large nu is; the step gains 2*nu*dx per step.
    grid = GridSpec(cells=2)
    dt = nu * grid.dx**2
    matrix = assemble(grid, dt, 1.0)
    assert matrix.pivots == [1.0]
    assert step([0.0, 0.0, 0.0], FluxSign.INFLOW, matrix)[1] == 2.0 * nu * grid.dx


def test_step_from_zero_flips_with_flux_sign():
    grid, dt = GridSpec(cells=3), 1.0 / 9.0
    matrix = assemble(grid, dt, 1.0)
    plus = np.asarray(step([0.0] * (grid.cells + 1), FluxSign.INFLOW, matrix))
    minus = np.asarray(step([0.0] * (grid.cells + 1), FluxSign.OUTFLOW, matrix))
    assert np.allclose(minus, -plus)


def test_step_increments_interior_mass_by_rate_times_dt():
    grid = GridSpec(cells=4)
    new = step([0.0] * (grid.cells + 1), FluxSign.INFLOW, assemble(grid, 0.01, 1.0))
    assert interior_mass(new, grid.dx) == pytest.approx(0.02, abs=1e-13)


def test_inflow_then_outflow_cancels_interior_mass():
    grid = GridSpec(cells=7)
    first = step([0.0] * (grid.cells + 1), FluxSign.INFLOW, assemble(grid, 0.03, 0.7))
    second = step(first, FluxSign.OUTFLOW, assemble(grid, 0.03, 0.7))
    assert abs(interior_mass(second, grid.dx)) <= 1e-12


def test_mass_identity_for_random_states():
    rng = np.random.default_rng(123)
    for _ in range(100):
        cells = int(rng.integers(2, 81))
        grid, dt = GridSpec(cells=cells), float(rng.uniform(1e-4, 0.5))
        alpha = float(rng.uniform(0.01, 10.0))
        flux = FluxSign.INFLOW if rng.integers(2) else FluxSign.OUTFLOW
        state = random_state(rng, cells)
        new = step(state, flux, assemble(grid, dt, alpha))
        increment = interior_mass(new, grid.dx) - interior_mass(state, grid.dx)
        assert abs(increment - 2.0 * alpha * dt * float(flux)) <= 1e-11


def test_boundary_slopes_match_flux_sign():
    rng = np.random.default_rng(8)
    grid = GridSpec(cells=20)
    for flux in (FluxSign.INFLOW, FluxSign.OUTFLOW):
        new = step(random_state(rng, 20), flux, assemble(grid, 0.02, 0.3))
        u = new
        assert abs((u[1] - u[0]) / grid.dx - (-float(flux))) <= 1e-10
        assert abs((u[-1] - u[-2]) / grid.dx - float(flux)) <= 1e-10


def test_interior_rows_satisfy_implicit_scheme():
    rng = np.random.default_rng(17)
    grid, dt = GridSpec(cells=12), 0.04
    alpha = 2.5
    nu = diffusion_number(grid, dt, alpha)
    state = random_state(rng, 12)
    new = step(state, FluxSign.OUTFLOW, assemble(grid, dt, alpha))
    u = new
    for j in range(1, 12):
        lhs = -nu * u[j - 1] + (1.0 + 2.0 * nu) * u[j] - nu * u[j + 1]
        assert abs(lhs - state[j]) <= 1e-10


def test_mirror_symmetric_input_stays_symmetric():
    rng = np.random.default_rng(31)
    for cells in (4, 11, 50):
        half = rng.uniform(-1.0, 1.0, cells // 2 + 1)
        values = np.concatenate([half, half[: (cells + 1) // 2][::-1]])
        assert len(values) == cells + 1
        assert np.array_equal(values, values[::-1])
        grid = GridSpec(cells=cells)
        for flux in (FluxSign.INFLOW, FluxSign.OUTFLOW):
            new = np.asarray(step(values, flux, assemble(grid, 0.01, 1.3)))
            assert np.max(np.abs(new - new[::-1])) <= 1e-12


def test_constant_field_adds_response_of_zero_field():
    grid = GridSpec(cells=9)
    c = 0.8
    constant = np.full(10, c)
    from_constant = np.asarray(step(constant, FluxSign.INFLOW, assemble(grid, 0.05, 1.0)))
    from_zero = np.asarray(step([0.0] * (grid.cells + 1), FluxSign.INFLOW, assemble(grid, 0.05, 1.0)))
    assert np.max(np.abs(from_constant - (c + from_zero))) <= 1e-12


def test_high_coupling_stays_monotone():
    # Backward Euler is stable for any nu; pumping into the zero field
    # must never produce sign oscillations in the interior.
    for nu in (1.0, 1e2, 1e4):
        cells = 10
        dx = 1.0 / cells
        grid = GridSpec(cells=cells)
        state = [0.0] * (grid.cells + 1)
        for n in range(1, 11):
            state = step(state, FluxSign.INFLOW, assemble(grid, nu * dx**2, 1.0))
            if n > 3:
                assert np.min(state[1:-1]) >= -1e-12


def test_refinement_consistency():
    # Fixed final time, constant inflow: halving dx and quartering dt
    # shrinks the change between successive solutions.
    final_time = 0.1
    fields = {}
    for cells, steps in ((8, 16), (16, 64), (32, 256), (64, 1024)):
        grid = GridSpec(cells=cells)
        state = [0.0] * (grid.cells + 1)
        for _ in range(steps):
            state = step(state, FluxSign.INFLOW, assemble(grid, final_time / steps, 1.0))
        fields[cells] = np.asarray(state)
    gaps = []
    for coarse, fine in ((8, 16), (16, 32), (32, 64)):
        shared = fields[fine][::2]
        gaps.append(float(np.max(np.abs(fields[coarse] - shared))))
    assert gaps[0] > gaps[1] > gaps[2]


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(cells=1)
    with pytest.raises(ValueError):
        FixedGrid(steps=0)
    assert GridSpec(cells=4).dx == 0.25


def test_field_length_validation():
    # J = 4 takes 5 samples; 6 symmetric ones would fold onto the same
    # two rows, so the length is checked before the fold is chosen.
    grid = GridSpec(cells=4)
    for values in ([0.0] * 4, [0.0] * 6, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]):
        with pytest.raises(ValueError):
            step(values, FluxSign.INFLOW, assemble(grid, 0.1, 1.0))


def test_grid_points():
    grid = GridSpec(cells=4)
    assert np.allclose([j * grid.dx for j in range(grid.cells + 1)], [0.0, 0.25, 0.5, 0.75, 1.0])
