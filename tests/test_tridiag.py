import numpy as np
import pytest

from massgate.stepper import FluxSign, GridSpec, assemble, step
from massgate.tridiag import PIVOT_FLOOR, SingularPivot, TridiagonalMatrix, solve


def dense_solve(matrix: TridiagonalMatrix, rhs: np.ndarray) -> np.ndarray:
    """Brute-force oracle: assemble the dense matrix and LU-solve it."""
    A = np.diag(matrix.diag) + np.diag(matrix.sub, -1) + np.diag(matrix.sup, 1)
    return np.linalg.solve(A, np.asarray(rhs, dtype=float))


def thomas_sweep(sub, diag, sup, rhs) -> np.ndarray:
    """Reference: one forward sweep and back substitution per right-hand
    side, over numpy arrays, in the operation order ``solve`` must keep."""
    n = len(diag)
    diag = np.array(diag, dtype=float)
    rhs = np.array(rhs, dtype=float)
    for i in range(1, n):
        w = sub[i - 1] / diag[i - 1]
        diag[i] -= w * sup[i - 1]
        rhs[i] -= w * rhs[i - 1]
    x = np.empty(n)
    x[-1] = rhs[-1] / diag[-1]
    for i in range(n - 2, -1, -1):
        x[i] = (rhs[i] - sup[i] * x[i + 1]) / diag[i]
    return x


def reference_step(values: np.ndarray, flux: FluxSign, cells: int, dt: float, alpha: float) -> np.ndarray:
    """Reference implicit step: rebuild the matrix and right-hand side, then
    run ``thomas_sweep``."""
    dx = 1.0 / cells
    nu = alpha * dt / dx**2
    diag = np.full(cells - 1, 1.0 + 2.0 * nu)
    if cells == 2:
        diag[0] = 1.0  # both end folds on the one entry: exactly 1
    else:
        diag[0] -= nu
        diag[-1] -= nu
    off = np.full(cells - 2, -nu)
    rhs = np.array(values[1:-1], dtype=float)
    forcing = nu * dx * float(flux)
    rhs[0] += forcing
    rhs[-1] += forcing
    interior = thomas_sweep(off, diag, off, rhs)
    out = np.empty(cells + 1)
    out[1:-1] = interior
    out[0] = interior[0] + dx * float(flux)
    out[-1] = interior[-1] + dx * float(flux)
    return out


def random_dominant(rng: np.random.Generator, n: int) -> tuple[TridiagonalMatrix, np.ndarray]:
    sub = rng.uniform(-1.0, 1.0, n - 1)
    sup = rng.uniform(-1.0, 1.0, n - 1)
    margin = rng.uniform(0.5, 2.0, n)
    diag = margin + np.concatenate(([0.0], np.abs(sub))) + np.concatenate((np.abs(sup), [0.0]))
    diag *= rng.choice([-1.0, 1.0], n)
    rhs = rng.uniform(-5.0, 5.0, n)
    return TridiagonalMatrix(sub=sub, diag=diag, sup=sup), rhs


def test_identity_matrix_returns_rhs():
    matrix = TridiagonalMatrix(sub=np.zeros(2), diag=np.ones(3), sup=np.zeros(2))
    assert np.array_equal(solve(matrix, [2.0, 3.0, 4.0]), [2.0, 3.0, 4.0])


def test_symmetric_two_by_two():
    matrix = TridiagonalMatrix(sub=np.array([1.0]), diag=np.array([2.0, 2.0]), sup=np.array([1.0]))
    assert np.allclose(solve(matrix, [3.0, 3.0]), [1.0, 1.0], atol=1e-14)


def test_order_one_system():
    matrix = TridiagonalMatrix(sub=np.zeros(0), diag=np.array([2.0]), sup=np.zeros(0))
    assert solve(matrix, [4.0]) == pytest.approx([2.0])


def test_matches_dense_oracle_order_four():
    rng = np.random.default_rng(42)
    matrix, rhs = random_dominant(rng, 4)
    assert np.max(np.abs(solve(matrix, rhs) - dense_solve(matrix, rhs))) <= 1e-10


def test_thousand_random_systems_match_dense_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 21))
        matrix, rhs = random_dominant(rng, n)
        worst = max(worst, float(np.max(np.abs(solve(matrix, rhs) - dense_solve(matrix, rhs)))))
    assert worst <= 1e-10


def test_residual_bound():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 21))
        matrix, rhs = random_dominant(rng, n)
        x = np.array(solve(matrix, rhs))
        A = np.diag(matrix.diag) + np.diag(matrix.sub, -1) + np.diag(matrix.sup, 1)
        residual = np.max(np.abs(A @ x - rhs))
        assert residual <= 1e-10 * (1.0 + np.max(np.abs(rhs)))


def test_linearity_in_rhs():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 21))
        matrix, _ = random_dominant(rng, n)
        b1 = rng.uniform(-3.0, 3.0, n)
        b2 = rng.uniform(-3.0, 3.0, n)
        x1 = np.array(solve(matrix, b1))
        x2 = np.array(solve(matrix, b2))
        x12 = np.array(solve(matrix, b1 + b2))
        assert np.max(np.abs(x12 - (x1 + x2))) <= 1e-10


def test_solve_matches_thomas_sweep_bit_for_bit():
    rng = np.random.default_rng(99)
    for _ in range(300):
        n = int(rng.integers(1, 30))
        matrix, rhs = random_dominant(rng, n)
        expected = thomas_sweep(matrix.sub, matrix.diag, matrix.sup, rhs)
        got = np.array(solve(matrix, rhs.tolist()))
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("cells", [2, 3, 4, 50, 1000])
def test_step_matches_reference_step_bit_for_bit(cells):
    rng = np.random.default_rng(cells)
    for _ in range(40):
        nu = float(10.0 ** rng.uniform(-4.0, 6.0))
        alpha = float(10.0 ** rng.uniform(-2.0, 1.0))
        dt = nu / (alpha * cells**2)
        flux = FluxSign.INFLOW if rng.integers(2) else FluxSign.OUTFLOW
        values = rng.normal(size=cells + 1) * 10.0 ** rng.uniform(-3.0, 3.0)
        values[rng.random(cells + 1) < 0.1] = -0.0
        new = np.asarray(step(values.tolist(), flux, assemble(GridSpec(cells), dt, alpha)))
        expected = reference_step(values, flux, cells, dt, alpha)
        assert np.array_equal(new.view(np.int64), expected.view(np.int64))


def test_zero_leading_pivot_raises():
    with pytest.raises(SingularPivot):
        TridiagonalMatrix(sub=np.array([1.0]), diag=np.array([0.0, 1.0]), sup=np.array([1.0]))


def test_pivot_collapse_during_elimination_raises():
    # Elimination turns the second diagonal entry into 1 - 1*1 = 0.
    with pytest.raises(SingularPivot):
        TridiagonalMatrix(sub=np.array([1.0]), diag=np.array([1.0, 1.0]), sup=np.array([1.0]))


def test_pivot_floor_is_enforced():
    with pytest.raises(SingularPivot):
        TridiagonalMatrix(sub=np.zeros(0), diag=np.array([PIVOT_FLOOR / 10.0]), sup=np.zeros(0))


def test_nan_pivot_raises():
    with pytest.raises(SingularPivot):
        TridiagonalMatrix(sub=[], diag=[float("nan")], sup=[])
    with pytest.raises(SingularPivot):
        TridiagonalMatrix(sub=[1.0], diag=[1.0, float("nan")], sup=[1.0])


@pytest.mark.parametrize(
    "sub_len,diag_len,sup_len,rhs_len",
    [(1, 3, 2, 3), (2, 3, 1, 3), (2, 3, 2, 2), (0, 0, 0, 0)],
)
def test_inconsistent_lengths_rejected(sub_len, diag_len, sup_len, rhs_len):
    with pytest.raises(ValueError):
        matrix = TridiagonalMatrix(sub=np.zeros(sub_len), diag=np.ones(diag_len), sup=np.zeros(sup_len))
        solve(matrix, np.zeros(rhs_len))


def test_input_arrays_not_mutated():
    diag = np.array([2.0, 2.0, 2.0])
    rhs = np.array([1.0, 2.0, 3.0])
    matrix = TridiagonalMatrix(sub=np.array([-1.0, -1.0]), diag=diag, sup=np.array([-1.0, -1.0]))
    solve(matrix, rhs)
    assert np.array_equal(diag, [2.0, 2.0, 2.0])
    assert np.array_equal(rhs, [1.0, 2.0, 3.0])
