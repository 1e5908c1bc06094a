"""The tridiagonal solve of the step matrix (``stepper.solve``) against a
dense LU oracle and an exact solve in integer arithmetic, on step
matrices of random size and diffusion number."""

import struct

import numpy as np
import pytest

from massgate.stepper import FluxSign, GridSpec, StepMatrix, assemble, solve, step

EPS = float(np.finfo(float).eps)


def step_matrix(unknowns: int, nu: float) -> StepMatrix:
    """The factored step matrix of ``unknowns`` interior rows, J = unknowns + 1."""
    cells = unknowns + 1
    return assemble(GridSpec(cells), nu / cells**2, 1.0)


def random_system(rng: np.random.Generator, max_unknowns: int = 20) -> tuple[StepMatrix, np.ndarray]:
    """A step matrix with 1..max_unknowns rows and nu log-uniform over 1e-4
    to 1e3, and a right-hand side in [-5, 5]."""
    unknowns = int(rng.integers(1, max_unknowns + 1))
    matrix = step_matrix(unknowns, float(10.0 ** rng.uniform(-4.0, 3.0)))
    return matrix, rng.uniform(-5.0, 5.0, unknowns)


def dense(matrix: StepMatrix) -> np.ndarray:
    """The step matrix written out: identity plus nu times the Neumann
    Laplacian, whose end rows carry 1 on the diagonal (0 with one row)."""
    n = len(matrix.pivots)
    laplacian = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    laplacian[0, 0] -= 1.0
    laplacian[-1, -1] -= 1.0
    return np.eye(n) + matrix.nu * laplacian


def dense_solve(matrix: StepMatrix, rhs: np.ndarray) -> np.ndarray:
    """Brute-force oracle: assemble the dense matrix and LU-solve it."""
    return np.linalg.solve(dense(matrix), np.asarray(rhs, dtype=float))


def exact_solve(nu: float, rhs) -> tuple[list[int], int]:
    """The exact solution of the step matrix of len(rhs) rows at diffusion
    number ``nu`` (taken exactly, as every entry of ``rhs``): integer
    numerators over one common denominator.

    Scaled by nu's denominator q, the matrix has integer entries: diagonal
    q + 2a (q + a on the end rows, q with one row) and -a off it, nu = a/q.
    Elimination then runs in integers: theta_i, the leading principal
    minor of order i, gives pivot p_i = theta_{i+1} / theta_i; R_i =
    r_i * theta_i is the reduced right-hand side; and X_i = x_i * theta_n
    comes out of the back substitution by exact integer division.
    """
    a, q = float(nu).as_integer_ratio()
    n = len(rhs)
    ratios = [float(b).as_integer_ratio() for b in rhs]
    den = max(d for _, d in ratios)  # powers of two: the common denominator
    scaled = [c * (den // d) * q for c, d in ratios]
    diag = [q + 2 * a] * n
    if n == 1:
        diag[0] = q
    else:
        diag[0] -= a
        diag[-1] -= a
    theta = [1, diag[0]]
    reduced = [scaled[0]]
    for i in range(1, n):
        theta.append(diag[i] * theta[i] - a * a * theta[i - 1])
        reduced.append(scaled[i] * theta[i] + a * reduced[i - 1])
    det = theta[n]
    numerators = [reduced[-1]]
    for i in range(n - 2, -1, -1):
        numerator, remainder = divmod(reduced[i] * det + a * theta[i] * numerators[-1], theta[i + 1])
        assert remainder == 0
        numerators.append(numerator)
    numerators.reverse()
    return numerators, det * den


def max_error(x, exact: tuple[list[int], int]) -> float:
    """max_i |x_i - exact_i|, each correctly rounded to a float."""
    numerators, den = exact
    worst = 0.0
    for v, numerator in zip(x, numerators):
        m, k = float(v).as_integer_ratio()
        worst = max(worst, abs(m * den - numerator * k) / (k * den))
    return worst


def thomas_sweep(nu: float, rhs) -> np.ndarray:
    """The general Thomas algorithm on the step matrix's bands rounded to
    floats, over numpy arrays: pivots d_i - (nu/p_{i-1}) * nu, whose
    accuracy ``solve`` must keep."""
    n = len(rhs)
    diag = np.full(n, 1.0 + 2.0 * nu)
    if n == 1:
        diag[0] = 1.0
    else:
        diag[0] -= nu
        diag[-1] -= nu
    rhs = np.array(rhs, dtype=float)
    for i in range(1, n):
        w = -nu / diag[i - 1]
        diag[i] -= w * -nu
        rhs[i] -= w * rhs[i - 1]
    x = np.empty(n)
    x[-1] = rhs[-1] / diag[-1]
    for i in range(n - 2, -1, -1):
        x[i] = (rhs[i] + nu * x[i + 1]) / diag[i]
    return x


def assert_as_accurate_as_the_sweep(got, nu: float, rhs) -> None:
    """Error at most the sweep's error plus 4 eps of the solution's size,
    and at most 1e-14 of the larger of that size and the rhs's.  The rhs
    counts because a rounded multiplier errs by about eps * |rhs| on a
    row where the rhs cancels, as in the second row of [[1 + nu, -nu],
    [-nu, 1 + nu]] with b_1 ~ -b_0 at large nu: an error of 6.7e-14 of
    the solution there, where the sweep's is 5.6e-12."""
    exact = exact_solve(nu, rhs)
    numerators, den = exact
    size = max(map(abs, numerators)) / den
    error = max_error(got, exact)
    assert error <= max_error(thomas_sweep(nu, rhs), exact) + 4.0 * EPS * size
    assert error <= 1e-14 * max(size, float(np.max(np.abs(rhs))))


def test_identity_matrix_returns_rhs():
    matrix = step_matrix(3, 0.0)  # no diffusion: the identity
    assert np.array_equal(solve(matrix, [2.0, 3.0, 4.0]), [2.0, 3.0, 4.0])


def test_symmetric_two_by_two():
    matrix = step_matrix(2, 1.0)  # [[2, -1], [-1, 2]]
    assert np.allclose(solve(matrix, [1.0, 1.0]), [1.0, 1.0], atol=1e-14)


def test_order_one_system():
    matrix = step_matrix(1, 7.0)  # both end folds on one entry: exactly 1
    assert solve(matrix, [4.0]) == [4.0]


def test_matches_dense_oracle_order_four():
    rng = np.random.default_rng(42)
    matrix = step_matrix(4, float(10.0 ** rng.uniform(-4.0, 3.0)))
    rhs = rng.uniform(-5.0, 5.0, 4)
    assert np.max(np.abs(solve(matrix, rhs) - dense_solve(matrix, rhs))) <= 1e-10


def test_thousand_random_systems_match_dense_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        matrix, rhs = random_system(rng)
        worst = max(worst, float(np.max(np.abs(solve(matrix, rhs) - dense_solve(matrix, rhs)))))
    assert worst <= 1e-10


def test_residual_bound():
    rng = np.random.default_rng(7)
    for _ in range(100):
        matrix, rhs = random_system(rng)
        x = np.array(solve(matrix, rhs))
        residual = np.max(np.abs(dense(matrix) @ x - rhs))
        assert residual <= 1e-10 * (1.0 + np.max(np.abs(rhs)))


def test_linearity_in_rhs():
    rng = np.random.default_rng(11)
    for _ in range(50):
        matrix, _ = random_system(rng)
        n = len(matrix.pivots)
        b1 = rng.uniform(-3.0, 3.0, n)
        b2 = rng.uniform(-3.0, 3.0, n)
        x1 = np.array(solve(matrix, b1))
        x2 = np.array(solve(matrix, b2))
        x12 = np.array(solve(matrix, b1 + b2))
        assert np.max(np.abs(x12 - (x1 + x2))) <= 1e-10


def test_solve_matches_thomas_sweep_bit_for_bit():
    # The pivots come from the excess recurrence, not the sweep's, so the
    # solve is held to the exact solution, no less accurately than the
    # general Thomas sweep on the rounded bands.
    rng = np.random.default_rng(99)
    for _ in range(300):
        unknowns = int(rng.integers(1, 30))
        nu = float(10.0 ** rng.uniform(-4.0, 6.0))
        rhs = rng.uniform(-5.0, 5.0, unknowns)
        matrix = step_matrix(unknowns, nu)
        assert_as_accurate_as_the_sweep(solve(matrix, rhs.tolist()), matrix.nu, rhs)


@pytest.mark.parametrize("cells", [2, 3, 4, 50, 200])
def test_step_matches_reference_step_bit_for_bit(cells):
    # The interior of a step is the solve against the old interior plus
    # nu * dx * s at both ends, and each end value is its neighbour plus
    # dx * s, both held to the exact solution as in the test above.
    rng = np.random.default_rng(cells)
    dx = 1.0 / cells
    for _ in range(40):
        nu = float(10.0 ** rng.uniform(-4.0, 6.0))
        alpha = float(10.0 ** rng.uniform(-2.0, 1.0))
        dt = nu / (alpha * cells**2)
        flux = FluxSign.INFLOW if rng.integers(2) else FluxSign.OUTFLOW
        values = rng.normal(size=cells + 1) * 10.0 ** rng.uniform(-3.0, 3.0)
        values[rng.random(cells + 1) < 0.1] = -0.0
        matrix = assemble(GridSpec(cells), dt, alpha)
        new = step(values.tolist(), flux, matrix)
        rhs = values[1:-1].copy()
        rhs[0] += matrix.forcing * flux
        rhs[-1] += matrix.forcing * flux
        assert_as_accurate_as_the_sweep(new[1:-1], matrix.nu, rhs)
        assert new[0] == new[1] + dx * flux
        assert new[-1] == new[-2] + dx * flux


def test_rhs_length_rejected():
    matrix = step_matrix(3, 1.0)
    for rhs in ([], [0.0, 0.0], [0.0] * 4):
        with pytest.raises(ValueError):
            solve(matrix, rhs)


def test_input_arrays_not_mutated():
    matrix = step_matrix(3, 1.0)
    pivots = list(matrix.pivots)
    rhs = np.array([1.0, 2.0, 3.0])
    solve(matrix, rhs)
    assert matrix.pivots == pivots
    assert np.array_equal(rhs, [1.0, 2.0, 3.0])


def reference_solve(matrix: StepMatrix, rhs) -> list[float]:
    """``solve`` written as two loops over new lists: the forward pass
    appends the reduced right-hand side, and the back pass pops its last
    entry, appends the solution backwards and reverses it."""
    pivots = matrix.pivots
    r = rhs[0]
    reduced = [r]
    for w, b in zip(matrix.multipliers, rhs[1:]):
        r = b + w * r
        reduced.append(r)
    nu = matrix.nu
    x = reduced.pop() / pivots[-1]
    solution = [x]
    for r, pivot in zip(reversed(reduced), pivots[-2::-1]):
        x = (r + nu * x) / pivot
        solution.append(x)
    solution.reverse()
    return solution


def reference_step(values, flux: FluxSign, matrix: StepMatrix) -> list[float]:
    """``step`` written with a slice of ``values`` copied into a list, and
    the result rebuilt around the solve's list."""
    forcing = matrix.forcing * flux
    offset = matrix.dx * flux
    folded = matrix.folded is None
    rhs = list(values[1:] if folded else values[1:-1])
    rhs[0] += forcing
    if not folded or matrix.dx == 0.5:
        rhs[-1] += forcing
    x = reference_solve(matrix, rhs)
    return [x[0] + offset, *x] if folded else [x[0] + offset, *x, x[-1] + offset]


def bits(values) -> bytes:
    """The IEEE bytes of each float, so that -0.0 differs from 0.0."""
    return struct.pack(f"{len(values)}d", *values)


def signed_fields(rng: np.random.Generator, size: int) -> list[np.ndarray]:
    """Fields of ``size`` samples: all +0.0, all -0.0, and random values
    over six decades with about a fifth of them set to +0.0 or -0.0."""
    mixed = rng.normal(size=size) * 10.0 ** rng.uniform(-3.0, 3.0, size)
    mixed[rng.random(size) < 0.1] = 0.0
    mixed[rng.random(size) < 0.1] = -0.0
    return [np.zeros(size), np.full(size, -0.0), mixed]


@pytest.mark.parametrize("cells", [2, 3, 4, 5, 7, 50, 51, 1000, 10001])
def test_in_place_solve_and_step_match_the_two_loop_reference_bit_for_bit(cells):
    # The in-place elimination and the one-copy step do the reference's
    # arithmetic in its order, on the whole matrix and on its fold, for
    # list and numpy inputs, and leave their inputs as they were.
    rng = np.random.default_rng(cells)
    for nu in 10.0 ** np.arange(-6, 9, 2):
        whole = assemble(GridSpec(cells), float(nu) / cells**2, 1.0)
        for matrix in (whole, whole.folded):
            size = len(matrix.pivots) + (1 if matrix.folded is None else 2)  # U_0..U_h or U_0..U_J
            for field in signed_fields(rng, size):
                for values in (field.tolist(), field):
                    before = bits(values)
                    rhs = values[1:1 + len(matrix.pivots)]
                    rhs_before = bits(rhs)
                    assert bits(solve(matrix, rhs)) == bits(reference_solve(matrix, rhs))
                    assert bits(rhs) == rhs_before
                    for flux in FluxSign:
                        assert bits(step(values, flux, matrix)) == bits(reference_step(values, flux, matrix))
                    assert bits(values) == before
