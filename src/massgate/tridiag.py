"""Thomas algorithm for tridiagonal linear systems, factored once.

Solves A x = rhs where A is laid out as

    [d0 u0                  ] [x0]     [r0]
    [l0 d1 u1               ] [x1]     [r1]
    [   l1 d2 u2            ] [x2]  =  [r2]
    [        ...            ]  ..       ..
    [           l_{n-2} d_{n-1}] [x_{n-1}] [r_{n-1}]

without pivoting.  ``TridiagonalMatrix`` runs the forward elimination
once; ``solve`` applies the stored multipliers and pivots to one rhs, in
the operation order of a full sweep, so results match it to the last bit.
The implicit diffusion step assembles matrices with 1 + 2*nu on the
diagonal and -nu off it (nu > 0), which are strictly diagonally dominant,
so pivoting is unnecessary.
"""

from __future__ import annotations

from collections.abc import Sequence

# Elimination aborts once a pivot drops below this magnitude.  Engineering
# guard against ill-conditioned input; the diffusion matrices stay far away.
PIVOT_FLOOR = 1e-14


class SingularPivot(ArithmeticError):
    """Forward elimination hit a pivot below ``PIVOT_FLOOR``, or NaN."""


class TridiagonalMatrix:
    """A tridiagonal matrix of order n >= 1 and its elimination factors.

    ``diag`` holds n entries, ``sub`` and ``sup`` the n - 1 off-diagonal
    entries.  Raises SingularPivot if any pivot falls below
    ``PIVOT_FLOOR`` during elimination or is NaN, as it is for a matrix
    built from an overflowed diffusion number.
    """

    def __init__(self, sub: Sequence[float], diag: Sequence[float], sup: Sequence[float]) -> None:
        self.sub = [float(v) for v in sub]
        self.diag = [float(v) for v in diag]
        self.sup = [float(v) for v in sup]
        n = len(self.diag)
        if n < 1 or len(self.sub) != n - 1 or len(self.sup) != n - 1:
            raise ValueError(f"need n >= 1 diagonal and n - 1 off-diagonal entries, got "
                             f"sub={len(self.sub)}, diag={n}, sup={len(self.sup)}")

        pivots = self.diag.copy()
        multipliers = []
        for i in range(1, n):
            pivot = pivots[i - 1]
            if not abs(pivot) >= PIVOT_FLOOR:
                raise SingularPivot(f"pivot {pivot:.3e} at row {i - 1}")
            w = self.sub[i - 1] / pivot
            pivots[i] -= w * self.sup[i - 1]
            multipliers.append(w)
        if not abs(pivots[-1]) >= PIVOT_FLOOR:
            raise SingularPivot(f"pivot {pivots[-1]:.3e} at row {n - 1}")

        self._multipliers = multipliers
        self._last_pivot = pivots[-1]
        # back substitution runs from row n - 2 down to row 0
        self._back_sup = self.sup[::-1]
        self._back_pivots = pivots[-2::-1]


def solve(matrix: TridiagonalMatrix, rhs: list[float]) -> list[float]:
    """Solve matrix @ x = rhs; returns x as a list of n floats.

    ``rhs`` holds n floats (a list is fastest, any sequence works) and is
    not modified.  For diagonally dominant input the residual max-norm is
    bounded by 1e-10 * (1 + max|rhs|).
    """
    if len(rhs) != len(matrix.diag):
        raise ValueError(f"rhs has {len(rhs)} entries, expected {len(matrix.diag)}")
    r = rhs[0]
    reduced = [r]
    for w, b in zip(matrix._multipliers, rhs[1:]):
        r = b - w * r
        reduced.append(r)

    x = reduced.pop() / matrix._last_pivot
    solution = [x]
    for r, u, pivot in zip(reversed(reduced), matrix._back_sup, matrix._back_pivots):
        x = (r - u * x) / pivot
        solution.append(x)
    solution.reverse()
    return solution
