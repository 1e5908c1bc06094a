"""Discrete total mass of a concentration field.

Two quadratures over the grid values U_0..U_J:

    interior Riemann:  dx * sum(U_1..U_{J-1})
    trapezoid:         (dx/2) * sum(U_j + U_{j+1}, j = 0..J-1)

The interior Riemann sum is the one for which the per-step mass identity
of the implicit scheme is exact; the trapezoid is the usual second-order
integral approximation.  They differ by exactly (dx/2) * (U_0 + U_J).

Both sums add in the order of numpy's float64 ``add.reduce``, pairwise
over blocks of at most 128 terms with eight accumulators in each, so the
masses match those of ``u[1:-1].sum()`` and ``(u[:-1] + u[1:]).sum()`` to
the last bit (N. J. Higham, "The accuracy of floating point summation",
SIAM J. Sci. Comput. 14(4), 1993).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from enum import Enum

from .stepper import GridSpec

# numpy's pairwise block: at most this many terms are added without a split
_BLOCK = 128
# a block sum: (sequence, first index, number of terms) -> sum
_Block = Callable[[Sequence[float], int, int], float]


class QuadratureKind(Enum):
    RIEMANN_INTERIOR = "riemann"
    TRAPEZOID = "trapezoid"


def _values_block(a: Sequence[float], lo: int, n: int) -> float:
    """a[lo] + ... + a[lo + n - 1], n <= _BLOCK, in numpy's block order."""
    if n < 8:
        res = -0.0
        for i in range(lo, lo + n):
            res += a[i]
        return res
    # eight strided accumulators, combined pairwise, then the tail in order
    end = lo + n - n % 8
    r0, r1, r2, r3, r4, r5, r6, r7 = a[lo:lo + 8]
    for i in range(lo + 8, end, 8):
        r0 += a[i]; r1 += a[i + 1]; r2 += a[i + 2]; r3 += a[i + 3]
        r4 += a[i + 4]; r5 += a[i + 5]; r6 += a[i + 6]; r7 += a[i + 7]
    res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for i in range(end, lo + n):
        res += a[i]
    return res


def _pairs_block(u: Sequence[float], lo: int, n: int) -> float:
    """The block sum of the n terms u[i] + u[i + 1], i = lo..lo + n - 1,
    each formed where it is added, without a list of the terms."""
    if n < 8:
        res = -0.0
        for i in range(lo, lo + n):
            res += u[i] + u[i + 1]
        return res
    end = lo + n - n % 8
    x0, x1, x2, x3, x4, x5, x6, x7, x8 = u[lo:lo + 9]
    r0 = x0 + x1; r1 = x1 + x2; r2 = x2 + x3; r3 = x3 + x4
    r4 = x4 + x5; r5 = x5 + x6; r6 = x6 + x7; r7 = x7 + x8
    for i in range(lo + 8, end, 8):
        x0, x1, x2, x3, x4, x5, x6, x7, x8 = u[i:i + 9]
        r0 += x0 + x1; r1 += x1 + x2; r2 += x2 + x3; r3 += x3 + x4
        r4 += x4 + x5; r5 += x5 + x6; r6 += x6 + x7; r7 += x7 + x8
    res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for i in range(end, lo + n):
        res += u[i] + u[i + 1]
    return res


def _pairwise(block: _Block, a: Sequence[float], lo: int, n: int) -> float:
    """Sum n terms from index lo: blocks of at most _BLOCK terms, split in
    halves rounded down to a multiple of 8."""
    if n <= _BLOCK:
        return block(a, lo, n)
    half = n // 2
    half -= half % 8
    return _pairwise(block, a, lo, half) + _pairwise(block, a, lo + half, n - half)


def pairwise_sum(values: Sequence[float]) -> float:
    """The sum of ``values``, bit for bit what numpy's float64 ``sum`` gives.

    Like every sum here, it adds the pairwise sum to the reduction's start
    value 0.0, which turns a sum of -0.0 into 0.0 as numpy does."""
    return 0.0 + _pairwise(_values_block, values, 0, len(values))


def mass(u: Sequence[float], grid: GridSpec, kind: QuadratureKind) -> float:
    """Total mass of the samples U_0..U_J under the chosen quadrature."""
    if len(u) != grid.cells + 1:
        raise ValueError(f"field has {len(u)} values, grid expects {grid.cells + 1}")
    if kind is QuadratureKind.RIEMANN_INTERIOR:
        return grid.dx * (0.0 + _pairwise(_values_block, u, 1, grid.cells - 1))
    if kind is QuadratureKind.TRAPEZOID:
        return 0.5 * grid.dx * (0.0 + _pairwise(_pairs_block, u, 0, grid.cells))
    raise ValueError(f"unknown quadrature kind: {kind!r}")
