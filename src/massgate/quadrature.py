"""Discrete total mass of a concentration field.

Two quadratures over the grid values U_0..U_J:

    interior Riemann:  dx * sum(U_1..U_{J-1})
    trapezoid:         dx * sum(U_0/2, U_1..U_{J-1}, U_J/2)

The interior Riemann sum is the one for which the per-step mass identity
of the implicit scheme is exact; the trapezoid is the usual second-order
integral approximation.  They differ by exactly (dx/2) * (U_0 + U_J).

Each sum is one ``math.fsum``, Shewchuk's exact summation in C: the
correctly rounded sum, whatever the order of the terms and the Python
version (J. R. Shewchuk, Discrete Comput. Geom. 18, 1997).  Halving a
normal float is exact, so the trapezoid is rounded only once too.

``pairwise_sum`` keeps numpy's float64 ``add.reduce`` order, pairwise
over blocks of at most 128 terms with eight accumulators in each, so the
mean switch spacing that report.json prints with %r is bit for bit
``np.mean(np.diff(times))`` (N. J. Higham, SIAM J. Sci. Comput. 14(4),
1993).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from enum import Enum

from .stepper import GridSpec

# numpy's pairwise block: at most this many terms are added without a split
_BLOCK = 128


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


def _pairwise(a: Sequence[float], lo: int, n: int) -> float:
    """Sum n terms from index lo: blocks of at most _BLOCK terms, split in
    halves rounded down to a multiple of 8."""
    if n <= _BLOCK:
        return _values_block(a, lo, n)
    half = n // 2
    half -= half % 8
    return _pairwise(a, lo, half) + _pairwise(a, lo + half, n - half)


def pairwise_sum(values: Sequence[float]) -> float:
    """The sum of ``values``, bit for bit what numpy's float64 ``sum`` gives.

    Like every sum here, it adds the sum to the reduction's start value
    0.0, which turns a sum of -0.0 into 0.0 as numpy does."""
    return 0.0 + _pairwise(values, 0, len(values))


def _fsum(terms: Sequence[float]) -> float:
    """The correctly rounded sum of ``terms``: +-inf past the float range
    and nan for inf + -inf, where ``math.fsum`` raises instead."""
    try:
        return 0.0 + math.fsum(terms)
    except ValueError:  # inf + -inf
        return math.nan
    except OverflowError:  # a partial sum overflowed; over a scale past 2 * len(terms), none can
        scale = 2.0 ** (len(terms).bit_length() + 1)
        return _fsum([x / scale for x in terms]) * scale


def mass(u: Sequence[float], grid: GridSpec, kind: QuadratureKind) -> float:
    """Total mass of the samples U_0..U_J under the chosen quadrature:
    dx times the correctly rounded sum of the weighted samples."""
    cells = grid.cells
    if len(u) != cells + 1:
        raise ValueError(f"field has {len(u)} values, grid expects {cells + 1}")
    if kind is QuadratureKind.RIEMANN_INTERIOR:
        terms = u[1:cells]
    elif kind is QuadratureKind.TRAPEZOID:
        terms = list(u)  # the end samples weigh half
        terms[0] *= 0.5
        terms[cells] *= 0.5
    else:
        raise ValueError(f"unknown quadrature kind: {kind!r}")
    return grid.dx * _fsum(terms)
