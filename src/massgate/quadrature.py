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

A field mirror-symmetric about x = 1/2, as every field of a run is, may
be given as its half U_0..U_h, h = J//2.  Its mass is 2 * dx times the
fsum of the half's terms, with the trapezoid's U_0 and an even J's
middle sample, its own mirror, halved.  Doubling is exact and fsum
correctly rounded, so that is the same float as the whole field's mass,
except where a halved sample is subnormal.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from enum import Enum

from .stepper import GridSpec


class QuadratureKind(Enum):
    RIEMANN_INTERIOR = "riemann"
    TRAPEZOID = "trapezoid"


# Plain names for the members: ``mass`` runs every step, and an Enum class read is slow.
_RIEMANN, _TRAPEZOID = QuadratureKind.RIEMANN_INTERIOR, QuadratureKind.TRAPEZOID


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
    """Total mass of the samples U_0..U_J, or of the half U_0..U_h of a
    mirror-symmetric field, told apart by length, under the chosen
    quadrature: dx times the correctly rounded sum of the weighted samples."""
    cells = grid.cells
    whole = len(u) == cells + 1
    if not whole and len(u) != cells // 2 + 1:
        raise ValueError(f"field has {len(u)} values, grid expects {cells + 1}, or its half {cells // 2 + 1}")
    terms = list(u)  # the one copy, for any sequence, numpy views included
    if kind is _RIEMANN:
        if whole:
            del terms[cells]
        del terms[0]
    elif kind is _TRAPEZOID:
        terms[0] *= 0.5  # the end samples weigh half
        if whole:
            terms[cells] *= 0.5
    else:
        raise ValueError(f"unknown quadrature kind: {kind!r}")
    dx = 1.0 / cells  # GridSpec.dx, without the property call
    if whole:
        return dx * _fsum(terms)
    if cells % 2 == 0:  # the middle sample is its own mirror
        terms[-1] *= 0.5
    return dx * (2.0 * _fsum(terms))
