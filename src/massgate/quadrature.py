"""Discrete total mass of a concentration field.

Two quadratures over the grid values U_0..U_J:

    interior Riemann:  dx * sum(U_1..U_{J-1})
    trapezoid:         (dx/2) * sum(U_j + U_{j+1}, j = 0..J-1)

The interior Riemann sum is the one for which the per-step mass identity
of the implicit scheme is exact; the trapezoid is the usual second-order
integral approximation.  They differ by exactly (dx/2) * (U_0 + U_J).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .stepper import GridSpec


class QuadratureKind(Enum):
    RIEMANN_INTERIOR = "riemann"
    TRAPEZOID = "trapezoid"


def mass(u: np.ndarray, grid: GridSpec, kind: QuadratureKind) -> float:
    """Total mass of the samples U_0..U_J under the chosen quadrature."""
    if len(u) != grid.cells + 1:
        raise ValueError(f"field has {len(u)} values, grid expects {grid.cells + 1}")
    if kind is QuadratureKind.RIEMANN_INTERIOR:
        return float(grid.dx * u[1:-1].sum())
    if kind is QuadratureKind.TRAPEZOID:
        return float(0.5 * grid.dx * (u[:-1] + u[1:]).sum())
    raise ValueError(f"unknown quadrature kind: {kind!r}")
