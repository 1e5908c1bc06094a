"""One backward-implicit time step of u_t = diffusivity * u_xx on [0, 1].

The ends carry unit-magnitude flux conditions discretized first order and
one sided, at the new time level:

    (U_1 - U_0) / dx = -s,      (U_J - U_{J-1}) / dx = s,

with s the flux sign.  Substituting these into the first and last interior
rows leaves a tridiagonal system over U_1..U_{J-1} with interior stencil
(-nu, 1 + 2*nu, -nu), nu = diffusivity * dt / dx^2; the end values are
reconstructed from the flux conditions after the solve.

The matrix depends only on the grid, dt and the diffusivity, and the flux
enters through the right-hand side alone.  ``assemble`` therefore builds
and factors it once per time-grid stage, and each ``step`` is one forward
and back substitution against those factors.

The interior mass dx * sum(U_1..U_{J-1}) gains exactly
2 * diffusivity * dt * s per step (the stencil telescopes down to the two
boundary slopes), which is what makes threshold hits on specially chosen
time grids exact.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import IntEnum

from .analytic import ConfigError
from .tridiag import TridiagonalMatrix, solve


class FluxSign(IntEnum):
    """Sign of the unit boundary flux; +1 pumps material in at both ends."""

    INFLOW = 1
    OUTFLOW = -1


@dataclass(frozen=True)
class GridSpec:
    """Uniform spatial discretization: ``cells`` intervals of width
    dx = 1/cells.  The time step is not part of the grid; each stage of
    a run's time grid supplies its own dt."""

    cells: int

    def __post_init__(self) -> None:
        if self.cells < 2:
            raise ConfigError("cells", f"need at least 2 spatial cells, got {self.cells}")

    @property
    def dx(self) -> float:
        return 1.0 / self.cells

    @property
    def points(self) -> list[float]:
        """Node coordinates x_j = j * dx, j = 0..cells."""
        dx = self.dx
        return [j * dx for j in range(self.cells + 1)]


def diffusion_number(grid: GridSpec, dt: float, diffusivity: float) -> float:
    """nu = diffusivity * dt / dx^2, the implicit-scheme coupling factor."""
    return diffusivity * dt / grid.dx**2


@dataclass(frozen=True, eq=False)
class StepMatrix:
    """The factored step matrix of one grid, dt and diffusivity."""

    system: TridiagonalMatrix
    dx: float
    forcing: float  # nu * dx, the flux term of the end rows' right-hand side


def assemble(grid: GridSpec, dt: float, diffusivity: float) -> StepMatrix:
    """Build and factor the implicit matrix over the J-1 interior unknowns.

    Folding the eliminated end values into the first and last rows drops
    those diagonal entries to 1 + nu.  With one unknown (J = 2) both
    folds land on the same entry, which is exactly 1.
    """
    nu = diffusion_number(grid, dt, diffusivity)
    unknowns = grid.cells - 1

    diag = [1.0 + 2.0 * nu] * unknowns
    if unknowns == 1:
        diag[0] = 1.0  # (1 + 2*nu) - nu - nu rounds to 0 from nu ~ 1e16
    else:
        diag[0] -= nu
        diag[-1] -= nu
    off = [-nu] * (unknowns - 1)
    return StepMatrix(TridiagonalMatrix(sub=off, diag=diag, sup=off), grid.dx, nu * grid.dx)


def step(values: Sequence[float], flux: FluxSign, matrix: StepMatrix) -> list[float]:
    """The samples U_0..U_J one step (the matrix's dt) after ``values``
    under the given flux sign, as a new list.

    The interior comes from the tridiagonal solve, with nu * dx * s added
    to both ends of the right-hand side; the end values follow from the
    one-sided flux conditions, so the discrete boundary slopes equal -s
    and +s exactly.
    """
    forcing = matrix.forcing * flux
    rhs = list(values[1:-1])  # a copy for any sequence, numpy views included
    rhs[0] += forcing
    rhs[-1] += forcing
    interior = solve(matrix.system, rhs)
    offset = matrix.dx * flux
    return [interior[0] + offset, *interior, interior[-1] + offset]
