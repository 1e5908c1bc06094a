"""One backward-implicit time step of u_t = diffusivity * u_xx on [0, 1].

The ends carry unit-magnitude flux conditions discretized first order and
one sided, at the new time level:

    (U_1 - U_0) / dx = -s,      (U_J - U_{J-1}) / dx = s,

with s the flux sign.  Substituting these into the first and last interior
rows leaves a tridiagonal system over U_1..U_{J-1} with interior stencil
(-nu, 1 + 2*nu, -nu) and 1 + nu on the end rows' diagonal, where
nu = diffusivity * dt / dx^2; the end values are reconstructed from the
flux conditions after the solve.

The matrix depends only on the grid, dt and the diffusivity, and the flux
enters through the right-hand side alone.  ``assemble`` therefore factors
it once per time-grid stage, and each ``step`` is one forward and back
substitution (``solve``) against those factors.

Elimination without pivoting (N. J. Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., ch. 9) has pivots p_i = d_i - nu^2/p_{i-1}.
The last, (1 + nu) - nu^2/p, lies between 1 and J but is the difference
of two numbers near nu, so it cancels once nu is large.  ``assemble``
carries instead each pivot's excess over nu, which subtracts nothing:

    e_0 = 1,    e_i = 1 + e_{i-1} * (nu / p_{i-1}),

with p_i = nu + e_i on every row but the last, whose pivot is e_i.  So
every pivot is at least 1 at any finite nu, and J = 2 has the one pivot 1.

Both ends carry the same flux, a run starts from the zero field and the
matrix is persymmetric, so every field of a run is mirror-symmetric,
U_j = U_{J-j}; a run holds U_0..U_h, h = J//2, and a step solves the
system folded onto U_1..U_h (A. Cantoni and P. Butler, Linear Algebra
Appl. 13, 1976), whose first h - 1 rows and factors are the full system's.
Its last row, the middle, meets U_{h+1} = U_h for odd J: an end row like
the full system's last, with pivot e_{h-1} = 1 + e_{h-2} w_{h-2}, where
w_i = nu/p_i.  For even J, U_{h+1} = U_{h-1} gives -2 nu U_{h-1} +
(1 + 2 nu) U_h: multiplier 2 w_{h-2} and pivot 1 + 2 e_{h-2} w_{h-2}, a
sum of positive terms, so at least 1.  With J = 2 or 3 the middle row is
the only one and its pivot is 1; for J = 2 it carries both ends' forcing.

A fold of at most ``KERNEL_ROWS`` = 64 rows at a finite nu also carries
a ``kernel``: ``solve``'s elimination written out by ``assemble`` as one
straight-line function, a statement per row over locals, with each
multiplier, each pivot and nu inlined as its repr, which parses back to
the same float.  It does the same operations in the same order, so it
gives the same bits; it only drops the interpreter's loop dispatch, and
a solve at J = 50 takes 1.8 us in place of 2.9 us.  Generating it costs
about 17 us and 9 KiB of peak allocation per row (1.1 ms at 64 rows;
CPython 3.11, 2-core Xeon), which a stage repays after a few hundred
steps.  A larger fold keeps the loop: J = 10000's 5000 rows would
compile for 0.19 s to save 8 ms over 200 steps.

The interior mass dx * sum(U_1..U_{J-1}) gains exactly
2 * diffusivity * dt * s per step (the stencil telescopes down to the two
boundary slopes), which is what makes threshold hits on specially chosen
time grids exact.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Sequence
from enum import IntEnum

from .analytic import ConfigError


class FluxSign(IntEnum):
    """Sign of the unit boundary flux; +1 pumps material in at both ends."""

    INFLOW = 1
    OUTFLOW = -1


class GridSpec(namedtuple("GridSpec", "cells")):
    """Uniform spatial discretization: ``cells`` intervals of width
    dx = 1/cells.  The time step is not part of the grid; each stage of
    a run's time grid supplies its own dt."""

    __slots__ = ()

    def __new__(cls, cells: int) -> GridSpec:
        if cells < 2:
            raise ConfigError("cells", f"need at least 2 spatial cells, got {cells}")
        return super().__new__(cls, cells)

    @property
    def dx(self) -> float:
        return 1.0 / self.cells


def diffusion_number(grid: GridSpec, dt: float, diffusivity: float) -> float:
    """nu = diffusivity * dt / dx^2, the implicit-scheme coupling factor."""
    return diffusivity * dt / grid.dx**2


class StepMatrix(namedtuple("StepMatrix", "multipliers pivots nu dx forcing folded kernel", defaults=(None,))):
    """The factored step matrix of one grid, dt and diffusivity: the
    elimination multipliers nu/p_0..nu/p_{n-2}, the pivots p_0..p_{n-1}
    of the n = J - 1 interior rows, nu, dx and nu * dx, the flux term of
    the end rows' right-hand side, the mirror fold's StepMatrix, and a
    fold's straight-line solve, its ``kernel``, or None (see the module
    docstring).  A kernel compares by identity, so two assembles of one
    small grid are no longer ``==``."""

    __slots__ = ()


KERNEL_ROWS = 64  # the most rows a fold's kernel unrolls


def _kernel(multipliers: list[float], pivots: list[float], nu: float) -> Callable[[Sequence[float]], list] | None:
    """``solve``'s elimination of these factors as one function of rhs,
    unrolled over locals x0..x{n-1}, with every factor inlined as its repr
    (which parses back to the same float); None past KERNEL_ROWS rows or
    at a non-finite nu, whose repr is not a float literal."""
    n = len(pivots)
    if n > KERNEL_ROWS or not math.isfinite(nu):
        return None
    x = [f"x{i}" for i in range(n)]
    body = [f"{', '.join(x)}, = rhs"]
    body += [f"x{i} = x{i} + {w!r} * x{i - 1}" for i, w in enumerate(multipliers, 1)]
    body.append(f"x{n - 1} = x{n - 1} / {pivots[-1]!r}")
    body += [f"x{i} = (x{i} + {nu!r} * x{i + 1}) / {pivots[i]!r}" for i in range(n - 2, -1, -1)]
    body.append(f"return [{', '.join(x)}]")
    namespace = {}
    exec("def kernel(rhs):\n " + "\n ".join(body), namespace)
    return namespace["kernel"]


def assemble(grid: GridSpec, dt: float, diffusivity: float) -> StepMatrix:
    """Factor the implicit matrix over the J-1 interior unknowns and its
    mirror fold by the pivot-excess recurrence of the module docstring,
    and compile the fold's kernel when it has one."""
    nu = diffusion_number(grid, dt, diffusivity)
    half, meets = grid.cells // 2, 2 - grid.cells % 2  # the middle row meets U_{h-1} once or twice
    multipliers = []
    pivots = []
    excess = 1.0
    fold = [], [1.0]  # the fold's multipliers and pivots while the middle row is its only row
    for i in range(grid.cells - 2):
        pivot = nu + excess
        multiplier = nu / pivot
        pivots.append(pivot)
        multipliers.append(multiplier)
        if i == half - 2:  # the last row before the middle one
            fold = multipliers[:i] + [meets * multiplier], pivots + [1.0 + meets * (excess * multiplier)]
        excess = 1.0 + excess * multiplier
    pivots.append(excess)
    forcing = nu * grid.dx
    folded = StepMatrix(*fold, nu, grid.dx, forcing, None, _kernel(*fold, nu))
    return StepMatrix(multipliers, pivots, nu, grid.dx, forcing, folded)


def solve(matrix: StepMatrix, rhs: list[float]) -> list[float]:
    """x with matrix @ x = rhs, as a new list; ``rhs`` holds n floats (a
    list is fastest, any sequence works) and is not modified.  A matrix
    with a kernel solves through it; otherwise one copy of ``rhs`` is
    eliminated in place: the forward pass leaves the reduced right-hand
    side, and the back pass overwrites that with x."""
    pivots = matrix.pivots
    n = len(pivots)
    if len(rhs) != n:
        raise ValueError(f"rhs has {len(rhs)} entries, expected {n}")
    if matrix.kernel is not None:
        return matrix.kernel(rhs)
    x = list(rhs)
    r = x[0]
    for i, w in enumerate(matrix.multipliers, 1):
        r = x[i] = x[i] + w * r

    nu = matrix.nu
    r = x[-1] = r / pivots[-1]
    for i in range(n - 2, -1, -1):
        r = x[i] = (x[i] + nu * r) / pivots[i]
    return x


def step(values: Sequence[float], flux: FluxSign, matrix: StepMatrix) -> list[float]:
    """The field one step (the matrix's dt) after ``values`` under the
    given flux sign, as a new list: U_0..U_J for an assembled matrix, and
    for its ``folded`` one U_0..U_h, h = J//2, of a mirror-symmetric
    field, a run's state.  The interior comes from ``solve``, with
    nu * dx * s added to the end rows of the right-hand side, one copy of
    ``values`` less its ends; U_0 and U_J follow from the one-sided flux
    conditions, added to the solve's list, so the discrete boundary
    slopes equal -s and +s exactly.  ``values`` is not modified.
    """
    forcing = matrix.forcing * flux
    offset = matrix.dx * flux
    folded = matrix.folded is None
    rhs = list(values)  # the one copy, for any sequence, numpy views included
    if not folded:
        del rhs[-1]
    del rhs[0]
    rhs[0] += forcing
    if not folded or matrix.dx == 0.5:  # the last row is an end row; in a fold only at J = 2
        rhs[-1] += forcing
    x = solve(matrix, rhs)
    x.insert(0, x[0] + offset)
    if not folded:
        x.append(x[-1] + offset)
    return x
