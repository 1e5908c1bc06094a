"""Full controlled simulations: one stepping loop over a time grid given
as a schedule of stages, each ``steps`` steps of one dt.

Fixed grid: one stage of dt = horizon/steps; crossings land on the grid.
With the interior-Riemann mass the k-th lags its closed-form time by
less than (2k - 1) * dt.

Adaptive grid: the first stage uses dt sized so the interior-Riemann mass
lands exactly on the upper threshold after ``first_stage_steps`` steps,
and the second uses dt sized so it lands exactly on the opposite
threshold every ``stage_steps`` steps.  The detected switch times then
coincide with the closed-form ones at any threshold size and horizon.

``compare_with_oracle`` pairs each detected switch against the closed
form and checks the per-switch error bound
-STEP_SLACK * dt <= error < k * dt, which fixed grids can miss.
"""

from __future__ import annotations

import logging
import math
import sys
from array import array
from dataclasses import dataclass
from itertools import pairwise

from . import analytic
from .analytic import ConfigError, ControlConfig
from .controller import SwitchEvent, observe
from .quadrature import QuadratureKind, mass, pairwise_sum
from .stepper import FluxSign, GridSpec, assemble, step

log = logging.getLogger(__name__)

# What counts as reaching, as a fraction of one step: the relay's window
# (of the step's mass increment), the oracle's slack below 0 <= error and
# the horizon's slack.  Roundoff scales with the thresholds and the step,
# so no absolute slack holds at every scale.  An adaptive stage lands on a
# threshold one step after falling a whole increment short, so any
# fraction below 1/2 is unambiguous; landing residuals reach 2.3e-8.
STEP_SLACK = 1e-6


@dataclass(frozen=True)
class Stage:
    """``steps`` steps of size ``dt``; step i (1-based) ends at start + i * dt."""

    start: float
    dt: float
    steps: int

    @property
    def end(self) -> float:
        return self.start + self.steps * self.dt


def _steps_to_horizon(start: float, dt: float, horizon: float) -> int:
    """Steps of size dt from ``start`` until a step ends at or past the
    horizon; any count past a machine index comes out as 2**63."""
    return max(0, math.ceil(min((horizon - start) / dt - STEP_SLACK, 2.0**63)))


@dataclass(frozen=True)
class FixedGrid:
    """``steps`` uniform steps over the whole run."""

    steps: int

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ConfigError("steps", f"need at least 1 time step, got {self.steps}")

    def stages(self, control: ControlConfig) -> tuple[Stage, ...]:
        return (Stage(start=0.0, dt=control.horizon / self.steps, steps=self.steps),)


@dataclass(frozen=True)
class AdaptiveGrid:
    """Stage-sized time steps that hit the thresholds exactly."""

    first_stage_steps: int
    stage_steps: int

    def __post_init__(self) -> None:
        if self.first_stage_steps < 1:
            raise ConfigError("first_stage_steps", f"must be >= 1, got {self.first_stage_steps}")
        if self.stage_steps < 1:
            raise ConfigError("stage_steps", f"must be >= 1, got {self.stage_steps}")

    def stages(self, control: ControlConfig) -> tuple[Stage, ...]:
        """The climb from zero mass to the upper threshold, then steps that
        take the mass between the thresholds in ``stage_steps`` steps.

        Either stage stops early at the horizon, so the run is bounded.
        """
        rate = analytic.mass_rate(control)
        climb_dt = control.upper / (rate * self.first_stage_steps)
        climb_steps = min(self.first_stage_steps, _steps_to_horizon(0.0, climb_dt, control.horizon))
        climb = Stage(start=0.0, dt=climb_dt, steps=climb_steps)
        if climb_steps < self.first_stage_steps:
            return (climb,)
        span = control.upper - control.lower
        dt = span / (rate * self.stage_steps)
        steps = _steps_to_horizon(climb.end, dt, control.horizon)
        return (climb, Stage(start=climb.end, dt=dt, steps=steps))


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulation needs."""

    control: ControlConfig
    grid: GridSpec
    quadrature: QuadratureKind
    mode: FixedGrid | AdaptiveGrid
    snapshot_stride: int = 0

    def __post_init__(self) -> None:
        if self.snapshot_stride < 0:
            raise ConfigError("snapshot_stride", f"must be >= 0, got {self.snapshot_stride}")
        # Only the interior Riemann mass advances by exactly 2 * diffusivity
        # * dt per step, which lands the adaptive stage ends on the thresholds.
        riemann = self.quadrature is QuadratureKind.RIEMANN_INTERIOR
        if isinstance(self.mode, AdaptiveGrid) and not riemann:
            raise ConfigError("quadrature", "adaptive grids require the interior Riemann quadrature")


@dataclass(frozen=True, eq=False)
class FieldState:
    """A snapshot: concentration samples U_0..U_J at one time, stored by
    a run as an ``array('d')``."""

    values: array
    time: float


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Per-step record of one run: times, masses and the flux sign used
    for each step, optional field snapshots, and the detected switches.

    A run stores the columns as ``array('d')`` (times, masses) and
    ``array('b')`` (fluxes); ``numpy.asarray`` takes them without a copy.
    """

    times: array
    masses: array
    fluxes: array
    snapshots: tuple[FieldState, ...]
    events: tuple[SwitchEvent, ...]

    def __post_init__(self) -> None:
        if not all(a < b for a, b in pairwise(self.times)):
            raise ValueError("sample times must be strictly increasing")
        if not all(map(math.isfinite, self.masses)):
            raise ValueError("mass samples must be finite")


@dataclass(frozen=True)
class EventError:
    """One detected switch paired with its closed-form counterpart."""

    index: int
    computed_time: float
    oracle_time: float
    error: float
    bound: float
    within_bound: bool


@dataclass(frozen=True)
class ErrorReport:
    events: tuple[EventError, ...]
    max_abs_error: float | None
    mean_spacing: float | None


def run(config: RunConfig) -> Trajectory:
    """Step from the zero field through every stage of the time grid.

    Each stage with steps assembles its step matrix once.  The field is a
    plain list; after each step its mass is evaluated with the configured
    quadrature and fed to the relay, whose flip, if any, takes effect on
    the next step.  Step i of a stage is stamped start + i * dt, the only
    clock, so the times carry no running-sum drift.  Deterministic:
    identical configs give identical output.
    """
    grid = config.grid
    control = config.control
    stages = config.mode.stages(control)
    total = sum(stage.steps for stage in stages)
    if total > sys.maxsize:  # an adaptive schedule up to a far horizon
        raise ConfigError("horizon", "more time steps up to it than a machine index can count")

    values = [0.0] * (grid.cells + 1)
    events: list[SwitchEvent] = []
    flux = FluxSign.INFLOW
    # allocated up front, so a step count too large for memory fails at once
    times = array("d", [0.0]) * total
    masses = array("d", [0.0]) * total
    fluxes = array("b", [0]) * total
    snapshots: list[FieldState] = []

    n = 0
    for stage in stages:
        if not stage.steps:
            continue  # its dt, sized past the horizon, may not even factor
        matrix = assemble(grid, stage.dt, control.diffusivity)
        window = STEP_SLACK * analytic.mass_rate(control) * stage.dt
        for i in range(1, stage.steps + 1):
            time = stage.start + i * stage.dt
            values = step(values, flux, matrix)
            mu = mass(values, grid, config.quadrature)
            times[n] = time
            masses[n] = mu
            fluxes[n] = flux
            n += 1
            if config.snapshot_stride and n % config.snapshot_stride == 0:
                snapshots.append(FieldState(values=array("d", values), time=time))
            flux = observe(events, mu, time, control, window)

    log.info("run: %d steps in %d stages, %d switches", n, len(stages), len(events))
    return Trajectory(
        times=times,
        masses=masses,
        fluxes=fluxes,
        snapshots=tuple(snapshots),
        events=tuple(events),
    )


def compare_with_oracle(traj: Trajectory, run_config: RunConfig) -> ErrorReport:
    """Pair each detected switch with its closed-form time.

    A switch is within bound when -STEP_SLACK * dt <= error < k * dt,
    with dt the step that detected it.  A switch detected before its
    closed-form time, including one whose closed-form time lies past the
    horizon, has a negative error and is reported out of bound.
    """
    control = run_config.control
    stages = run_config.mode.stages(control)
    rows = []
    for ev in traj.events:
        oracle_time = analytic.switch_time(ev.index, control)
        # dt of the step that detected the switch
        dt = next((stage.dt for stage in stages if ev.time <= stage.end), stages[-1].dt)
        bound = ev.index * dt
        error = ev.time - oracle_time
        rows.append(
            EventError(
                index=ev.index,
                computed_time=ev.time,
                oracle_time=oracle_time,
                error=error,
                bound=bound,
                within_bound=bool(-STEP_SLACK * dt <= error < bound),
            )
        )

    event_times = [ev.time for ev in traj.events]
    max_abs_error = max(abs(r.error) for r in rows) if rows else None
    spacings = [b - a for a, b in pairwise(event_times)]
    # numpy.mean's order: the pairwise sum, divided by the count
    mean_spacing = pairwise_sum(spacings) / len(spacings) if spacings else None
    return ErrorReport(events=tuple(rows), max_abs_error=max_abs_error, mean_spacing=mean_spacing)
