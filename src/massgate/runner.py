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
from collections import namedtuple
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
# fraction below 1/2 is unambiguous.  Landing residuals come close to
# this slack: over 200 random adaptive configs (M log-uniform over 1 to
# 1e14, J from 2 to 1000, N0 = Nstage from 1 to 6) the worst among the
# runs that completed was 9.55e-7 of an increment.
STEP_SLACK = 1e-6


class Stage(namedtuple("Stage", "start dt steps")):
    """``steps`` steps of size ``dt``; step i (1-based) ends at start + i * dt."""

    __slots__ = ()

    @property
    def end(self) -> float:
        return self.start + self.steps * self.dt


def _steps_to_horizon(start: float, dt: float, horizon: float) -> int:
    """Steps of size dt from ``start`` until a step ends at or past the
    horizon; any count past a machine index comes out as 2**63."""
    return max(0, math.ceil(min((horizon - start) / dt - STEP_SLACK, 2.0**63)))


class FixedGrid(namedtuple("FixedGrid", "steps")):
    """``steps`` uniform steps over the whole run."""

    __slots__ = ()

    def __new__(cls, steps: int) -> FixedGrid:
        if steps < 1:
            raise ConfigError("steps", f"need at least 1 time step, got {steps}")
        return super().__new__(cls, steps)

    def stages(self, control: ControlConfig) -> tuple[Stage, ...]:
        return (Stage(start=0.0, dt=control.horizon / self.steps, steps=self.steps),)


class AdaptiveGrid(namedtuple("AdaptiveGrid", "first_stage_steps stage_steps")):
    """Stage-sized time steps that hit the thresholds exactly."""

    __slots__ = ()

    def __new__(cls, first_stage_steps: int, stage_steps: int) -> AdaptiveGrid:
        if first_stage_steps < 1:
            raise ConfigError("first_stage_steps", f"must be >= 1, got {first_stage_steps}")
        if stage_steps < 1:
            raise ConfigError("stage_steps", f"must be >= 1, got {stage_steps}")
        return super().__new__(cls, first_stage_steps, stage_steps)

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


class RunConfig(namedtuple("RunConfig", "control grid quadrature mode snapshot_stride")):
    """Everything one simulation needs: a ``ControlConfig``, a ``GridSpec``,
    a ``QuadratureKind``, a ``FixedGrid`` or ``AdaptiveGrid`` and the
    snapshot stride (0 = no snapshots)."""

    __slots__ = ()

    def __new__(cls, control: ControlConfig, grid: GridSpec, quadrature: QuadratureKind,
                mode: FixedGrid | AdaptiveGrid, snapshot_stride: int = 0) -> RunConfig:
        if snapshot_stride < 0:
            raise ConfigError("snapshot_stride", f"must be >= 0, got {snapshot_stride}")
        # Only the interior Riemann mass advances by exactly 2 * diffusivity
        # * dt per step, which lands the adaptive stage ends on the thresholds.
        riemann = quadrature is QuadratureKind.RIEMANN_INTERIOR
        if isinstance(mode, AdaptiveGrid) and not riemann:
            raise ConfigError("quadrature", "adaptive grids require the interior Riemann quadrature")
        return super().__new__(cls, control, grid, quadrature, mode, snapshot_stride)


class FieldState(namedtuple("FieldState", "values time")):
    """A snapshot: concentration samples U_0..U_J at one time, stored by
    a run as an ``array('d')``."""

    __slots__ = ()


class Trajectory(namedtuple("Trajectory", "times masses fluxes snapshots events")):
    """Per-step record of one run: times, masses and the flux sign used
    for each step, a tuple of ``FieldState`` snapshots, and the tuple of
    detected ``SwitchEvent``s.

    A run stores the columns as ``array('d')`` (times, masses) and
    ``array('b')`` (fluxes); ``numpy.asarray`` takes them without a copy.
    """

    __slots__ = ()

    def __new__(cls, times: array, masses: array, fluxes: array, snapshots: tuple,
                events: tuple) -> Trajectory:
        if not all(a < b for a, b in pairwise(times)):
            raise ValueError("sample times must be strictly increasing")
        if not all(map(math.isfinite, masses)):
            raise ValueError("mass samples must be finite")
        return super().__new__(cls, times, masses, fluxes, snapshots, events)


class EventError(namedtuple("EventError", "index computed_time oracle_time error bound within_bound")):
    """One detected switch paired with its closed-form counterpart."""

    __slots__ = ()


class ErrorReport(namedtuple("ErrorReport", "events max_abs_error mean_spacing")):
    """The ``EventError`` of every detected switch, their largest |error|
    (None without switches) and the mean time between switches (None
    with fewer than two)."""

    __slots__ = ()


def run(config: RunConfig, on_snapshot=None, on_switch=None) -> Trajectory:
    """Step from the zero field through every stage of the time grid.

    Each stage with steps assembles its step matrix once.  The field is a
    plain list; after each step its mass is evaluated with the configured
    quadrature and fed to the relay, whose flip, if any, takes effect on
    the next step.  Step i of a stage is stamped start + i * dt, the only
    clock, so the times carry no running-sum drift.  Deterministic:
    identical configs give identical output.

    Every ``snapshot_stride`` steps, ``on_snapshot(values, time)`` gets
    the field, which it must copy to keep; by default the copies are the
    returned ``snapshots``, which are empty when a sink is given.  Each
    ``SwitchEvent`` goes to ``on_switch(event)``, if given, as soon as the
    relay appends it; the returned ``events`` hold every one either way.
    With debug logging on, each switch is logged as it is appended.
    """
    control, grid, quadrature, mode, stride = config
    stages = mode.stages(control)
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
    if on_snapshot is None:
        def on_snapshot(values: list[float], time: float) -> None:
            snapshots.append(FieldState(array("d", values), time))
    if log.isEnabledFor(logging.DEBUG):  # checked once per run, not per step
        on_switch = _logged(on_switch, control)

    n = 0
    for start, dt, steps in stages:
        if not steps:
            continue  # its dt, sized past the horizon, may not even factor
        matrix = assemble(grid, dt, control.diffusivity)
        window = STEP_SLACK * analytic.mass_rate(control) * dt
        for i in range(1, steps + 1):
            time = start + i * dt
            values = step(values, flux, matrix)
            mu = mass(values, grid, quadrature)
            times[n] = time
            masses[n] = mu
            fluxes[n] = flux
            n += 1
            if stride and n % stride == 0:
                on_snapshot(values, time)
            last = flux
            flux = observe(events, mu, time, control, window)
            if flux is not last and on_switch is not None:  # a flip is an appended switch
                on_switch(events[-1])

    log.info("run: %d steps in %d stages, %d switches", n, len(stages), len(events))
    return Trajectory(
        times=times,
        masses=masses,
        fluxes=fluxes,
        snapshots=tuple(snapshots),
        events=tuple(events),
    )


def _logged(on_switch, control: ControlConfig):
    """``on_switch``, if any, behind a debug line for each switch: its
    index, time, mass and overshoot past the threshold it crossed."""
    def logged(event: SwitchEvent) -> None:
        index, time, mu = event
        overshoot = mu - control.upper if index % 2 else control.lower - mu
        log.debug("switch %d at t=%r: mass %r, overshoot %r", index, time, mu, overshoot)
        if on_switch is not None:
            on_switch(event)

    return logged


def event_pairer(control: ControlConfig, stages: tuple[Stage, ...]):
    """``pair(index, time)``: the ``EventError`` of switch ``index``
    detected at ``time`` on the time grid of ``stages``.

    A switch is within bound when -STEP_SLACK * dt <= error < k * dt,
    with dt the step that detected it.  A switch detected before its
    closed-form time, including one whose closed-form time lies past the
    horizon, has a negative error and is reported out of bound.

    Pair the switches in ascending time, as ``observe`` appends them, so
    that one pass over the stages finds each switch's dt.
    """
    stages = iter(stages)
    stage = next(stages)

    def pair(index: int, time: float) -> EventError:
        nonlocal stage
        # dt of the step that detected the switch; the last stage's past its end
        while time > stage.end and (later := next(stages, None)) is not None:
            stage = later
        dt = stage.dt
        oracle_time = analytic.switch_time(index, control)
        bound = index * dt
        error = time - oracle_time
        return EventError(index, time, oracle_time, error, bound, -STEP_SLACK * dt <= error < bound)

    return pair


def error_report(rows) -> ErrorReport:
    """The ``ErrorReport`` of paired switches given in ascending time."""
    rows = tuple(rows)
    max_abs_error = max(abs(r.error) for r in rows) if rows else None
    spacings = [b.computed_time - a.computed_time for a, b in pairwise(rows)]
    # numpy.mean's order: the pairwise sum, divided by the count
    mean_spacing = pairwise_sum(spacings) / len(spacings) if spacings else None
    return ErrorReport(events=rows, max_abs_error=max_abs_error, mean_spacing=mean_spacing)


def compare_with_oracle(traj: Trajectory, run_config: RunConfig) -> ErrorReport:
    """Pair each detected switch with its closed-form time (``event_pairer``)."""
    control = run_config.control
    pair = event_pairer(control, run_config.mode.stages(control))
    return error_report([pair(index, time) for index, time, _ in traj.events])
