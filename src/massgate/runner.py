"""Full controlled simulations: one stepping loop over a time grid given
as a schedule of stages, each ``steps`` steps of one dt.

Fixed grid: one stage of dt = horizon/steps; crossings land on the grid.
With the interior-Riemann mass the k-th lags its closed-form time by
less than (2k - 1) * dt.  Each step adds +-q, q = 2 * alpha * dt, to it,
and the relay flips on the first step within w = STEP_SLACK * q of a
threshold, so switch k falls on step c_up + (k - 1)(c_up - c_lo), with
c_up = ceil((M - w)/q) and c_lo = floor((m + w)/q).  Then c_up*q - M
lies in [-w, q) and (c_up - c_lo)*q - (M - m) in [-2w, 2q), and as
t_k = (M + (k - 1)(M - m)) * dt/q, the lag is dt/q times the first plus
k - 1 times the second: it lies in [-(2k - 1) * STEP_SLACK, 2k - 1) * dt.

Adaptive grid: the first stage uses dt sized so the interior-Riemann mass
lands exactly on the upper threshold after ``first_stage_steps`` steps,
and the second uses dt sized so it lands exactly on the opposite
threshold every ``stage_steps`` steps.  The detected switch times then
coincide with the closed-form ones at any threshold size and horizon.

``compare_with_oracle`` pairs each detected switch with its closed-form
time and checks the per-switch error bound
-STEP_SLACK * dt <= error < k * dt, which fixed grids can miss.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import namedtuple
from itertools import pairwise

from . import analytic, stepper
from .analytic import ConfigError, ControlConfig
from .controller import SwitchEvent, observe
from .quadrature import QuadratureKind, _fsum, mass
from .stepper import FluxSign, GridSpec, diffusion_number, step

# What counts as reaching, as a fraction of one step: the relay's window
# (of the step's mass increment), the oracle's slack below 0 <= error and
# the horizon's slack.  Roundoff scales with the thresholds and the step,
# so no absolute slack holds at every scale.  An adaptive stage lands on a
# threshold one step after falling a whole increment short, so any
# fraction below 1/2 is unambiguous.  Over 200 random adaptive configs
# (M log-uniform over 1 to 1e14, m = M/2, J from 2 to 1000, N0 = Nstage
# from 1 to 6) the worst landing residual was 1.3e-11 of an increment.
STEP_SLACK = 1e-6


class Stage(namedtuple("Stage", "start dt steps")):
    """``steps`` steps of size ``dt``; step i (1-based) ends at start + i * dt."""

    __slots__ = ()

    @property
    def end(self) -> float:
        return self.start + self.steps * self.dt


def _steps_to_horizon(start: float, dt: float, horizon: float, field: str) -> int:
    """Steps of size dt from ``start`` that end by the horizon, or within
    STEP_SLACK of a step past it; any count past a machine index comes
    out as 2**63.  A ConfigError on ``field``, which sized dt, if dt is 0."""
    if not dt:
        raise ConfigError(field, "the step it sizes rounds to 0.0")
    return max(0, math.floor(min((horizon - start) / dt + STEP_SLACK, 2.0**63)))


class FixedGrid(namedtuple("FixedGrid", "steps")):
    """``steps`` uniform steps over the whole run."""

    __slots__ = ()

    def __new__(cls, steps: int) -> FixedGrid:
        if steps < 1:
            raise ConfigError("steps", f"need at least 1 time step, got {steps}")
        return super().__new__(cls, steps)

    def stages(self, control: ControlConfig) -> tuple[Stage, ...]:
        return (Stage(0.0, control.horizon / self.steps, self.steps),)


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

        Either stage stops early, on its last step that ends by the
        horizon, so the run is bounded and no step ends past it.  A step
        that rounds to 0 is a ConfigError on the field that sized it.
        """
        rate = analytic.mass_rate(control)
        climb_dt = control.upper / (rate * self.first_stage_steps)
        climb_steps = _steps_to_horizon(0.0, climb_dt, control.horizon, "first_stage_steps")
        climb = Stage(start=0.0, dt=climb_dt, steps=min(self.first_stage_steps, climb_steps))
        if climb.steps < self.first_stage_steps:
            return (climb,)
        span = control.upper - control.lower
        dt = span / (rate * self.stage_steps)
        steps = _steps_to_horizon(climb.end, dt, control.horizon, "stage_steps")
        return (climb, Stage(start=climb.end, dt=dt, steps=steps))


class RunConfig(namedtuple("RunConfig", "control grid quadrature mode snapshot_stride")):
    """Everything one simulation needs: a ``ControlConfig``, a ``GridSpec``,
    a ``QuadratureKind``, a ``FixedGrid`` or ``AdaptiveGrid`` and the
    snapshot stride (0 = no snapshots).

    Building one is the one check that its time grid,
    ``mode.stages(control)``, can run: a ConfigError on ``horizon`` if
    more steps lie up to it than a machine index can count; on the field
    that sized a stage's dt if the stage steps but its times, start +
    i * dt, might not strictly increase; and on ``alpha`` if a stage that
    steps has a diffusion number that is not finite, which no step
    matrix can be factored for.

    Step i is stamped t_i = fl(start + fl(i * dt)), start >= 0: it and
    fl(i * dt) lie in [0, E], E = ``stage.end``, where floats are at most
    u = ulp(E) apart, so each rounding errs by at most u/2.  Thus
    t_{i+1} - t_i >= dt - 2u and t_1 - start >= dt - u/2: dt > 2u
    suffices.  From start = 0 only fl(i * dt) rounds, so dt > u does,
    which any dt > 0 meets over fewer than 2**51 steps, more than a run
    can allocate."""

    __slots__ = ()

    def __new__(cls, control: ControlConfig, grid: GridSpec, quadrature: QuadratureKind,
                mode: FixedGrid | AdaptiveGrid, snapshot_stride: int = 0) -> RunConfig:
        if snapshot_stride < 0:
            raise ConfigError("snapshot_stride", f"must be >= 0, got {snapshot_stride}")
        # Only the interior Riemann mass advances by exactly 2 * diffusivity
        # * dt per step, which lands the adaptive stage ends on the thresholds.
        if isinstance(mode, AdaptiveGrid) and quadrature is not QuadratureKind.RIEMANN_INTERIOR:
            raise ConfigError("quadrature", "adaptive grids require the interior Riemann quadrature")
        stages = mode.stages(control)
        if sum(stage.steps for stage in stages) > sys.maxsize:  # an adaptive grid up to a far horizon
            raise ConfigError("horizon", "more time steps up to it than a machine index can count")
        for field, stage in zip(mode._fields, stages):  # the mode's fields size its stages' dt in turn
            start, dt, steps = stage
            if steps and not dt > (2 * math.ulp(stage.end) if start else 0.0):
                raise ConfigError(field, f"a step of {dt!r} cannot advance the clock past {start!r}")
            nu = diffusion_number(grid, dt, control.diffusivity)
            if steps and not math.isfinite(nu):
                raise ConfigError("alpha", f"alpha * dt * J**2, the diffusion number of a step of {dt!r}, is {nu}")
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


def run(config: RunConfig, on_snapshot=None) -> Trajectory:
    """Step from the zero field through every stage of the time grid,
    ``config.mode.stages(config.control)``, which ``RunConfig`` checked.

    Each stage with steps assembles its step matrix once, through
    ``stepper.assemble``, where perfbench traces it.  Every field is
    mirror-symmetric, so the state is a plain list of U_0..U_h, h = J//2,
    stepped through the matrix's mirror fold; after each step its mass is
    evaluated with the configured quadrature and fed to the relay, whose
    flip, if any, takes effect on the next step.  Step i of a stage is
    stamped start + i * dt, the only clock, so the times carry no
    running-sum drift.  Deterministic: identical configs give identical
    output.  ``step``, ``mass`` and ``observe`` stay one call a step,
    looked up in this module, because perfbench traces them here and
    ``tests/test_perfbench_hooks.py`` counts them; fusing them into the
    loop waits for perfbench to read a run manifest (ROADMAP item 1,
    Half B).

    Every ``snapshot_stride`` steps, ``on_snapshot(values, time)`` gets
    the state U_0..U_h, a new list each step, which a sink may keep; by
    default the whole fields U_0..U_J, mirrored from it, are the returned
    ``snapshots``, empty when a sink is given.  With debug logging on,
    each switch is logged as the relay appends it: its index, time, mass
    and overshoot past the threshold it crossed.  Nothing is logged
    unless ``logging`` is imported (see ``cli.main``).
    """
    control, grid, quadrature, mode, stride = config
    stages = mode.stages(control)
    total = sum(stage.steps for stage in stages)

    values = [0.0] * (grid.cells // 2 + 1)  # U_0..U_h
    events: list[SwitchEvent] = []
    flux = FluxSign.INFLOW
    # allocated up front, so a step count too large for memory fails at once
    times = array("d", [0.0]) * total
    masses = array("d", [0.0]) * total
    fluxes = array("b", [0]) * total
    snapshots: list[FieldState] = []
    if on_snapshot is None:
        mirror = slice(grid.cells % 2 - 2, None, -1)  # U_{J-h-1}..U_0 of U_0..U_h
        def on_snapshot(values: list[float], time: float) -> None:
            snapshots.append(FieldState(array("d", values + values[mirror]), time))
    logging = sys.modules.get("logging")
    log = logging and logging.getLogger(__name__)
    debug = log and log.isEnabledFor(logging.DEBUG)  # checked once per run, not per step

    n = 0
    for start, dt, steps in stages:
        if not steps:
            continue  # its dt, sized past the horizon, may not even factor
        matrix = stepper.assemble(grid, dt, control.diffusivity).folded
        window = STEP_SLACK * analytic.mass_rate(control) * dt
        for i in range(1, steps + 1):
            time = start + i * dt
            values = step(values, flux, matrix)
            mu = mass(values, grid, quadrature)
            if not math.isfinite(mu):  # the field overflowed; every later step would be NaN
                raise ValueError(f"mass samples must be finite, got {mu} at t={time!r}")
            times[n] = time
            masses[n] = mu
            fluxes[n] = flux
            n += 1
            if stride and n % stride == 0:
                on_snapshot(values, time)
            last = flux
            flux = observe(events, mu, time, control, window)
            if debug and flux is not last:  # a flip is an appended switch
                overshoot = mu - control.upper if len(events) % 2 else control.lower - mu
                log.debug("switch %d at t=%r: mass %r, overshoot %r", len(events), time, mu, overshoot)

    if log:
        log.info("run: %d steps in %d stages, %d switches", n, len(stages), len(events))
    return Trajectory(times, masses, fluxes, tuple(snapshots), tuple(events))


def compare_with_oracle(traj: Trajectory, run_config: RunConfig) -> ErrorReport:
    """Pair each detected switch with its closed-form time.  Switch k is
    within bound when -STEP_SLACK * dt <= error < k * dt, with dt the step
    that detected it: that of the first stage ending at or after its
    time, or of the last stage.  A switch detected before its closed-form
    time, including one whose closed-form time lies past the horizon, has
    a negative error and is reported out of bound.
    """
    control = run_config.control
    stages = run_config.mode.stages(control)
    rows = []
    for index, time, _ in traj.events:
        for stage in stages:
            if time <= stage.end:
                break
        dt = stage.dt
        oracle_time = analytic.switch_time(index, control)
        bound = index * dt
        error = time - oracle_time
        rows.append(EventError(index, time, oracle_time, error, bound, -STEP_SLACK * dt <= error < bound))
    max_abs_error = max(abs(r.error) for r in rows) if rows else None
    spacings = [b.computed_time - a.computed_time for a, b in pairwise(rows)]
    mean_spacing = _fsum(spacings) / len(spacings) if spacings else None
    return ErrorReport(events=tuple(rows), max_abs_error=max_abs_error, mean_spacing=mean_spacing)
