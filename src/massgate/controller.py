"""Hysteresis relay on the observed total mass.

The flux starts at +1.  The first observation at or above the upper
threshold flips it to -1; the next at or below the lower threshold flips
it back, and so on.  A flip takes effect on the step after the crossing:
``observe`` returns the flux sign to use for the NEXT step, while the
step that produced the crossing already ran with the old sign.  Reaching
is inclusive up to a window that the caller supplies, since only the
caller knows the step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .analytic import ControlConfig
from .stepper import FluxSign


class CrossingDirection(Enum):
    REACHED_UPPER = "reached_upper"
    REACHED_LOWER = "reached_lower"


@dataclass(frozen=True)
class SwitchEvent:
    """One detected threshold crossing."""

    index: int
    time: float
    mass_at_switch: float
    direction: CrossingDirection


@dataclass
class ControllerState:
    """Relay phase plus the ordered record of crossings so far, both
    updated in place by ``observe``.

    The phase is +1 before the first event and after even-indexed events,
    -1 after odd-indexed events; directions alternate starting with an
    upper crossing.  The next event's index is ``len(events) + 1``.
    """

    phase: FluxSign = FluxSign.INFLOW
    events: list[SwitchEvent] = field(default_factory=list)


def observe(
    ctrl: ControllerState,
    mass_value: float,
    time: float,
    control: ControlConfig,
    atol: float,
) -> FluxSign:
    """Feed one mass observation to the relay and return the flux sign
    for the next step.

    A crossing appends its event to ``ctrl.events`` and flips
    ``ctrl.phase``.  At most one event is emitted per observation; the
    comparisons are inclusive (>= upper, <= lower) up to the window
    ``atol``, which the caller sizes to its step.
    """
    if ctrl.events:
        if time <= ctrl.events[-1].time:
            raise ValueError(
                f"observation time {time} not after last event at {ctrl.events[-1].time}"
            )
    elif time < 0.0:
        raise ValueError(f"observation time must be nonnegative, got {time}")

    if ctrl.phase is FluxSign.INFLOW:
        crossed = mass_value >= control.upper - atol
        direction = CrossingDirection.REACHED_UPPER
    else:
        crossed = mass_value <= control.lower + atol
        direction = CrossingDirection.REACHED_LOWER
    if crossed:
        ctrl.events.append(SwitchEvent(len(ctrl.events) + 1, time, mass_value, direction))
        ctrl.phase = ctrl.phase.flipped()
    return ctrl.phase
