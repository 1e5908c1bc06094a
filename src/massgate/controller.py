"""Hysteresis relay on the observed total mass.

The relay's only state is the list of switches so far.  As in the paper,
the flux is +1 after an even number of switches and -1 after an odd
number, so the next switch to look for is an upper crossing after an
even count and a lower one after an odd count.  A flip takes effect on
the step after the crossing: ``observe`` returns the flux sign to use
for the NEXT step, while the step that produced the crossing already ran
with the old sign.  Reaching is inclusive up to a window that the caller
supplies, since only the caller knows the step.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analytic import ControlConfig
from .stepper import FluxSign


@dataclass(frozen=True)
class SwitchEvent:
    """The ``index``-th detected threshold crossing, counted from 1: an
    odd index is an upper crossing, an even index a lower one."""

    index: int
    time: float
    mass_at_switch: float


def observe(
    events: list[SwitchEvent],
    mass_value: float,
    time: float,
    control: ControlConfig,
    atol: float,
) -> FluxSign:
    """Feed one mass observation to the relay and return the flux sign
    for the next step.

    A crossing appends its event to ``events``.  At most one event is
    emitted per observation; the comparisons are inclusive (>= upper,
    <= lower) up to the window ``atol``, which the caller sizes to its
    step.
    """
    if events:
        if time <= events[-1].time:
            raise ValueError(f"observation time {time} not after last event at {events[-1].time}")
    elif time < 0.0:
        raise ValueError(f"observation time must be nonnegative, got {time}")

    if len(events) % 2:
        crossed = mass_value <= control.lower + atol
    else:
        crossed = mass_value >= control.upper - atol
    if crossed:
        events.append(SwitchEvent(len(events) + 1, time, mass_value))
    return FluxSign.OUTFLOW if len(events) % 2 else FluxSign.INFLOW
