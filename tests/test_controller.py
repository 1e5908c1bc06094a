import numpy as np
import pytest

from massgate.analytic import ControlConfig, switch_spacing, switch_time, total_mass
from massgate.controller import (
    ControllerState,
    CrossingDirection,
    SwitchEvent,
    observe,
)
from massgate.stepper import FluxSign

CONTROL = ControlConfig(lower=0.1, upper=0.2, diffusivity=1.0, horizon=10.0)
# The relay's threshold window; the runner sizes it to its step.
WINDOW = 1e-12


def test_no_switch_below_upper_threshold():
    ctrl = ControllerState()
    flux = observe(ctrl, 0.19, 0.5, CONTROL, WINDOW)
    assert flux is FluxSign.INFLOW
    assert ctrl.events == []
    assert ctrl.phase is FluxSign.INFLOW


def test_switch_at_exactly_upper_threshold():
    ctrl = ControllerState()
    flux = observe(ctrl, 0.2, 0.5, CONTROL, WINDOW)
    assert flux is FluxSign.OUTFLOW
    assert len(ctrl.events) == 1
    event = ctrl.events[0]
    assert event.index == 1
    assert event.time == 0.5
    assert event.mass_at_switch == 0.2
    assert event.direction is CrossingDirection.REACHED_UPPER


def test_switch_at_exactly_lower_threshold():
    ctrl = ControllerState(
        phase=FluxSign.OUTFLOW,
        events=[SwitchEvent(1, 0.5, 0.2, CrossingDirection.REACHED_UPPER)],
    )
    flux = observe(ctrl, 0.1, 1.0, CONTROL, WINDOW)
    assert flux is FluxSign.INFLOW
    assert ctrl.events[-1].direction is CrossingDirection.REACHED_LOWER
    assert ctrl.events[-1].index == 2


def test_threshold_slack_absorbs_roundoff_hits():
    near_upper = 0.2 - 1e-13
    strict_flux = observe(ControllerState(), near_upper, 0.5, CONTROL, atol=0.0)
    assert strict_flux is FluxSign.INFLOW
    window_flux = observe(ControllerState(), near_upper, 0.5, CONTROL, atol=WINDOW)
    assert window_flux is FluxSign.OUTFLOW


def test_overshoot_past_lower_threshold_switches():
    ctrl = ControllerState(
        phase=FluxSign.OUTFLOW,
        events=[SwitchEvent(1, 0.5, 0.2, CrossingDirection.REACHED_UPPER)],
    )
    flux = observe(ctrl, 0.04, 1.0, CONTROL, WINDOW)
    assert flux is FluxSign.INFLOW
    assert ctrl.events[-1].mass_at_switch == 0.04


def test_alternation_for_arbitrary_mass_sequences():
    rng = np.random.default_rng(77)
    for _ in range(20):
        ctrl = ControllerState()
        t = 0.0
        for _ in range(300):
            t += float(rng.uniform(0.01, 0.1))
            flux = observe(ctrl, float(rng.uniform(0.0, 0.3)), t, CONTROL, WINDOW)
            # phase pattern: inflow before the first event and after even
            # events, outflow after odd events
            expected = FluxSign.OUTFLOW if len(ctrl.events) % 2 == 1 else FluxSign.INFLOW
            assert ctrl.phase is expected
            assert flux is expected
        directions = [ev.direction for ev in ctrl.events]
        for i, direction in enumerate(directions):
            expected_dir = (
                CrossingDirection.REACHED_UPPER if i % 2 == 0 else CrossingDirection.REACHED_LOWER
            )
            assert direction is expected_dir
        times = [ev.time for ev in ctrl.events]
        assert all(b > a for a, b in zip(times, times[1:]))
        indices = [ev.index for ev in ctrl.events]
        assert indices == list(range(1, len(indices) + 1))


def test_replaying_the_closed_form_mass_fires_at_exact_switch_times():
    eps = 1e-9
    spacing = switch_spacing(CONTROL)
    sample_times = []
    for k in range(1, 7):
        tk = switch_time(k, CONTROL)
        sample_times += [tk - eps, tk, tk + eps, tk + 0.5 * spacing]
    ctrl = ControllerState()
    for t in sorted(sample_times):
        observe(ctrl, total_mass(t, CONTROL), t, CONTROL, WINDOW)
    assert [ev.time for ev in ctrl.events] == [switch_time(k, CONTROL) for k in range(1, 7)]
    assert [ev.direction for ev in ctrl.events] == [
        CrossingDirection.REACHED_UPPER if k % 2 == 1 else CrossingDirection.REACHED_LOWER
        for k in range(1, 7)
    ]


def test_at_most_one_event_per_observation():
    # A mass below the lower threshold while inflowing only triggers the
    # upper-crossing logic, never two flips at once.
    ctrl = ControllerState()
    flux = observe(ctrl, 0.05, 0.5, CONTROL, WINDOW)
    assert ctrl.events == []
    assert flux is FluxSign.INFLOW


def test_observation_time_must_advance_past_last_event():
    ctrl = ControllerState()
    observe(ctrl, 0.2, 0.5, CONTROL, WINDOW)
    with pytest.raises(ValueError):
        observe(ctrl, 0.15, 0.5, CONTROL, WINDOW)
    with pytest.raises(ValueError):
        observe(ctrl, 0.15, 0.4, CONTROL, WINDOW)
    with pytest.raises(ValueError):
        observe(ControllerState(), 0.05, -0.1, CONTROL, WINDOW)


def test_initial_state_defaults():
    ctrl = ControllerState()
    assert ctrl.phase is FluxSign.INFLOW
    assert ctrl.events == []


def test_flip_appends_to_the_same_event_list():
    ctrl = ControllerState()
    events = ctrl.events
    observe(ctrl, 0.2, 0.5, CONTROL, WINDOW)
    observe(ctrl, 0.1, 1.0, CONTROL, WINDOW)
    assert ctrl.events is events
    assert [ev.index for ev in events] == [1, 2]
