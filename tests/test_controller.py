import numpy as np
import pytest

from massgate.analytic import ControlConfig, switch_spacing, switch_time, total_mass
from massgate.controller import SwitchEvent, observe
from massgate.stepper import FluxSign

CONTROL = ControlConfig(lower=0.1, upper=0.2, diffusivity=1.0, horizon=10.0)
# The relay's threshold window; the runner sizes it to its step.
WINDOW = 1e-12


def test_no_switch_below_upper_threshold():
    events = []
    flux = observe(events, 0.19, 0.5, CONTROL, WINDOW)
    assert flux is FluxSign.INFLOW
    assert events == []


def test_switch_at_exactly_upper_threshold():
    events = []
    flux = observe(events, 0.2, 0.5, CONTROL, WINDOW)
    assert flux is FluxSign.OUTFLOW
    assert len(events) == 1
    event = events[0]
    assert event.index == 1
    assert event.time == 0.5
    assert event.mass_at_switch == 0.2
    assert event.mass_at_switch >= CONTROL.upper - WINDOW


def test_switch_at_exactly_lower_threshold():
    events = [SwitchEvent(1, 0.5, 0.2)]
    flux = observe(events, 0.1, 1.0, CONTROL, WINDOW)
    assert flux is FluxSign.INFLOW
    assert events[-1].mass_at_switch <= CONTROL.lower + WINDOW
    assert events[-1].index == 2


def test_threshold_slack_absorbs_roundoff_hits():
    near_upper = 0.2 - 1e-13
    strict_flux = observe([], near_upper, 0.5, CONTROL, atol=0.0)
    assert strict_flux is FluxSign.INFLOW
    window_flux = observe([], near_upper, 0.5, CONTROL, atol=WINDOW)
    assert window_flux is FluxSign.OUTFLOW


def test_overshoot_past_lower_threshold_switches():
    events = [SwitchEvent(1, 0.5, 0.2)]
    flux = observe(events, 0.04, 1.0, CONTROL, WINDOW)
    assert flux is FluxSign.INFLOW
    assert events[-1].mass_at_switch == 0.04


def test_alternation_for_arbitrary_mass_sequences():
    rng = np.random.default_rng(77)
    for _ in range(20):
        events = []
        t = 0.0
        for _ in range(300):
            t += float(rng.uniform(0.01, 0.1))
            flux = observe(events, float(rng.uniform(0.0, 0.3)), t, CONTROL, WINDOW)
            # flux pattern: inflow before the first event and after even
            # events, outflow after odd events
            expected = FluxSign.OUTFLOW if len(events) % 2 == 1 else FluxSign.INFLOW
            assert flux is expected
        # odd events are upper crossings, even events lower ones
        for ev in events:
            if ev.index % 2 == 1:
                assert ev.mass_at_switch >= CONTROL.upper - WINDOW
            else:
                assert ev.mass_at_switch <= CONTROL.lower + WINDOW
        times = [ev.time for ev in events]
        assert all(b > a for a, b in zip(times, times[1:]))
        indices = [ev.index for ev in events]
        assert indices == list(range(1, len(indices) + 1))


def test_replaying_the_closed_form_mass_fires_at_exact_switch_times():
    eps = 1e-9
    spacing = switch_spacing(CONTROL)
    sample_times = []
    for k in range(1, 7):
        tk = switch_time(k, CONTROL)
        sample_times += [tk - eps, tk, tk + eps, tk + 0.5 * spacing]
    events = []
    for t in sorted(sample_times):
        observe(events, total_mass(t, CONTROL), t, CONTROL, WINDOW)
    assert [ev.time for ev in events] == [switch_time(k, CONTROL) for k in range(1, 7)]
    assert [ev.mass_at_switch >= CONTROL.upper - WINDOW for ev in events] == [
        k % 2 == 1 for k in range(1, 7)
    ]
    assert [ev.mass_at_switch <= CONTROL.lower + WINDOW for ev in events] == [
        k % 2 == 0 for k in range(1, 7)
    ]


def test_at_most_one_event_per_observation():
    # A mass below the lower threshold while inflowing only triggers the
    # upper-crossing logic, never two flips at once.
    events = []
    flux = observe(events, 0.05, 0.5, CONTROL, WINDOW)
    assert events == []
    assert flux is FluxSign.INFLOW


def test_observation_time_must_advance_past_last_event():
    events = []
    observe(events, 0.2, 0.5, CONTROL, WINDOW)
    with pytest.raises(ValueError):
        observe(events, 0.15, 0.5, CONTROL, WINDOW)
    with pytest.raises(ValueError):
        observe(events, 0.15, 0.4, CONTROL, WINDOW)
    with pytest.raises(ValueError):
        observe([], 0.05, -0.1, CONTROL, WINDOW)


def test_initial_state_defaults():
    # no switches yet: the flux is inflow, at any mass short of the upper threshold
    events = []
    assert observe(events, 0.0, 0.0, CONTROL, WINDOW) is FluxSign.INFLOW
    assert events == []


def test_flip_appends_to_the_same_event_list():
    events = []
    first = observe(events, 0.2, 0.5, CONTROL, WINDOW)
    second = observe(events, 0.1, 1.0, CONTROL, WINDOW)
    assert (first, second) == (FluxSign.OUTFLOW, FluxSign.INFLOW)
    assert [ev.index for ev in events] == [1, 2]
