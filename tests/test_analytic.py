import numpy as np
import pytest

from massgate.analytic import (
    ControlConfig,
    mass_rate,
    switch_spacing,
    switch_time,
    total_mass,
)


def integrate_to_threshold(control: ControlConfig, h: float = 1e-6) -> float:
    """Brute-force oracle for the first switch: march d(mass)/dt = rate
    from zero until the upper threshold is reached."""
    rate = mass_rate(control)
    mu, t = 0.0, 0.0
    while mu < control.upper:
        mu += rate * h
        t += h
    return t


def random_control(rng: np.random.Generator) -> ControlConfig:
    upper = rng.uniform(0.05, 2.0)
    lower = upper * rng.uniform(0.1, 0.9)
    return ControlConfig(
        lower=lower, upper=upper, diffusivity=rng.uniform(0.01, 10.0), horizon=10.0
    )


def test_first_two_switch_times_unit_diffusivity():
    control = ControlConfig(lower=0.1, upper=0.2, diffusivity=1.0, horizon=10.0)
    assert switch_time(1, control) == pytest.approx(0.1, abs=1e-15)   # upper/2
    assert switch_time(2, control) == pytest.approx(0.15, abs=1e-15)  # upper - lower/2


def test_first_switch_time_small_diffusivity_matches_integration_oracle():
    control = ControlConfig(lower=0.1, upper=0.2, diffusivity=0.05, horizon=10.0)
    assert switch_time(1, control) == pytest.approx(2.0, abs=1e-12)
    assert switch_time(1, control) == pytest.approx(integrate_to_threshold(control), abs=1e-5)


def test_mass_at_time_zero_is_zero():
    control = ControlConfig(lower=0.1, upper=0.2, diffusivity=0.3, horizon=1.0)
    assert total_mass(0.0, control) == 0.0


def test_mass_climbs_at_twice_diffusivity():
    control = ControlConfig(lower=0.1, upper=0.2, diffusivity=1.0, horizon=10.0)
    assert total_mass(0.05, control) == pytest.approx(0.1, abs=1e-15)


def test_mass_on_descending_branch():
    # Climb ends at t=2 with mass 0.2; half a time unit later the mass has
    # dropped by rate * 0.5 = 0.05.
    control = ControlConfig(lower=0.1, upper=0.2, diffusivity=0.05, horizon=10.0)
    assert total_mass(2.5, control) == pytest.approx(0.15, abs=1e-12)


def test_switch_spacing_values():
    assert switch_spacing(
        ControlConfig(lower=0.1, upper=0.2, diffusivity=1.0, horizon=1.0)
    ) == pytest.approx(0.05, abs=1e-15)
    assert switch_spacing(
        ControlConfig(lower=0.19999, upper=0.2, diffusivity=1.0, horizon=1.0)
    ) == pytest.approx(5e-6, abs=1e-15)
    assert switch_spacing(
        ControlConfig(lower=0.1, upper=0.2, diffusivity=0.05, horizon=1.0)
    ) == pytest.approx(1.0, abs=1e-15)


def test_mass_hits_thresholds_at_switch_times():
    rng = np.random.default_rng(314)
    for _ in range(50):
        control = random_control(rng)
        for k in range(1, 13):
            expected = control.upper if k % 2 == 1 else control.lower
            assert abs(total_mass(switch_time(k, control), control) - expected) <= 1e-12


def test_mass_slope_by_finite_differences():
    rng = np.random.default_rng(99)
    h = 1e-6
    for _ in range(20):
        control = random_control(rng)
        rate = mass_rate(control)
        spacing = switch_spacing(control)
        for k in range(1, 8):
            mid = switch_time(k, control) + 0.5 * spacing
            slope = (total_mass(mid + h, control) - total_mass(mid - h, control)) / (2 * h)
            expected = -rate if k % 2 == 1 else rate
            assert abs(slope - expected) <= 1e-8 * max(1.0, rate)
        mid = 0.5 * switch_time(1, control)
        slope = (total_mass(mid + h, control) - total_mass(mid - h, control)) / (2 * h)
        assert abs(slope - rate) <= 1e-8 * max(1.0, rate)


def test_switch_times_are_equispaced():
    rng = np.random.default_rng(5)
    for _ in range(50):
        control = random_control(rng)
        spacing = switch_spacing(control)
        for k in range(2, 12):
            assert abs(switch_time(k, control) - switch_time(k - 1, control) - spacing) <= 1e-12


def test_mass_range_is_bounded():
    control = ControlConfig(lower=0.1, upper=0.2, diffusivity=0.5, horizon=10.0)
    first = switch_time(1, control)
    for t in np.linspace(0.0, first, 37):
        assert -1e-12 <= total_mass(t, control) <= control.upper + 1e-12
    for t in np.linspace(first, 20.0, 301):
        mu = total_mass(t, control)
        assert control.lower - 1e-12 <= mu <= control.upper + 1e-12


@pytest.mark.parametrize(
    "lower,upper,diffusivity,horizon",
    [
        (0.2, 0.1, 1.0, 1.0),
        (0.0, 0.1, 1.0, 1.0),
        (-0.1, 0.1, 1.0, 1.0),
        (0.1, 0.1, 1.0, 1.0),
        (0.1, 0.2, 0.0, 1.0),
        (0.1, 0.2, -1.0, 1.0),
        (0.1, 0.2, 1e308, 1.0),  # the mass rate 2 * diffusivity overflows
        (0.1, 0.2, 1.0, 0.0),
    ],
)
def test_invalid_config_rejected(lower, upper, diffusivity, horizon):
    with pytest.raises(ValueError):
        ControlConfig(lower=lower, upper=upper, diffusivity=diffusivity, horizon=horizon)


def test_invalid_arguments_rejected():
    control = ControlConfig(lower=0.1, upper=0.2, diffusivity=1.0, horizon=1.0)
    with pytest.raises(ValueError):
        switch_time(0, control)
    with pytest.raises(ValueError):
        total_mass(-0.1, control)
