"""Closed-form total mass and switching times for the controlled diffusion.

With the flux held at +-1 on both ends, the total mass changes at the
constant rate +-2*diffusivity.  The mass trace is therefore piecewise
linear: it climbs from 0 to the upper threshold, then shuttles between
the two thresholds forever, and every switching time has a closed form.
These values are the ground truth the numerical runs are compared to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ConfigError(ValueError):
    """A config field is missing, unknown, or violates an invariant;
    ``key`` names the field."""

    def __init__(self, key: str, message: str):
        self.key = key
        self.message = message
        super().__init__(f"{key}: {message}")


@dataclass(frozen=True)
class ControlConfig:
    """Thresholds and physics of one controlled run.

    lower, upper:  mass thresholds, 0 < lower < upper
    diffusivity:   coefficient in u_t = diffusivity * u_xx
    horizon:       final time of the run

    All four must be finite: the checks below are false for NaN and inf.
    """

    lower: float
    upper: float
    diffusivity: float
    horizon: float

    def __post_init__(self) -> None:
        if not 0.0 < self.lower < self.upper < math.inf:
            raise ConfigError(
                "lower",
                f"thresholds must satisfy 0 < lower < upper < inf, "
                f"got lower={self.lower}, upper={self.upper}",
            )
        if not 0.0 < mass_rate(self) < math.inf:
            raise ConfigError("diffusivity", f"must be positive, with 2 * diffusivity finite, got {self.diffusivity}")
        if not 0.0 < self.horizon < math.inf:
            raise ConfigError("horizon", f"must be positive and finite, got {self.horizon}")


def mass_rate(control: ControlConfig) -> float:
    """Magnitude of d(mass)/dt while the boundary flux is held at +-1."""
    return 2.0 * control.diffusivity


def switch_spacing(control: ControlConfig) -> float:
    """Time between consecutive switches (constant from the first switch on)."""
    return (control.upper - control.lower) / mass_rate(control)


def switch_time(k: int, control: ControlConfig) -> float:
    """Exact time of the k-th threshold crossing, k >= 1.

    Odd k reach the upper threshold, even k the lower one.
    """
    if k < 1:
        raise ValueError(f"switch index must be >= 1, got {k}")
    return (k * control.upper - (k - 1) * control.lower) / mass_rate(control)


def total_mass(t: float, control: ControlConfig) -> float:
    """Exact total mass at time t >= 0.

    Piecewise linear and continuous; equals the upper threshold at odd
    switch times and the lower one at even switch times.
    """
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    rate = mass_rate(control)
    first = switch_time(1, control)
    if t <= first:
        return rate * t
    # Phase k covers [t_k, t_{k+1}]: falling from upper for odd k,
    # rising from lower for even k.
    k = 1 + int((t - first) // switch_spacing(control))
    offset = t - switch_time(k, control)
    if k % 2 == 1:
        return control.upper - rate * offset
    return control.lower + rate * offset
