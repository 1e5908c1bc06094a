"""Simulation of 1D diffusion with threshold-switched boundary flux.

Material is pumped in or drained at both ends of the unit interval with
unit-magnitude flux; the sign flips whenever the total mass reaches one of
two thresholds.  The switching times admit a closed form, and the package
pairs a backward-implicit finite-difference simulation with that closed
form: fixed time grids detect the switches with a bounded lag, while
adaptively sized grids reproduce them exactly.
"""

from .analytic import ConfigError, ControlConfig, mass_rate, switch_spacing, switch_time, total_mass
from .controller import SwitchEvent, observe
from .quadrature import QuadratureKind, mass
from .runner import (
    AdaptiveGrid,
    ErrorReport,
    EventError,
    FieldState,
    FixedGrid,
    RunConfig,
    Trajectory,
    compare_with_oracle,
    run,
)
from .stepper import (
    FluxSign,
    GridSpec,
    StepMatrix,
    assemble,
    diffusion_number,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveGrid",
    "ConfigError",
    "ControlConfig",
    "ErrorReport",
    "EventError",
    "FieldState",
    "FixedGrid",
    "FluxSign",
    "GridSpec",
    "QuadratureKind",
    "RunConfig",
    "StepMatrix",
    "SwitchEvent",
    "Trajectory",
    "assemble",
    "compare_with_oracle",
    "diffusion_number",
    "mass",
    "mass_rate",
    "observe",
    "run",
    "step",
    "switch_spacing",
    "switch_time",
    "total_mass",
]
