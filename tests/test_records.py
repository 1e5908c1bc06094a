"""Record semantics: every record is an immutable named tuple without an
instance dict, and the validating records check their fields when built
with keywords too (``test_runner.test_trajectory_validation`` covers
``Trajectory``)."""

from array import array

import pytest

from massgate import (
    AdaptiveGrid,
    ConfigError,
    ControlConfig,
    ErrorReport,
    EventError,
    FieldState,
    FixedGrid,
    GridSpec,
    QuadratureKind,
    RunConfig,
    SwitchEvent,
    Trajectory,
    assemble,
)
from massgate.runner import Stage

CONTROL = ControlConfig(0.1, 0.2, 0.05, 10.0)
RECORDS = [
    CONTROL,
    GridSpec(50),
    assemble(GridSpec(3), 0.05, 0.05),
    SwitchEvent(1, 2.0, 0.2),
    Stage(0.0, 0.05, 200),
    FixedGrid(200),
    AdaptiveGrid(2, 2),
    RunConfig(CONTROL, GridSpec(50), QuadratureKind.TRAPEZOID, FixedGrid(200)),
    FieldState(array("d", [0.0, 0.0]), 0.5),
    Trajectory(array("d", [0.5]), array("d", [0.1]), array("b", [1]), (), ()),
    EventError(1, 2.0, 2.0, 0.0, 0.05, True),
    ErrorReport((), None, None),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_records_are_immutable_and_carry_no_instance_dict(record):
    assert not hasattr(record, "__dict__")
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize(
    "build, key",
    [
        (lambda: ControlConfig(lower=0.2, upper=0.1, diffusivity=0.05, horizon=10.0), "lower"),
        (lambda: ControlConfig(lower=0.1, upper=0.2, diffusivity=0.0, horizon=10.0), "diffusivity"),
        (lambda: ControlConfig(lower=0.1, upper=0.2, diffusivity=0.05, horizon=-1.0), "horizon"),
        (lambda: GridSpec(cells=1), "cells"),
        (lambda: FixedGrid(steps=0), "steps"),
        (lambda: AdaptiveGrid(first_stage_steps=0, stage_steps=2), "first_stage_steps"),
        (lambda: AdaptiveGrid(first_stage_steps=2, stage_steps=0), "stage_steps"),
        (lambda: RunConfig(control=CONTROL, grid=GridSpec(50), quadrature=QuadratureKind.TRAPEZOID,
                           mode=FixedGrid(200), snapshot_stride=-1), "snapshot_stride"),
        (lambda: RunConfig(control=CONTROL, grid=GridSpec(50), quadrature=QuadratureKind.TRAPEZOID,
                           mode=AdaptiveGrid(2, 2)), "quadrature"),
        # time grids that cannot run: steps past a machine index, a
        # diffusion number that overflows, each step rounding to 0, and a
        # stage whose steps cannot advance its clock
        pytest.param(lambda: RunConfig(control=ControlConfig(0.1, 0.2, 1.0, 1e300), grid=GridSpec(10),
                                       quadrature=QuadratureKind.RIEMANN_INTERIOR, mode=AdaptiveGrid(10, 5)),
                     "horizon", id="grid-horizon"),
        pytest.param(lambda: RunConfig(control=ControlConfig(0.1, 0.2, 1e300, 1e300), grid=GridSpec(50),
                                       quadrature=QuadratureKind.TRAPEZOID, mode=FixedGrid(10**6)),
                     "alpha", id="grid-alpha"),
        pytest.param(lambda: RunConfig(control=ControlConfig(0.1, 0.2, 0.05, 5e-324), grid=GridSpec(50),
                                       quadrature=QuadratureKind.TRAPEZOID, mode=FixedGrid(1000)),
                     "steps", id="grid-steps"),
        pytest.param(lambda: RunConfig(control=ControlConfig(5e-324, 1e-320, 1e10, 1e-12), grid=GridSpec(3),
                                       quadrature=QuadratureKind.RIEMANN_INTERIOR, mode=AdaptiveGrid(2, 1)),
                     "first_stage_steps", id="grid-first_stage_steps"),
        pytest.param(lambda: RunConfig(control=ControlConfig(0.1, 0.2, 1e300, 1.0), grid=GridSpec(3),
                                       quadrature=QuadratureKind.RIEMANN_INTERIOR, mode=AdaptiveGrid(1, 10**9)),
                     "stage_steps", id="grid-stage_steps"),
        pytest.param(lambda: RunConfig(control=ControlConfig(0.1, 0.2, 0.05, 2.00000000000001), grid=GridSpec(50),
                                       quadrature=QuadratureKind.RIEMANN_INTERIOR, mode=AdaptiveGrid(2, 10**17)),
                     "stage_steps", id="grid-stage_steps-clock"),
    ],
)
def test_validating_records_raise_when_built_with_keywords(build, key):
    with pytest.raises(ConfigError) as info:
        build()
    assert info.value.key == key

