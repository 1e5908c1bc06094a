"""Byte-level check of the four files `emit_outputs` writes.

The reference below is the earlier text-mode writer, kept as the oracle:
`{:.10f}` f-strings and one `str.format` template per snapshot, with
report.json from `json.dumps(..., indent=2)`.  The byte templates must
reproduce it exactly on values chosen to stress the conversion: -0.0,
values of 10 and more, past 1e16, subnormals, non-finite field values,
negative errors and `bound` values with long shortest reprs.
"""

import json
import math
from array import array

import pytest

from massgate.cli import emit_outputs
from massgate.runner import ErrorReport, EventError, FieldState, Trajectory


def _fmt(value: float) -> str:
    return f"{value:.10f}"


def report_payload(report: ErrorReport) -> dict:
    """The report as the json.dump writer of report.json built it, kept as
    the reference for the byte template."""
    return {
        "events": [
            {
                "k": row.index,
                "T_k": row.computed_time,
                "t_k": row.oracle_time,
                "err": row.error,
                "bound": row.bound,
                "within_bound": row.within_bound,
            }
            for row in report.events
        ],
        "summary": {
            "max_abs_error": report.max_abs_error,
            "mean_spacing": report.mean_spacing,
        },
    }


def reference_files(traj: Trajectory, report: ErrorReport) -> dict[str, bytes]:
    switches = "k,T_k,t_k,err,bound,within_bound\n" + "".join(
        f"{row.index},{_fmt(row.computed_time)},{_fmt(row.oracle_time)},"
        f"{_fmt(row.error)},{row.bound},{'true' if row.within_bound else 'false'}\n"
        for row in report.events
    )
    mass = "time,mass,flux\n" + "".join(
        f"{_fmt(t)},{_fmt(mu)},{s:d}\n"
        for t, mu, s in zip(traj.times.tolist(), traj.masses.tolist(), traj.fluxes.tolist())
    )
    snapshots = "time,x,u\n"
    if traj.snapshots:
        cells = len(traj.snapshots[0].values) - 1
        rows = "".join(f"{{0}},{_fmt(j / cells)},{{{j + 1}:.10f}}\n" for j in range(cells + 1))
        snapshots += "".join(rows.format(_fmt(snap.time), *snap.values.tolist()) for snap in traj.snapshots)
    return {
        "switches.csv": switches.encode(),
        "mass.csv": mass.encode(),
        "snapshots.csv": snapshots.encode(),
        "report.json": (json.dumps(report_payload(report), indent=2) + "\n").encode(),
    }


TIMES = [-2.5, -0.0, 5e-324, 0.30000000000000004, 9.99999999995, 12.5, 1e16, 1.2345678901234567e17]
FIELD = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 5e-11, -5e-11, 0.1 * 3, 99.99999999995,
         -123.456789012345, 1e16, -3.0000000000000004e17, 1.7976931348623157e308]
EVENTS = (
    EventError(1, 1.95, 2.0, 1.95 - 2.0, 0.1 * 3, False),
    EventError(2, 3.0, 3.0000000000000004, -4.440892098500626e-16, 0.15000000000000002, True),
    EventError(3, 12.0, 11.9999999999999, 1e-13, 1e16, True),
    EventError(4, -0.0, 5e-324, -5e-324, 2.5e-7, True),
    EventError(10, 1e17, 1.0000000000000002e17, -16.0, 0.03333333333333333, False),
)
EMPTY = ErrorReport(events=(), max_abs_error=None, mean_spacing=None)


def trajectory(snapshots: tuple[FieldState, ...]) -> Trajectory:
    return Trajectory(
        times=array("d", TIMES),
        masses=array("d", [-0.0, 5e-324, 10.0, -1e-11, 1e16, 0.1 * 3, -7.25, 1.7976931348623157e308]),
        fluxes=array("b", [1, 1, -1, -1, 1, -1, 1, -1]),
        snapshots=snapshots,
        events=(),
    )


CASES = {
    "stressed": (
        trajectory((
            FieldState(array("d", FIELD), -0.0),
            FieldState(array("d", reversed(FIELD)), 12.5),
            FieldState(array("d", [math.inf, -math.inf, math.nan, *FIELD[3:]]), 1e16),
        )),
        ErrorReport(events=EVENTS, max_abs_error=16.0, mean_spacing=0.1 * 3),
    ),
    "no-events-no-snapshots": (trajectory(()), EMPTY),
    "empty": (Trajectory(times=array("d"), masses=array("d"), fluxes=array("b"), snapshots=(), events=()), EMPTY),
}


@pytest.mark.parametrize("case", CASES)
def test_emitted_bytes_match_the_reference_writers(case, tmp_path):
    traj, report = CASES[case]
    written = emit_outputs(traj, report, tmp_path)
    expected = reference_files(traj, report)
    assert [path.name for path in written] == list(expected)
    for name, data in expected.items():
        assert (tmp_path / name).read_bytes() == data, name
