"""Reproduce the reference switch-time table on a fixed time grid.

J = 50 cells, N = 200 steps over a horizon of 10, diffusivity 0.05,
thresholds 0.1 / 0.2, trapezoid mass.  The detected switch times come out
as 1.95, 2.90, ..., 9.55: consecutive differences are 0.95 at N = 200,
below the closed-form spacing of 1.0, because the trapezoid mass includes
the elevated end values of the first-order boundary discretization and so
runs ahead of the interior mass by a dx-dependent offset.  As dt -> 0 the
spacing falls further, to about 1 - 3.839/J = 0.923 (0.9294 at N = 2000,
0.9224 at N = 20000).

Usage:
    python demos/reference_switch_table.py
"""

from massgate import (
    ControlConfig,
    FixedGrid,
    GridSpec,
    QuadratureKind,
    RunConfig,
    compare_with_oracle,
    run,
)


def main():
    control = ControlConfig(lower=0.1, upper=0.2, diffusivity=0.05, horizon=10.0)
    cfg = RunConfig(
        control=control,
        grid=GridSpec(cells=50),
        quadrature=QuadratureKind.TRAPEZOID,
        mode=FixedGrid(steps=200),
    )
    traj = run(cfg)
    report = compare_with_oracle(traj, cfg)

    print("  n      T_n    T_n - T_(n-1)     t_n      lag")
    previous = None
    for row in report.events:
        diff = "" if previous is None else f"{row.computed_time - previous:14.4f}"
        print(f"{row.index:3d} {row.computed_time:8.4f} {diff:>14s} {row.oracle_time:8.4f} {row.error:+8.4f}")
        previous = row.computed_time
    print()
    print(f"mean spacing of detected switches: {report.mean_spacing:.4f} (at N = 200; tends to 0.923 as dt -> 0)")


if __name__ == "__main__":
    main()
