"""How the detection lag behaves as the fixed time grid is refined.

On a uniform grid with the interior-Riemann mass, a crossing is detected
at the first grid time at or past it, so each switch lags its closed-form
time.  The lag per switch is bounded by (2k - 1) * dt: up to one step of
grid rounding per crossing, plus the threshold overshoot of each earlier
crossing, which has to be traversed a second time after the flip.  (The
simpler ladder k * dt fails in general; see tests.)  Refining dt sends
the lag to zero.  Thresholds here are deliberately not divisible by the
mass increment, so the lags are genuinely nonzero.

Usage:
    python demos/time_step_refinement.py
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
    control = ControlConfig(lower=0.117, upper=0.233, diffusivity=0.05, horizon=10.0)
    print("     N        dt   switches   max lag   max (2k-1)*dt")
    for steps in (200, 400, 800, 1600, 3200):
        cfg = RunConfig(
            control=control,
            grid=GridSpec(cells=50),
            quadrature=QuadratureKind.RIEMANN_INTERIOR,
            mode=FixedGrid(steps=steps),
        )
        report = compare_with_oracle(run(cfg), cfg)
        dt = cfg.mode.stages(control)[0].dt
        attained = max((2 * r.index - 1) * dt for r in report.events)
        print(
            f"{steps:6d} {dt:9.5f} {len(report.events):10d} "
            f"{report.max_abs_error:9.5f} {attained:15.5f}"
        )


if __name__ == "__main__":
    main()
