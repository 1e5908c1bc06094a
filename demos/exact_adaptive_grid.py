"""Adaptively sized time steps make the switch detection exact.

The interior-Riemann mass of the implicit scheme gains exactly
2 * diffusivity * dt per step, whatever dt is.  Sizing the first stage's
dt as upper / (2 * diffusivity * N0) therefore parks the mass exactly on
the upper threshold after N0 steps, and sizing every later stage's dt as
(upper - lower) / (2 * diffusivity * Nstage) parks it exactly on the
opposite threshold after Nstage steps.  The detected switch times then
coincide with the closed form to rounding error, even for a single giant
first step.

Usage:
    python demos/exact_adaptive_grid.py
"""

from massgate import (
    AdaptiveGrid,
    ControlConfig,
    GridSpec,
    QuadratureKind,
    RunConfig,
    run,
    switch_time,
)


def main():
    control = ControlConfig(lower=0.1, upper=0.2, diffusivity=1.0, horizon=0.62)
    for n0, nstage in ((10, 5), (1, 3)):
        mode = AdaptiveGrid(first_stage_steps=n0, stage_steps=nstage)
        cfg = RunConfig(
            control=control,
            grid=GridSpec(cells=10),
            quadrature=QuadratureKind.RIEMANN_INTERIOR,
            mode=mode,
        )
        traj = run(cfg)
        print(f"N0={n0}, Nstage={nstage}:")
        print("  k     T_k (detected)   t_k (closed form)        difference")
        for ev in traj.events:
            exact = switch_time(ev.index, control)
            print(f"{ev.index:3d} {ev.time:18.15f} {exact:18.15f} {ev.time - exact:+.2e}")
        print()


if __name__ == "__main__":
    main()
