"""Shape of the concentration field through the pump/drain cycle.

With per-step snapshots enabled, the trajectory exposes the field inside
each constant-flux stage.  While pumping, the profile rises with peaks at
the ends; while draining it falls, dipping lowest at the ends (the end
values can go negative even though the total mass stays in [lower,
upper]).  The midpoint value oscillates with period twice the switch
spacing.  This script prints a compact text rendering of a few profiles
per stage plus the midpoint peak times.

Usage:
    python demos/stage_profiles.py
"""

import numpy as np

from massgate import (
    ControlConfig,
    FixedGrid,
    GridSpec,
    QuadratureKind,
    RunConfig,
    run,
    switch_spacing,
)


def sketch(values, lo=-0.1, hi=0.5, width=40):
    cells = np.clip(((values - lo) / (hi - lo) * (width - 1)).astype(int), 0, width - 1)
    return "".join("*" if i in cells else "." for i in range(width))


def main():
    control = ControlConfig(lower=0.1, upper=0.2, diffusivity=0.05, horizon=10.0)
    cfg = RunConfig(
        control=control,
        grid=GridSpec(cells=50),
        quadrature=QuadratureKind.RIEMANN_INTERIOR,
        mode=FixedGrid(steps=200),
        snapshot_stride=1,
    )
    traj = run(cfg)

    fluxes = traj.fluxes
    boundaries = [0] + [i + 1 for i in range(len(fluxes) - 1) if fluxes[i + 1] != fluxes[i]]
    boundaries.append(len(fluxes))
    for stage, (start, stop) in enumerate(zip(boundaries[:4], boundaries[1:5])):
        label = "pumping (+1)" if fluxes[start] == 1 else "draining (-1)"
        print(f"stage {stage}: {label}, t in ({traj.times[start]:.2f}, {traj.times[stop - 1]:.2f}]")
        for i in np.linspace(start + 3, stop - 1, 4).astype(int):
            snap = traj.snapshots[i]
            values = np.asarray(snap.values)
            print(f"  t={snap.time:5.2f}  max={values.max():.4f}  |{sketch(values)}|")
        print()
    print("midpoint (x = 0.5) peaks:")
    midpoint = np.array([s.values[25] for s in traj.snapshots])
    peaks = [
        i for i in range(1, len(midpoint) - 1)
        if midpoint[i] > midpoint[i - 1] and midpoint[i] >= midpoint[i + 1]
    ]
    times = np.asarray(traj.times)[peaks]
    print("  at t =", ", ".join(f"{t:.2f}" for t in times))
    print("  separations:", ", ".join(f"{d:.2f}" for d in np.diff(times)),
          f"(2 * switch spacing = {2 * switch_spacing(control):.2f})")


if __name__ == "__main__":
    main()
