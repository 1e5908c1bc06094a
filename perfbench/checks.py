"""Output checks that do not use the code under test.

Fixed-grid runs are compared with `reference_fixed`, a re-implementation
of the same backward-implicit scheme that factors the step matrix once
with LAPACK (dgttrf) and solves each step with dgttrs.  Adaptive runs are
compared with the closed form t_k = (k*M - (k-1)*m) / (2*alpha) and with
the scheme's own identities.  Every check that concerns a switch feeds
`switch_fail_frac`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

# The relay's inclusive comparison slack, part of the scheme's definition.
THRESHOLD_ATOL = 1e-12
# Closed-form agreement required of an adaptive switch time.
CLOSED_FORM_TOL = 1e-9
# Outputs carry 10 decimals; values compared with the reference may also
# differ by rounding in the solver.
PRINT_TOL = 1e-9
# The reference run and the switch times it detects.
REFERENCE_CONFIG = {
    "m": 0.1, "M": 0.2, "alpha": 0.05, "horizon": 10.0,
    "J": 50, "N": 200, "quadrature": "trapezoid",
}
REFERENCE_TABLE = (1.95, 2.90, 3.85, 4.80, 5.75, 6.70, 7.65, 8.60, 9.55)


@dataclass
class Reference:
    """What the re-implemented scheme computes for one fixed-grid config."""

    switch_steps: list[int]
    times: np.ndarray
    masses: np.ndarray
    fluxes: np.ndarray
    final_field: np.ndarray


def reference_fixed(cfg: dict) -> Reference:
    """Run the fixed-grid scheme: N steps of dt = horizon/N from zero."""
    cells, steps, horizon = cfg["J"], cfg["N"], cfg["horizon"]
    alpha, lower, upper = cfg["alpha"], cfg["m"], cfg["M"]
    trapezoid = cfg["quadrature"] == "trapezoid"
    dx = 1.0 / cells
    dt = horizon / steps
    nu = alpha * dt / dx**2
    n = cells - 1
    diag = np.full(n, 1.0 + 2.0 * nu)
    diag[0] -= nu
    diag[-1] -= nu
    off = np.full(n - 1, -nu)
    dl, d, du, du2, ipiv, info = lapack.dgttrf(off, diag, off.copy())
    if info != 0:
        raise ArithmeticError(f"dgttrf failed with info={info}")

    u = np.zeros(cells + 1)
    flux = 1
    switch_steps: list[int] = []
    masses = np.empty(steps)
    fluxes = np.empty(steps, dtype=int)
    for k in range(steps):
        rhs = u[1:-1].copy()
        rhs[0] += nu * dx * flux
        rhs[-1] += nu * dx * flux
        x, info = lapack.dgttrs(dl, d, du, du2, ipiv, rhs)
        u = np.empty(cells + 1)
        u[1:-1] = x
        u[0] = x[0] + dx * flux
        u[-1] = x[-1] + dx * flux
        mu = 0.5 * dx * (u[:-1] + u[1:]).sum() if trapezoid else dx * u[1:-1].sum()
        masses[k] = mu
        fluxes[k] = flux
        if (flux > 0 and mu >= upper - THRESHOLD_ATOL) or (flux < 0 and mu <= lower + THRESHOLD_ATOL):
            switch_steps.append(k + 1)
            flux = -flux
    times = np.arange(1, steps + 1) * dt
    return Reference(switch_steps, times, masses, fluxes, u)


def closed_form_times(cfg: dict) -> list[float]:
    """Closed-form switch times up to the horizon.

    The workloads put the last switch exactly at the horizon, where the
    float closed form can land an ulp past it; the tolerance keeps it.
    """
    alpha, lower, upper, horizon = cfg["alpha"], cfg["m"], cfg["M"], cfg["horizon"]
    out = []
    k = 1
    while (t := (k * upper - (k - 1) * lower) / (2.0 * alpha)) <= horizon + CLOSED_FORM_TOL:
        out.append(t)
        k += 1
    return out


def smoke_reference_table() -> list[str]:
    """The reference run (J=50, N=200, trapezoid) gives 1.95, 2.90, ..., 9.55."""
    ref = reference_fixed(REFERENCE_CONFIG)
    got = [ref.times[s - 1] for s in ref.switch_steps]
    if len(got) != len(REFERENCE_TABLE) or any(
        abs(a - b) > 5e-5 for a, b in zip(got, REFERENCE_TABLE)
    ):
        return [f"reference implementation gives {got}, expected {list(REFERENCE_TABLE)}"]
    return []


@dataclass
class Outcome:
    """Checks of one run's output directory."""

    errors: list[str] = field(default_factory=list)
    switches_expected: int = 0
    switches_failed: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def switch_fail_frac(self) -> float:
        return self.switches_failed / max(1, self.switches_expected)


def _read_switches(path: str) -> np.ndarray:
    rows = []
    with open(path, encoding="utf-8") as f:
        next(f)
        for line in f:
            k, t_k = line.split(",")[:2]
            rows.append((int(k), float(t_k)))
    return np.array(rows, dtype=float).reshape(-1, 2)


def _count_rows(path: str) -> int:
    """Data rows (lines minus the header) of a CSV file."""
    lines = 0
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            lines += chunk.count(b"\n")
    return lines - 1


def _tail_rows(path: str, count: int) -> np.ndarray:
    """The last `count` rows of a CSV file, parsed as floats."""
    with open(path, "rb") as f:
        f.seek(0, os.SEEK_END)
        size = f.tell()
        f.seek(max(0, size - 200 * (count + 1)))
        lines = f.read().decode().strip().split("\n")[-count:]
    return np.array([[float(v) for v in line.split(",")] for line in lines])


def check_run(cfg: dict, out_dir: str, rc: int, ref: Reference | None) -> Outcome:
    """Check a finished run; a crash or a missing file fails every switch."""
    expected = len(ref.switch_steps) if ref is not None else len(closed_form_times(cfg))
    outcome = Outcome(switches_expected=expected)
    names = ("switches.csv", "mass.csv", "snapshots.csv", "report.json")
    paths = {n: os.path.join(out_dir, n) for n in names}
    if rc != 0 or not all(os.path.isfile(p) for p in paths.values()):
        outcome.errors.append(f"run exited with {rc} or did not write {list(names)}")
        outcome.switches_failed = expected
        return outcome

    mass = np.loadtxt(paths["mass.csv"], delimiter=",", skiprows=1, ndmin=2)
    switches = _read_switches(paths["switches.csv"])
    snapshot_rows = _count_rows(paths["snapshots.csv"])
    outcome.counts = {
        "mass_rows": len(mass),
        "switch_rows": len(switches),
        "snapshot_rows": snapshot_rows,
        "bytes": sum(os.path.getsize(p) for p in paths.values()),
    }
    if len(switches) and not np.array_equal(switches[:, 0], np.arange(1, len(switches) + 1)):
        outcome.errors.append("switch indices are not 1, 2, 3, ...")
    if ref is not None:
        _check_fixed(cfg, mass, switches, paths["snapshots.csv"], snapshot_rows, ref, outcome)
    else:
        _check_adaptive(cfg, mass, switches, snapshot_rows, outcome)
    return outcome


def _check_fixed(cfg, mass, switches, snap_path, snapshot_rows, ref, outcome) -> None:
    steps, cells, dt = cfg["N"], cfg["J"], cfg["horizon"] / cfg["N"]
    got_steps = [int(round(t / dt)) for t in switches[:, 1]]
    matched = sum(a == b for a, b in zip(got_steps, ref.switch_steps))
    outcome.switches_failed = len(ref.switch_steps) - matched + max(0, len(got_steps) - len(ref.switch_steps))
    if outcome.switches_failed:
        outcome.errors.append(f"switch steps {got_steps} differ from reference {ref.switch_steps}")
    if len(mass) != steps:
        outcome.errors.append(f"mass.csv has {len(mass)} rows, expected {steps}")
        return
    if np.max(np.abs(mass[:, 0] - ref.times)) > PRINT_TOL:
        outcome.errors.append("mass.csv times differ from n*dt")
    worst = float(np.max(np.abs(mass[:, 1] - ref.masses)))
    if worst > PRINT_TOL:
        outcome.errors.append(f"mass.csv masses differ from the reference by {worst:.3e}")
    if not np.array_equal(mass[:, 2].astype(int), ref.fluxes):
        outcome.errors.append("mass.csv fluxes differ from the reference relay")
    stride = cfg.get("snapshot_stride", 0)
    expected_rows = (steps // stride) * (cells + 1) if stride else 0
    if snapshot_rows != expected_rows:
        outcome.errors.append(f"snapshots.csv has {snapshot_rows} rows, expected {expected_rows}")
    elif stride and steps % stride == 0:
        last = _tail_rows(snap_path, cells + 1)
        if np.max(np.abs(last[:, 2] - ref.final_field)) > PRINT_TOL:
            outcome.errors.append("final snapshot differs from the reference field")


def _check_adaptive(cfg, mass, switches, snapshot_rows, outcome) -> None:
    alpha, lower, upper, horizon = cfg["alpha"], cfg["m"], cfg["M"], cfg["horizon"]
    oracle = closed_form_times(cfg)
    got = switches[:, 1]
    matched = sum(abs(a - b) <= CLOSED_FORM_TOL for a, b in zip(got, oracle))
    outcome.switches_failed = len(oracle) - matched + max(0, len(got) - len(oracle))

    # A switch can be late but never early: at grid times the Riemann mass
    # equals the exact mass of a relay that has switched no later.
    early = [k + 1 for k, (a, b) in enumerate(zip(got, oracle)) if a < b - CLOSED_FORM_TOL]
    if early:
        outcome.errors.append(f"switches {early[:5]} come before their closed-form time")
    if len(got) > len(oracle):
        outcome.errors.append(f"{len(got)} switches, closed form allows {len(oracle)}")
    if snapshot_rows != 0:
        outcome.errors.append(f"snapshots.csv has {snapshot_rows} rows, expected 0")
    if not len(mass):
        outcome.errors.append("mass.csv is empty")
        return

    times, masses, fluxes = mass[:, 0], mass[:, 1], mass[:, 2]
    dts = np.diff(times, prepend=0.0)
    first_dt = upper / (2.0 * alpha * cfg["N0"])
    later_dt = (upper - lower) / (2.0 * alpha * cfg["Nstage"])
    on_grid = np.isclose(dts, first_dt, rtol=0, atol=1e-8) | np.isclose(dts, later_dt, rtol=0, atol=1e-8)
    if not on_grid.all() or times[-1] < horizon or (len(times) > 1 and times[-2] >= horizon):
        outcome.errors.append("mass.csv times are not the stage grid up to the horizon")
    # Interior mass identity: each step adds exactly 2*alpha*dt*s.
    defect = np.abs(np.diff(masses, prepend=0.0) - 2.0 * alpha * dts * fluxes)
    if defect.max() > 1e-8:
        outcome.errors.append(f"mass identity broken by {defect.max():.3e}")
    # The relay flips the flux on the step after each reported switch.
    # A switch on the last step has no following step to flip.
    flips = times[:-1][fluxes[1:] != fluxes[:-1]]
    unflipped = len(got) - len(flips)
    if (
        fluxes[0] != 1
        or unflipped not in (0, 1)
        or (unflipped == 1 and abs(got[-1] - times[-1]) > PRINT_TOL)
        or np.any(np.abs(flips - got[: len(flips)]) > PRINT_TOL)
    ):
        outcome.errors.append("mass.csv flux flips do not follow the reported switches")
