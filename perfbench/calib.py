"""Fixed calibration work, run as its own process between repetitions.

It imports numpy and runs a pure-Python tridiagonal sweep over numpy
arrays plus a few vector operations and float formatting: the same mix
of interpreter, numpy-scalar and allocation work that dominates a
`massgate run`.  It never imports massgate, so its run time depends only
on the machine, and `run.py` divides every time by it (see README.md).
"""

import numpy as np

ROUNDS = 2500
ORDER = 49


def sweep(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    diag = diag.copy()
    rhs = rhs.copy()
    for i in range(1, len(diag)):
        w = sub[i - 1] / diag[i - 1]
        diag[i] -= w * sup[i - 1]
        rhs[i] -= w * rhs[i - 1]
    x = np.empty(len(diag))
    x[-1] = rhs[-1] / diag[-1]
    for i in range(len(diag) - 2, -1, -1):
        x[i] = (rhs[i] - sup[i] * x[i + 1]) / diag[i]
    return x


def main() -> None:
    off = np.full(ORDER - 1, -0.5)
    diag = np.full(ORDER, 2.0)
    u = np.zeros(ORDER)
    text = []
    for k in range(ROUNDS):
        u = sweep(off, diag, off, u + 1.0)
        text.append(f"{k:d},{float(u.sum()):.10f}")
    if not np.isfinite(u).all() or len(text) != ROUNDS:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
