"""Print the sha256 of every output file that `massgate` writes for a
fixed set of configs, one ``<sha256>  <case>/<file>`` line each.

The cases:

* `run` on each config under tests/data/golden/;
* `compare` on the reference golden config;
* `oracle` on each golden config, whose standard output is hashed as
  the file `stdout`;
* `sweep --n-list 50,200,1000` on the reference golden config;
* `run` on the reference golden config with N=50 and a snapshot at
  every step, as `snapshots-J<J>` once for each J in `JS`, so that every
  parity and size of the mirrored snapshot rows is hashed, and both
  sides of the 64-row cap on a fold's straight-line solve (J = 129, 130);
* `run` on the four perfbench workloads at seeds 0-3, as
  `perfbench/run.py`'s `workload_config` builds them;
* `run` on a seeded sample of 60 fixed and 60 adaptive configs, with J
  drawn from `JS`, both quadratures on the fixed grid and snapshot
  strides 0, 1 and 7.

A command that fails prints ``exit <code>  <case>`` in place of its
digests.  massgate runs in-process, from the `src/` of the checkout
given as the only argument (default: the one holding this script); the
configs come from that same checkout.  Each case writes into a temporary
directory that is removed once it is hashed, so at most one case's
outputs (40 MB for snapshot_emit) are on disk at a time.

Usage, to check that a change keeps every output byte of its parent
commit:

    git archive <parent> | tar -x -C /tmp/parent
    python3 tools/output_digests.py /tmp/parent > parent.txt
    python3 tools/output_digests.py > change.txt
    diff parent.txt change.txt

An empty diff means every file is byte-identical.  The perfbench cases
import numpy, as `perfbench/run.py` does, and scipy, which
`perfbench/checks.py` imports.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

JS = (2, 3, 4, 5, 7, 8, 20, 50, 51, 129, 130, 200, 201)
STRIDES = (0, 1, 7)
SEEDS = range(4)
SAMPLE_SEED = 0
SAMPLE_SIZE = 60


def sample_config(rng: random.Random, mode: str) -> dict:
    """A random config of ``mode``, with its horizon on or off the grid."""
    upper = 10 ** rng.uniform(-2, 1)
    lower = upper * rng.uniform(0.1, 0.9)
    alpha = 10 ** rng.uniform(-2, 1)
    first = upper / (2 * alpha)  # the first closed-form switch
    spacing = (upper - lower) / (2 * alpha)
    horizon = max(0.1 * first, first + rng.uniform(-0.5, 12) * spacing)
    config = {"m": lower, "M": upper, "alpha": alpha, "horizon": horizon, "J": rng.choice(JS), "mode": mode,
              "snapshot_stride": rng.choice(STRIDES)}
    if mode == "fixed":
        config.update(N=rng.randint(1, 400), quadrature=rng.choice(("riemann", "trapezoid")))
    else:
        config.update(N0=rng.randint(1, 6), Nstage=rng.randint(1, 6))
    return config


def cases(root: Path):
    """(name, command, config) for every case, in a fixed order; the
    command is the argument list before ``--config``."""
    golden = root / "tests" / "data" / "golden"
    configs = {path.name: json.loads((path / "config.json").read_text()) for path in sorted(golden.iterdir())}
    for name, config in configs.items():
        yield f"golden-{name}", ["run"], config
    yield "compare-reference", ["compare"], configs["reference"]
    for name, config in configs.items():
        yield f"oracle-{name}", ["oracle"], config
    yield "sweep-reference", ["sweep", "--n-list", "50,200,1000"], configs["reference"]
    for cells in JS:
        yield f"snapshots-J{cells}", ["run"], {**configs["reference"], "J": cells, "N": 50, "snapshot_stride": 1}

    sys.path.insert(0, str(root / "perfbench"))  # run.py imports its sibling modules
    spec = importlib.util.spec_from_file_location("perfbench_run", root / "perfbench" / "run.py")
    bench = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses looks it up
    spec.loader.exec_module(bench)
    for name in bench.WORKLOADS:
        for seed in SEEDS:
            yield f"{name}-seed{seed}", ["run"], bench.workload_config(name, seed)

    rng = random.Random(SAMPLE_SEED)
    for mode in ("fixed", "adaptive"):
        for i in range(SAMPLE_SIZE):
            yield f"sample-{mode}-{i}", ["run"], sample_config(rng, mode)


def digests(out: Path):
    """``<sha256>  <path>`` for every file under ``out``, sorted by path."""
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        yield f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out.parent).as_posix()}"


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    sys.path.insert(0, str(root / "src"))
    from massgate.cli import main as massgate

    with tempfile.TemporaryDirectory() as tmp:
        for name, command, config in cases(root):
            case = Path(tmp) / name
            case.mkdir()
            config_path = case.with_suffix(".json")
            config_path.write_text(json.dumps(config))
            stdout = io.StringIO()
            out = [] if command == ["oracle"] else ["--out", str(case)]
            with contextlib.redirect_stdout(stdout):
                code = massgate([*command, "--config", str(config_path), *out])
            if not out:  # oracle writes nothing but its standard output
                (case / "stdout").write_text(stdout.getvalue(), encoding="utf-8")
            print("\n".join(digests(case)) if code == 0 else f"exit {code}  {name}", flush=True)
            shutil.rmtree(case)
            config_path.unlink()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
