"""Compare the end-to-end benchmark of a parent revision and of the working
tree in alternated pairs of `perfbench/run.py` runs.

Usage, from the repository root:

    python3 tools/bench_pairs.py --parent <rev> --workload snapshot_emit --pairs 10
    python3 tools/bench_pairs.py --parent <rev> --pairs 5 --seconds 30 --bench-json BENCH_<pr>.json

The parent revision is extracted with `git archive` into a temporary
directory, and the working tree's `perfbench/` is copied over its own, so
that both trees are measured by the same harness.  Each pair runs
`perfbench/run.py --workload W --seed S --seconds X` once in each tree,
the parent first in even pairs and the working tree first in odd ones,
so that a drift of the machine's speed within a pair favours neither.

For each end-to-end metric of BENCHMARK.json, it prints both medians, the
parent's quartiles q1-q3, how many pairs the change wins (the direction
from the metric's `better`; a tie counts for neither side), the median
change relative to the parent's, and whether the median difference
exceeds the parent's interquartile range.  A metric whose parent spread,
(q3 - q1) / median, exceeds its bound is marked unresolved: its runs
cannot tell a change of the bound's size from noise.  It also counts the
runs that were not `correct` and the `failed` operations on each side.
With --bench-json, the last line of the working tree's last run of each
workload is written there, keyed by workload, as in the repository's
BENCH_<pr>.json files, with the per-layer metrics of one more run of
the working tree with `--trace 1` merged into its metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# The result of a run that printed no JSON line.
_BROKEN = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def extract(revision: str, dest: Path) -> Path:
    """``revision`` of this repository under ``dest``, with the working
    tree's perfbench/ in place of its own."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", revision], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    shutil.rmtree(dest / "perfbench", ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: bool = False) -> dict:
    """The JSON last line of one perfbench run in ``tree``, or _BROKEN."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace))]
    result = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = result.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if result.returncode == 0 and lines else _BROKEN
    except json.JSONDecodeError:
        return _BROKEN


def run_pairs(parent: Path, change: Path, workload: str, seed: int, seconds: float,
              pairs: int) -> tuple[list[dict], list[dict]]:
    """The results of ``pairs`` runs in each tree, in pair order; the
    parent runs first in even pairs, the change in odd ones."""
    trees, results = (parent, change), ([], [])
    for i in range(pairs):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            result = run_once(trees[side], workload, seed, seconds)
            results[side].append(result)
            wall = result["metrics"].get("wall_s", {}).get("value")
            print(f"  {workload} pair {i + 1}/{pairs} {('parent', 'change')[side]}: wall_s {wall}",
                  file=sys.stderr, flush=True)
    return results


def with_layers(result: dict, tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """``result`` with the per-layer metrics of one traced run in ``tree``
    added to its metrics, and that run counted in its outcome."""
    traced = run_once(tree, workload, seed, seconds, trace=True)
    return {**result, "correct": result["correct"] and traced["correct"],
            "attempted": result["attempted"] + traced["attempted"], "failed": result["failed"] + traced["failed"],
            "metrics": {**traced["metrics"], **result["metrics"]}}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """q1, median and q3 of ``values`` (inclusive method)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(parent: list[dict], change: list[dict], metric: dict) -> dict:
    """One metric over the pairs: medians, the parent's quartiles, the
    change's wins, and whether the difference and the spread are resolved."""
    name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
    pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in zip(parent, change)
             if name in p["metrics"] and name in c["metrics"]]
    if not pairs:
        return {"name": name, "pairs": 0}
    q1, median, q3 = quartiles([p for p, _ in pairs])
    _, change_median, _ = quartiles([c for _, c in pairs])
    return {"name": name, "unit": metric["unit"], "parent": median, "q1": q1, "q3": q3, "change": change_median,
            "wins": sum(sign * (c - p) > 0 for p, c in pairs), "pairs": len(pairs),
            "relative": (change_median - median) / median if median else 0.0,
            "exceeds_iqr": abs(change_median - median) > q3 - q1,
            "unresolved": median != 0 and (q3 - q1) / abs(median) > metric["bound"]}


def health(results: list[dict]) -> str:
    incorrect = sum(not r.get("correct") for r in results)
    failed = sum(r.get("failed", 0) for r in results)
    attempted = sum(r.get("attempted", 0) for r in results)
    return f"{incorrect} of {len(results)} runs not correct, {failed} of {attempted} operations failed"


def report(workload: str, parent: list[dict], change: list[dict], metrics: list[dict]) -> list[str]:
    lines = [f"{workload}: {len(parent)} pairs; parent {health(parent)}; change {health(change)}"]
    for row in (compare(parent, change, metric) for metric in metrics):
        if not row["pairs"]:
            lines.append(f"  {row['name']}: no pair measured it")
            continue
        lines.append(f"  {row['name']:12s} {row['parent']:.6g} [{row['q1']:.6g}, {row['q3']:.6g}] -> "
                     f"{row['change']:.6g} {row['unit']} ({row['relative']:+.1%}); change better in "
                     f"{row['wins']}/{row['pairs']}; difference {'exceeds' if row['exceeds_iqr'] else 'within'} "
                     f"the parent IQR{'; unresolved: spread exceeds the bound' if row['unresolved'] else ''}")
    return lines


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the git revision to compare against")
    parser.add_argument("--workload", action="append", choices=workloads, help="repeatable; default: all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=benchmark.get("run_seconds", 30))
    parser.add_argument("--bench-json", type=Path, help="write the change's last result per workload here")
    args = parser.parse_args(argv)

    last = {}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent = extract(args.parent, Path(tmp))
        for workload in args.workload or workloads:
            results = run_pairs(parent, ROOT, workload, args.seed, args.seconds, args.pairs)
            print("\n".join(report(workload, *results, benchmark["end_to_end"])), flush=True)
            last[workload] = results[1][-1]
            if args.bench_json:
                last[workload] = with_layers(last[workload], ROOT, workload, args.seed, args.seconds)
    if args.bench_json:
        args.bench_json.write_text(json.dumps(last, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
