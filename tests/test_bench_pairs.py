import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
SPEC = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

# A stand-in for perfbench/run.py: each call appends its tree's name to
# ../order.log, with ":trace" for a traced run, and prints the next of the
# tree's fixed result lines, or of its traced ones.
FAKE_RUN = """\
import sys
from pathlib import Path
tree = Path(__file__).resolve().parents[1]
traced = sys.argv[sys.argv.index("--trace") + 1] == "1"
name = tree.name + ":trace" * traced
log = tree.parent / "order.log"
with open(log, "a") as f:
    f.write(name + "\\n")
calls = log.read_text().split().count(name)
print("workload line")
print((tree / ("traced.txt" if traced else "results.txt")).read_text().splitlines()[calls - 1])
"""

METRICS = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24},
           {"name": "steps_per_s", "unit": "1/s", "better": "higher", "bound": 0.24}]


def fake_tree(root: Path, name: str, walls, rates, failed=(), layers=None) -> Path:
    tree = root / name
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(FAKE_RUN, encoding="utf-8")
    lines = [json.dumps({"correct": i not in failed, "attempted": 3, "failed": int(i in failed),
                         "metrics": {"wall_s": {"value": wall, "unit": "s"},
                                     "steps_per_s": {"value": rate, "unit": "1/s"}}})
             for i, (wall, rate) in enumerate(zip(walls, rates))]
    (tree / "results.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    if layers is not None:
        traced = {"correct": True, "attempted": 2, "failed": 0, "metrics": layers}
        (tree / "traced.txt").write_text(json.dumps(traced) + "\n", encoding="utf-8")
    return tree


def test_pairs_alternate_and_report_medians_quartiles_and_wins(tmp_path):
    parent = fake_tree(tmp_path, "parent", [1.0, 2.0, 3.0, 4.0], [100, 200, 300, 400])
    change = fake_tree(tmp_path, "change", [0.5, 2.0, 3.5, 1.0], [150, 100, 300, 500], failed={2})
    results = bench_pairs.run_pairs(parent, change, "long_narrow", 0, 1.0, 4)
    order = (tmp_path / "order.log").read_text().split()
    assert order == ["parent", "change", "change", "parent", "parent", "change", "change", "parent"]

    wall, rate = (bench_pairs.compare(*results, metric) for metric in METRICS)
    # parent [1, 2, 3, 4]: inclusive quartiles 1.75 and 3.25; change sorted [0.5, 1, 2, 3.5]
    assert (wall["q1"], wall["parent"], wall["q3"], wall["change"]) == (1.75, 2.5, 3.25, 1.5)
    assert (wall["wins"], wall["pairs"]) == (2, 4)  # 0.5 < 1 and 1 < 4; a tie at 2 counts for neither
    assert wall["relative"] == pytest.approx(-0.4)
    assert wall["exceeds_iqr"] is False  # |1.5 - 2.5| is within 3.25 - 1.75
    assert wall["unresolved"] is True  # a spread of 1.5 / 2.5 is past the 0.24 bound
    assert (rate["q1"], rate["parent"], rate["q3"], rate["change"]) == (175, 250, 325, 225)
    assert (rate["wins"], rate["pairs"]) == (2, 4)  # higher is better: 150 > 100 and 500 > 400

    lines = bench_pairs.report("long_narrow", *results, METRICS)
    assert lines[0] == ("long_narrow: 4 pairs; parent 0 of 4 runs not correct, 0 of 12 operations failed; "
                        "change 1 of 4 runs not correct, 1 of 12 operations failed")
    assert lines[1].startswith("  wall_s       2.5 [1.75, 3.25] -> 1.5 s (-40.0%); change better in 2/4")


def test_a_run_without_a_result_line_is_not_correct_and_measures_nothing(tmp_path):
    tree = tmp_path / "broken"
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text("raise SystemExit(3)\n", encoding="utf-8")
    result = bench_pairs.run_once(tree, "wide", 0, 1.0)
    assert result["correct"] is False and result["metrics"] == {}
    assert bench_pairs.compare([result], [result], METRICS[0])["pairs"] == 0


def test_a_bench_json_result_carries_the_layers_of_one_traced_run(tmp_path):
    layers = {"tridiag.solve.calls": {"value": 20000, "unit": "count"},
              "tridiag.solve.self_s": {"value": 0.05, "unit": "s"}}
    change = fake_tree(tmp_path, "change", [0.5], [150], layers=layers)
    result = bench_pairs.run_once(change, "long_narrow", 0, 1.0)
    merged = bench_pairs.with_layers(result, change, "long_narrow", 0, 1.0)
    assert (tmp_path / "order.log").read_text().split() == ["change", "change:trace"]
    assert merged["metrics"] == {**result["metrics"], **layers}
    assert (merged["correct"], merged["attempted"], merged["failed"]) == (True, 5, 0)

    (change / "traced.txt").unlink()  # a traced run that prints no result line
    broken = bench_pairs.with_layers(result, change, "long_narrow", 0, 1.0)
    assert broken["correct"] is False and broken["metrics"] == result["metrics"]
