"""The traced benchmark wraps each layer by name (HOOKS in perfbench/child.py).

A hooked name that a refactor removes is silently left unwrapped: the
benchmark then prints `layer absent:` and its result lacks that layer's
metrics.  A name that resolves but that the run no longer calls through
reports 0 calls.  These tests fail first.  child.py is loaded by path and
not changed."""

import importlib.util
from pathlib import Path

from massgate.cli import main

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"
REFERENCE = ROOT / "tests" / "data" / "golden" / "reference" / "config.json"


def load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def test_every_traced_hook_names_a_callable_where_it_is_looked_up():
    child = load_child()
    assert child.HOOKS
    for span, owner_path, attr in child.HOOKS:
        owner = child._resolve(owner_path)
        assert owner is not None, f"{span}: {owner_path} does not resolve"
        assert callable(getattr(owner, attr, None)), f"{span}: {owner_path}.{attr} is not a callable"


def test_every_per_step_hook_is_called_once_per_step(tmp_path, monkeypatch):
    child = load_child()
    calls = {}

    def counting(span, fn):
        def counted(*args, **kwargs):
            calls[span] += 1
            return fn(*args, **kwargs)

        return counted

    for span, owner_path, attr in child.HOOKS:
        owner = child._resolve(owner_path)
        calls[span] = 0
        monkeypatch.setattr(owner, attr, counting(span, getattr(owner, attr)))
    assert main(["run", "--config", str(REFERENCE), "--out", str(tmp_path / "out")]) == 0  # N = 200
    for span in ("stepper.step", "tridiag.solve", "quadrature.mass", "controller.observe"):
        assert calls[span] == 200, span
    # the one stage is assembled once; the switches are paired and the
    # files emitted once, after the run
    for span in ("stepper.assemble", "runner.compare_with_oracle", "cli.emit_outputs"):
        assert calls[span] == 1, span
