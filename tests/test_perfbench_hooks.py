"""The traced benchmark wraps each layer by name (HOOKS in perfbench/child.py).

A hooked name that a refactor removes is silently left unwrapped: the
benchmark then prints `layer absent:` and its result lacks that layer's
metrics.  This test fails first.  child.py is loaded by path and not
changed."""

import importlib.util
from pathlib import Path

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


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
