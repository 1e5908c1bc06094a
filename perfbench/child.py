"""One `massgate run` in its own process, optionally traced from outside.

Usage:
    python3 child.py SRC_DIR CONFIG OUT_DIR RESULT_PREFIX MODE

MODE is one of
    plain   hook only cli.config_from_mapping, to time the end of set-up
    trace   hook every layer in HOOKS and keep one span per call
    setup   exit as soon as the config is validated (set-up probe)

The child imports massgate from SRC_DIR only, runs the CLI's `main` on
`run --config CONFIG --out OUT_DIR` and writes RESULT_PREFIX.json (set-up
end time and exit code) and, when tracing, RESULT_PREFIX.npz with the
spans.  A hooked name that no longer exists is left unwrapped, so it has
no spans and the parent reports that layer as absent.  Times are
CLOCK_MONOTONIC readings, which the parent process shares, so set-up time
is measured from the parent's spawn.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (span name, object the caller looks the name up on, attribute).  The
# name is wrapped where it is looked up, so `from x import f` call sites
# see the wrapper.
HOOKS = (
    ("cli.config_from_mapping", "massgate.cli", "config_from_mapping"),
    ("cli.emit_outputs", "massgate.cli", "emit_outputs"),
    ("runner.run", "massgate.cli", "run"),
    ("runner.compare_with_oracle", "massgate.cli", "compare_with_oracle"),
    ("analytic.switch_time", "massgate.runner.analytic", "switch_time"),
    ("stepper.step", "massgate.runner", "step"),
    ("stepper.assemble", "massgate.stepper", "assemble"),
    ("tridiag.solve", "massgate.stepper", "solve"),
    ("quadrature.mass", "massgate.runner", "mass"),
    ("controller.observe", "massgate.runner", "observe"),
)
SETUP_HOOK = HOOKS[0]


class SetupDone(BaseException):
    """Raised by the set-up probe to leave the CLI once the config is valid."""


class Spans:
    """In-memory spans: name id, start, end and the id of the enclosing span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack = [-1]

    def wrap(self, span_name: str, fn):
        nid = len(self.names)
        self.names.append(span_name)
        name, start, end, parent, stack = self.name, self.start, self.end, self.parent, self._stack
        clock = time.monotonic

        def traced(*args, **kwargs):
            sid = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    def first_end(self, span_name: str) -> float | None:
        if span_name not in self.names:
            return None
        nid = self.names.index(span_name)
        for sid, n in enumerate(self.name):
            if n == nid:
                return self.end[sid]
        return None


def _resolve(path: str):
    """Import the longest importable prefix of `path`, then follow attributes."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


def install(spans: Spans, hooks) -> None:
    """Wrap each hook target that exists."""
    for span_name, owner_path, attr in hooks:
        owner = _resolve(owner_path)
        target = getattr(owner, attr, None)
        if callable(target):
            setattr(owner, attr, spans.wrap(span_name, target))


def main(argv: list[str]) -> int:
    src, config, out_dir, prefix, mode = argv
    sys.path.insert(0, src)
    import massgate
    import massgate.cli as cli

    if not massgate.__file__.startswith(src):
        print(f"imported massgate from {massgate.__file__}, not from {src}", file=sys.stderr)
        return 2

    spans = Spans()
    install(spans, HOOKS if mode == "trace" else (SETUP_HOOK,))

    def finish(rc: int) -> int:
        result = {"rc": rc, "setup_end": spans.first_end(SETUP_HOOK[0])}
        with open(prefix + ".json", "w", encoding="utf-8") as f:
            json.dump(result, f)
        return rc

    if mode == "setup":
        validate = cli.config_from_mapping

        def validate_then_stop(raw):
            validate(raw)
            raise SetupDone

        cli.config_from_mapping = validate_then_stop
        try:
            cli.main(["run", "--config", config, "--out", out_dir])
        except SetupDone:
            return finish(0)
        return finish(3)

    rc = 1
    try:
        rc = cli.main(["run", "--config", config, "--out", out_dir])
    finally:
        finish(rc)
    if mode == "trace":
        import numpy as np

        np.savez(
            prefix + ".npz",
            names=np.array(spans.names),
            name=np.array(spans.name, dtype=np.int32),
            start=np.array(spans.start),
            end=np.array(spans.end),
            parent=np.array(spans.parent, dtype=np.int64),
        )
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
