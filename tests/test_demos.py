"""Each demo script prints what it printed when its expected output under
tests/data/demos/ was recorded."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "data" / "demos"
DEMOS = sorted(path.stem for path in (ROOT / "demos").glob("*.py"))


def test_every_demo_has_expected_output():
    assert DEMOS == sorted(path.stem for path in EXPECTED.glob("*.txt"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output_is_unchanged(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert result.stdout == (EXPECTED / f"{name}.txt").read_text(encoding="utf-8")
