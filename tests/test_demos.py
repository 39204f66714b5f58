"""Each demo script prints exactly the text recorded for it under
``fixtures/demo_<name>.txt``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spineflow

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))
FIXTURES = Path(__file__).parent / "fixtures"
SOURCE_ROOT = str(Path(spineflow.__file__).parent.parent)


def test_every_demo_is_pinned():
    assert DEMOS
    assert ({f"demo_{demo.stem}.txt" for demo in DEMOS}
            == {path.name for path in FIXTURES.glob("demo_*.txt")})


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_output(demo):
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SOURCE_ROOT}, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (FIXTURES / f"demo_{demo.stem}.txt").read_text()
