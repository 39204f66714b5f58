"""Where the benchmark finds the program under test and the oracles.

The benchmark runs from the root of a source checkout.  It imports
``spineflow`` from ``src/`` and the brute-force oracles from
``tests/oracles.py`` of that checkout, never from an installed copy,
and refuses to run when either is missing.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
DATA = BENCH_DIR / "data"
#: scratch space for input files, removed by the runner
WORK = ROOT / ".perfbench_work"
#: span files of traced runs, kept
OUT = ROOT / ".perfbench_out"

#: modules whose public callables the traced run wraps, in report order
MODULES = ("fatgraph", "model", "flowgraph", "equivalence", "census", "cli")


class MissingProgram(RuntimeError):
    """The checkout does not hold the program or the oracles."""


def _import_from(name: str, directory: Path):
    if str(directory) not in sys.path:
        sys.path.insert(0, str(directory))
    try:
        module = importlib.import_module(name)
    except ImportError as err:
        raise MissingProgram(f"cannot import {name} from {directory}: {err}") from err
    origin = Path(module.__file__).resolve()
    if directory.resolve() not in origin.parents:
        raise MissingProgram(f"{name} was imported from {origin}, "
                             f"not from {directory}")
    return module


def import_program():
    """Import ``spineflow`` and every traced submodule from ``src/``."""
    package = _import_from("spineflow", SRC)
    for name in MODULES:
        importlib.import_module(f"spineflow.{name}")
    return package


def import_oracles():
    """Import the independent brute-force oracles, read only."""
    return _import_from("oracles", TESTS)
