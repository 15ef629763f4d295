"""The study benchmark: four workloads driven through the public API.

Run from the repository root::

    python3 -m bench measure --workload study_paper --seed 7 --seconds 20 --trace 0
    python3 -m bench run --seed 7 --out bench/out/run.json
    python3 -m bench trace --seed 7
    python3 -m bench compare bench/baseline/set1.json bench/baseline/set2.json

``BENCHMARK.json`` at the repository root defines the workloads and the
metrics; ``bench/README.md`` explains them.  The package under test is
imported from ``src/`` of the same checkout, never from an installed copy,
so the numbers always belong to the code next to them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

__all__ = ["BENCH", "ROOT", "OUT", "SetupError", "definition", "use_source_tree"]

#: The benchmark's own directory and the checkout root above it.
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: Run outputs, scratch journals and trace files (ignored by git).
OUT = BENCH / "out"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no source tree, no definition)."""


def use_source_tree() -> None:
    """Put this checkout's ``src/`` first on ``sys.path``.

    Raises :class:`SetupError` when the checkout has no ``src/repro``:
    the benchmark refuses to measure whatever copy of the package happens
    to be importable from elsewhere.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SetupError(f"no package source under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def definition() -> dict:
    """The parsed ``BENCHMARK.json`` of this checkout."""
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as error:
        raise SetupError(f"cannot read {path}: {error}") from None
