"""Every script in ``examples/`` runs to completion.

Each example is executed in-process as ``__main__`` with ``sys.argv``
holding the script alone (the scripts read optional positional
arguments, so pytest's own argv must not leak in) and its stdout
captured.  Without arguments none of them writes a file.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(script)])
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
