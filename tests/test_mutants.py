"""Every mutant in ``tests/mutants.py`` still applies to ``src/`` as written.

Running the mutants takes minutes (``python3 tests/run_mutants.py``); this
only checks that each snippet occurs in its module exactly once, so a change
that moves a snippet must update or retire its entry in the same change.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "blockwitness"


def test_every_mutant_snippet_occurs_once():
    counts = {
        mutant.name: (SRC / mutant.module).read_text(encoding="utf-8").count(mutant.snippet)
        for mutant in MUTANTS
    }
    assert counts == {mutant.name: 1 for mutant in MUTANTS}
    # one entry per name, each well formed
    assert max(Counter(mutant.name for mutant in MUTANTS).values()) == 1
    for mutant in MUTANTS:
        assert (mutant.outcome, bool(mutant.reason)) in {("killed", False), ("equivalent", True)}
        assert mutant.tests and all((ROOT / path).is_file() for path in mutant.tests)
