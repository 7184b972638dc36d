"""Run every ``killed`` mutant of ``tests/mutants.py`` against its tests.

Run ``python3 tests/run_mutants.py [NAME ...]``: every mutant, or only the
named ones (an unknown name exits 2).  For each mutant, ``src/`` is copied
to a temporary directory and the snippet in the copy is replaced; the
snippet must occur exactly once.  A fresh interpreter must then import
``blockwitness`` from the copy, not from an installed tree, and
``pytest -x -q`` runs the mutant's test files with the copy first on
``PYTHONPATH``.  One line per mutant says what happened.  The exit status
is 1 when a ``killed`` mutant survives, a snippet does not match exactly
once, the copy is not what gets imported, or pytest ends in anything but a
pass or a test failure; otherwise 0.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mutants import MUTANTS, Mutant

ROOT = Path(__file__).resolve().parent.parent
# prints where the package was imported from
WHERE = "import blockwitness; print(blockwitness.__file__)"


def mutated(text: str, mutant: Mutant) -> str:
    """``text`` with the mutant's one snippet replaced; ``ValueError`` unless it occurs once."""
    count = text.count(mutant.snippet)
    if count != 1:
        raise ValueError(f"snippet of {mutant.name} occurs {count} times in {mutant.module}")
    return text.replace(mutant.snippet, mutant.replacement)


def run_mutant(mutant: Mutant) -> str:
    """``killed by <first failing test>`` or ``survived``; ``ValueError`` on a
    setup fault or a pytest error."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        module = copy / "blockwitness" / mutant.module
        module.write_text(mutated(module.read_text(encoding="utf-8"), mutant), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(copy), str(ROOT / "tests"))))
        where = subprocess.run(
            [sys.executable, "-c", WHERE], env=env, cwd=tmp, capture_output=True, text=True
        )
        if where.returncode or not Path(where.stdout.strip()).is_relative_to(copy):
            raise ValueError(
                f"{mutant.name}: blockwitness imports from {where.stdout.strip() or '?'},"
                f" not the copy {copy}\n{where.stderr}"
            )
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            env=env, cwd=ROOT, capture_output=True, text=True,
        )
    # pytest exits 0 when every test passed and 1 when some test failed
    if done.returncode not in (0, 1):
        raise ValueError(f"{mutant.name}: pytest exited {done.returncode}\n{done.stdout}{done.stderr}")
    if done.returncode == 0:
        return "survived"
    failed = [line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAILED ")]
    return f"killed by {failed[0] if failed else '?'}"


def main(names: list[str]) -> int:
    unknown = set(names) - {mutant.name for mutant in MUTANTS}
    if unknown:
        print(f"no such mutant: {' '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    faults = 0
    for mutant in MUTANTS:
        if mutant.outcome != "killed" or (names and mutant.name not in names):
            continue
        start = time.perf_counter()
        try:
            outcome = run_mutant(mutant)
        except ValueError as exc:
            outcome = f"error: {exc}"
        if not outcome.startswith("killed"):
            faults += 1
        print(f"{mutant.name} {outcome} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"mutants-summary faults={faults}")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
