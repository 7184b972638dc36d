"""Cold-start cost of ``import blockwitness.cli``, which imports every module.

Run ``python3 tests/import_cost.py [RUNS]``.  Every command-line call, golden
run and benchmark pass starts a new interpreter, so each pays this import.
Each of RUNS (default 5) fresh interpreters imports this checkout's CLI
and times the import statement; the best time is printed,
since a loaded host only ever makes a run slower.  One more interpreter
runs the import under ``-X importtime``, and the five modules with the
largest self time among those the import added are printed, in microseconds.
The package is imported from a temporary copy, byte-compiled first, so
the figures do not depend on which ``__pycache__`` directories the
checkout holds, and the script writes none there.
"""

from __future__ import annotations

import compileall
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "blockwitness"
TIMED = (
    "import time; start = time.perf_counter(); import blockwitness.cli;"
    " print(time.perf_counter() - start)"
)
STARTUP = "import sys; print(*sys.modules)"


def _run(env: dict[str, str], *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    )


def costliest(importtime: str, startup: set[str], count: int = 5) -> list[tuple[str, int, int]]:
    """``(module, self_us, cumulative_us)`` of the ``count`` largest self times
    in ``-X importtime`` output, leaving out the modules of ``startup``."""
    rows = []
    for line in importtime.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header, or a line not from -X importtime
        module = fields[2].strip()
        if module not in startup:
            rows.append((module, int(fields[0]), int(fields[1])))
    return sorted(rows, key=lambda row: -row[1])[:count]


def main(argv: list[str]) -> int:
    runs = int(argv[0]) if argv else 5
    with tempfile.TemporaryDirectory(prefix="import-cost-") as tmp:
        copy = Path(tmp) / "blockwitness"
        shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
        compileall.compile_dir(copy, quiet=1)
        env = dict(os.environ, PYTHONPATH=tmp)
        times = sorted(float(_run(env, "-c", TIMED).stdout) for _ in range(runs))
        startup = set(_run(env, "-c", STARTUP).stdout.split())
        profile = _run(env, "-X", "importtime", "-c", "import blockwitness.cli").stderr
    print(
        f"import blockwitness.cli: best of {runs} fresh interpreters {times[0] * 1e3:.1f} ms"
        f" (median {times[len(times) // 2] * 1e3:.1f} ms)"
    )
    print(f"{'module':<28}{'self_us':>10}{'cumulative_us':>15}")
    for module, self_us, cumulative_us in costliest(profile, startup):
        print(f"{module:<28}{self_us:>10}{cumulative_us:>15}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
