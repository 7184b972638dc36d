"""Frozen demo stdout: sha256 of each ``demos/*.py`` script's stdout.

Each demo runs in a fresh interpreter with ``PYTHONPATH=src``; a demo with no
entry in ``golden/demo_stdout.json`` fails.  Re-record the hashes from the
current code only after an intended change of output:

    PYTHONPATH=src python tests/test_demos.py
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden" / "demo_stdout.json"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def demo_stdout_sha256(demo: Path) -> str:
    """sha256 of the demo's stdout; the demo must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, check=True, timeout=120
    )
    return hashlib.sha256(done.stdout).hexdigest()


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_stdout_is_frozen(demo):
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))["stdout_sha256"]
    assert demo.name in recorded, f"no golden record for {demo.name}"
    assert demo_stdout_sha256(demo) == recorded[demo.name]


if __name__ == "__main__":
    hashes = {demo.name: demo_stdout_sha256(demo) for demo in DEMOS}
    GOLDEN.write_text(json.dumps({"stdout_sha256": hashes}, indent=2) + "\n", encoding="utf-8")
    print(f"recorded {len(hashes)} demos in {GOLDEN}")
