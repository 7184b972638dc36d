"""Frozen CLI stdout: exit code and sha256 of stdout per golden invocation.

Every case in ``golden/cli_stdout.json`` is replayed through ``cli.run``.
A case with a ``table`` entry first runs that ``export-table`` invocation
and passes the exported file where its argv says ``{table}``.  Re-record
the hashes from the current code only after an intended change of output:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from golden_runs import capture, export_table

GOLDEN = Path(__file__).parent / "golden" / "cli_stdout.json"


def replay(case: dict, workdir: Path) -> tuple[int, str]:
    """Exit code and stdout of one golden case."""
    argv = case["argv"]
    if "table" in case:
        path = workdir / "golden.table"
        export_table(case["table"], path)
        argv = [str(path) if arg == "{table}" else arg for arg in argv]
    return capture(argv)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))["cases"]


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_cli_stdout_is_frozen(case, tmp_path):
    code, out = replay(case, tmp_path)
    assert code == case["exit"]
    assert _sha256(out) == case["stdout_sha256"], out[:2000]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        for case in CASES:
            case["exit"], out = replay(case, Path(scratch))
            case["stdout_sha256"] = _sha256(out)
    GOLDEN.write_text(json.dumps({"cases": CASES}, indent=2) + "\n", encoding="utf-8")
    print(f"recorded {len(CASES)} cases in {GOLDEN}")
