"""The CI workflow and the frozen digests in ``tests/golden`` name each other.

Each ``tests/golden/*.sha256`` is checked by exactly one ``sha256sum --check``
step, and every file a step checks exists, so retiring a step cannot leave
its golden behind and no step can point at a missing file.
"""

from __future__ import annotations

import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

_CHECK = re.compile(r"sha256sum --check (\S+)")


def checked_files(text: str) -> Counter:
    """How often each path follows ``sha256sum --check`` in workflow text."""
    return Counter(_CHECK.findall(text))


def test_every_golden_digest_is_checked_once():
    checked = checked_files(WORKFLOW.read_text(encoding="utf-8"))
    goldens = {
        path.relative_to(ROOT).as_posix() for path in (ROOT / "tests" / "golden").glob("*.sha256")
    }
    assert goldens
    assert {path: checked[path] for path in goldens} == dict.fromkeys(goldens, 1)
    assert [path for path in checked if not (ROOT / path).is_file()] == []


def test_the_guard_reads_each_check():
    text = (
        "  | sha256sum --check tests/golden/a.sha256\n"
        "  | sha256sum --check tests/golden/b.sha256\n"
        "  | sha256sum --check tests/golden/a.sha256\n"
    )
    assert checked_files(text) == {"tests/golden/a.sha256": 2, "tests/golden/b.sha256": 1}
