"""The CI workflow, the digest runner and the frozen digests name each other.

Each ``tests/golden/*.sha256`` is checked by exactly one ``sha256sum --check``
step, and every file a step checks exists, so retiring a step cannot leave
its golden behind and no step can point at a missing file.  Each such step
is the one line that pipes ``tests/golden_runs.py NAME`` into the check of
``NAME.sha256``; the runner's functions, the rows of the provenance table in
``tests/golden/README.md`` and the digest files are one set of names; and
the workflow holds no inline Python and no step name longer than 100
characters, so provenance lives in the table and not in step names.
"""

from __future__ import annotations

import re
from collections import Counter
from pathlib import Path

from golden_runs import RUNS

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
GOLDEN = ROOT / "tests" / "golden"

_CHECK = re.compile(r"sha256sum --check (\S+)")
_DIGEST_STEP = re.compile(
    r"^ +run: set -o pipefail; PYTHONPATH=src:tests python3 tests/golden_runs\.py (\w+)"
    r" \| sha256sum --check tests/golden/\1\.sha256$",
    re.MULTILINE,
)
_INLINE_PYTHON = re.compile(r"\bpython3? -c\b")
_STEP_NAME = re.compile(r"^ +- name: (.*)$", re.MULTILINE)
_TABLE_ROW = re.compile(r"^\| `(\w+)` \|", re.MULTILINE)
_BASH_DEFAULT = "    defaults:\n      run:\n        shell: bash\n"


def checked_files(text: str) -> Counter:
    """How often each path follows ``sha256sum --check`` in workflow text."""
    return Counter(_CHECK.findall(text))


def digest_steps(text: str) -> Counter:
    """How many one-line runner steps check each digest name in workflow text."""
    return Counter(_DIGEST_STEP.findall(text))


def inline_python(text: str) -> list[str]:
    """Each ``python -c`` or ``python3 -c`` in workflow text."""
    return _INLINE_PYTHON.findall(text)


def long_step_names(text: str, limit: int = 100) -> list[str]:
    """The step names in workflow text longer than ``limit`` characters."""
    return [name for name in _STEP_NAME.findall(text) if len(name) > limit]


def table_rows(text: str) -> list[str]:
    """The digest name in the first cell of each provenance table row."""
    return _TABLE_ROW.findall(text)


def golden_names() -> list[str]:
    return sorted(path.stem for path in GOLDEN.glob("*.sha256"))


def test_every_golden_digest_is_checked_once():
    checked = checked_files(WORKFLOW.read_text(encoding="utf-8"))
    goldens = {
        path.relative_to(ROOT).as_posix() for path in GOLDEN.glob("*.sha256")
    }
    assert goldens
    assert {path: checked[path] for path in goldens} == dict.fromkeys(goldens, 1)
    assert [path for path in checked if not (ROOT / path).is_file()] == []


def test_runner_table_and_digests_name_one_set():
    rows = table_rows((GOLDEN / "README.md").read_text(encoding="utf-8"))
    assert sorted(rows) == sorted(set(rows))
    assert sorted(RUNS) == sorted(rows) == golden_names()


def test_each_digest_is_checked_by_one_runner_line():
    text = WORKFLOW.read_text(encoding="utf-8")
    steps = digest_steps(text)
    assert steps == Counter(golden_names())
    # every sha256sum --check in the workflow is one of those lines
    assert sum(steps.values()) == sum(checked_files(text).values())
    assert _BASH_DEFAULT in text


def test_workflow_holds_no_inline_python_and_short_step_names():
    text = WORKFLOW.read_text(encoding="utf-8")
    assert inline_python(text) == []
    assert long_step_names(text) == []


def test_the_guard_reads_each_check():
    text = (
        "  | sha256sum --check tests/golden/a.sha256\n"
        "  | sha256sum --check tests/golden/b.sha256\n"
        "  | sha256sum --check tests/golden/a.sha256\n"
    )
    assert checked_files(text) == {"tests/golden/a.sha256": 2, "tests/golden/b.sha256": 1}
    line = "PYTHONPATH=src:tests python3 tests/golden_runs.py {} | sha256sum --check tests/golden/{}.sha256"
    steps = (
        f"        run: set -o pipefail; {line.format('a', 'a')}\n"
        # the runner's name and the checked file disagree
        f"        run: set -o pipefail; {line.format('a', 'b')}\n"
        # no pipefail, so a failing runner could pass on a truncated stdout
        f"        run: {line.format('c', 'c')}\n"
        # a block scalar is not the one-line form
        f"        run: |\n          set -o pipefail\n          {line.format('d', 'd')}\n"
    )
    assert digest_steps(steps) == {"a": 1}
    assert inline_python("run: python3 -c 'print(1)'\nrun: python -c \"x\"\nrun: python3 x.py") == [
        "python3 -c", "python -c",
    ]
    names = "      - name: " + "x" * 100 + "\n      - name: " + "y" * 101 + "\n"
    assert long_step_names(names) == ["y" * 101]
    table = (
        "| Digest | Command |\n|---|---|\n"
        "| `a` | `scan` |\n| `b` | `degrees` |\n| `a` | again |\nnot a row `c` |\n"
    )
    assert table_rows(table) == ["a", "b", "a"]
