"""The README's library example runs and prints what its comments say."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_block() -> str:
    """The README's one ```python block."""
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return block


def test_library_example_prints_its_comments():
    code = python_block()
    expected = [
        line.split("# ", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    assert expected == ["II.a", "[3,1,1,1,1,1,1,1]", "36"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
