"""Line counts of each ``src/blockwitness`` module, with code apart from docstrings.

Run ``python3 tests/line_counts.py``.  Each module's lines (as ``wc -l``
counts them) split into four kinds that sum to them: docstring lines (every
line of a module, class or function docstring, found with ``ast``),
comment-only lines, blank lines, and code lines: those that hold a token
other than a comment, so a string literal's every line is code.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "blockwitness"
COLUMNS = ("lines", "docstring", "comment", "blank", "code")
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def count_lines(text: str) -> dict[str, int]:
    """The five columns for one module's source text."""
    docstring = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstring.update(range(first.lineno, first.end_lineno + 1))
    code = set()  # lines some token other than a comment or layout touches
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    counts = dict.fromkeys(COLUMNS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        if number in docstring:
            kind = "docstring"
        elif number in code:
            kind = "code"
        elif line.strip():
            kind = "comment"
        else:
            kind = "blank"
        counts["lines"] += 1
        counts[kind] += 1
    return counts


def main() -> None:
    total = dict.fromkeys(COLUMNS, 0)
    print(f"{'module':<16}" + "".join(f"{column:>10}" for column in COLUMNS))
    for path in sorted(SRC.glob("*.py")):
        counts = count_lines(path.read_text(encoding="utf-8"))
        for column in COLUMNS:
            total[column] += counts[column]
        print(f"{path.name:<16}" + "".join(f"{counts[column]:>10}" for column in COLUMNS))
    print(f"{'total':<16}" + "".join(f"{total[column]:>10}" for column in COLUMNS))


if __name__ == "__main__":
    main()
