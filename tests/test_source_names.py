"""Every top-level function and class in ``src/`` is read somewhere in ``src/``.

A name that only its own definition mentions is dead in the package: either
it goes, or it moves to ``tests/`` when only tests read it.  Names match by
their bare text, read (not assigned) anywhere outside the definition itself.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "blockwitness"

# read only from outside src/, each for the reason given
ALLOWED = {
    "witness.construct_witness": "the library entry point the README documents",
    "factored.factor": "perfbench/tracing.py reads its cache statistics",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreferenced_names(src: Path = SRC) -> list[str]:
    """``module.name`` of each top-level definition no other code in ``src`` reads."""
    defined = []
    readers: dict[str, set[str]] = {}
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = f"{path.stem}.{top.name}" if isinstance(top, DEFINITIONS) else None
            if owner:
                defined.append(owner)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    readers.setdefault(node.id, set()).add(owner)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    readers.setdefault(node.attr, set()).add(owner)
    return [
        owner
        for owner in defined
        if not readers.get(owner.split(".", 1)[1], set()) - {owner}
    ]


def test_every_definition_is_read_in_src():
    unread = unreferenced_names()
    assert [name for name in unread if name not in ALLOWED] == []
    # an allowed name that src/ has come to read needs its entry no more
    assert sorted(set(unread) & set(ALLOWED)) == sorted(ALLOWED)


def test_the_guard_sees_a_name_read_only_by_itself(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def recursive(k):\n    return recursive(k - 1) if k else used()\n\n\n"
        "class Lonely:\n    pass\n\n\n"
        "Lonely = 2\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text("from .a import recursive\n", encoding="utf-8")
    assert unreferenced_names(tmp_path) == ["a.recursive", "a.Lonely"]
