"""Every top-level function and class in ``src/`` is read somewhere in ``src/``.

A name that only its own definition mentions is dead in the package: either
it goes, or it moves to ``tests/`` when only tests read it.  A read counts
only when it resolves to the definition, outside the definition itself: a
name bound by ``from .m import name``, ``m.name`` on a sibling module bound
by ``from . import m``, or a bare name of the defining module.  An attribute
of any other object, such as ``args.name``, reads nothing.

An exception class earns its name the same way: ``src/`` catches it by name,
or it is an ``InternalInvariantError``, whose name the CLI prints.  Any
other fault is a plain ``ValueError`` with a message.
"""

from __future__ import annotations

import ast
import builtins
from pathlib import Path

from line_counts import COLUMNS, count_lines

SRC = Path(__file__).resolve().parent.parent / "src" / "blockwitness"

# read only from outside src/, each for the reason given
ALLOWED = {
    "witness.construct_witness": "the library entry point the README documents",
    "factored.factor": "perfbench/tracing.py reads its cache statistics",
    "oracle.cross_validate": "perfbench/workloads.py and demos/witness_tour.py call it",
    "tables.serialize_table": "perfbench/workloads.py and demos/table_audit_walkthrough.py call it",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreferenced_names(src: Path = SRC) -> list[str]:
    """``module.name`` of each top-level definition no other code in ``src`` reads."""
    defined = []
    readers: dict[str, set[str | None]] = {}
    for path in sorted(src.glob("*.py")):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        # the definition each bare name stands for, and the sibling modules bound
        names = {
            top.name: f"{path.stem}.{top.name}" for top in body if isinstance(top, DEFINITIONS)
        }
        defined += names.values()
        modules = {}
        for top in body:
            if isinstance(top, ast.ImportFrom) and top.level == 1:
                for alias in top.names:
                    if top.module:
                        names[alias.asname or alias.name] = f"{top.module}.{alias.name}"
                    else:
                        modules[alias.asname or alias.name] = alias.name
        for top in body:
            owner = f"{path.stem}.{top.name}" if isinstance(top, DEFINITIONS) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    target = names.get(node.id)
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules
                ):
                    target = f"{modules[node.value.id]}.{node.attr}"
                else:
                    continue
                if target:
                    readers.setdefault(target, set()).add(owner)
    return [owner for owner in defined if not readers.get(owner, set()) - {owner}]


def test_every_definition_is_read_in_src():
    unread = unreferenced_names()
    assert [name for name in unread if name not in ALLOWED] == []
    # an allowed name that src/ has come to read needs its entry no more
    assert sorted(set(unread) & set(ALLOWED)) == sorted(ALLOWED)


def test_the_guard_sees_a_name_read_only_by_itself(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def recursive(k):\n    return recursive(k - 1) if k else used()\n\n\n"
        "def by_module():\n    return 2\n\n\n"
        "def by_name():\n    return 3\n\n\n"
        "def flag():\n    return 4\n\n\n"
        "class Lonely:\n    pass\n\n\n"
        "Lonely = 2\n",
        encoding="utf-8",
    )
    # an import alone reads nothing, and neither does an attribute of an
    # unrelated object that shares a defined name (args.flag, args.recursive)
    (tmp_path / "b.py").write_text(
        "from . import a\n"
        "from .a import by_name as renamed, recursive\n\n\n"
        "def run(args):\n"
        "    return a.by_module(), renamed(), args.flag, args.recursive\n",
        encoding="utf-8",
    )
    assert unreferenced_names(tmp_path) == ["a.recursive", "a.flag", "a.Lonely", "b.run"]


def _builtin_exception(name: str) -> bool:
    cls = getattr(builtins, name, None)
    return isinstance(cls, type) and issubclass(cls, BaseException)


def uncaught_exception_classes(src: Path = SRC) -> list[str]:
    """``module.name`` of each exception class defined in ``src`` that no
    ``except`` clause there names and that is no ``InternalInvariantError``."""
    bases: dict[str, list[str]] = {}
    owners: dict[str, str] = {}
    caught: set[str] = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                owners[top.name] = f"{path.stem}.{top.name}"
                bases[top.name] = [ast.unparse(b).rsplit(".", 1)[-1] for b in top.bases]
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught.update(ast.unparse(t).rsplit(".", 1)[-1] for t in types)

    def lineage(name: str) -> set[str]:
        return {name}.union(*(lineage(base) for base in bases.get(name, ())))

    return [
        owner
        for name, owner in owners.items()
        if any(map(_builtin_exception, lineage(name)))
        and "InternalInvariantError" not in lineage(name)
        and name not in caught
    ]


def test_every_exception_class_is_caught_or_an_invariant():
    assert uncaught_exception_classes() == []


def test_the_exception_guard_sees_an_uncaught_class(tmp_path):
    (tmp_path / "a.py").write_text(
        "class InternalInvariantError(RuntimeError):\n    pass\n\n\n"
        "class Fault(InternalInvariantError):\n    pass\n\n\n"
        "class Caught(ValueError):\n    pass\n\n\n"
        "class Raised(ValueError):\n    pass\n\n\n"
        "class Deeper(Raised):\n    pass\n\n\n"
        "class Plain:\n    pass\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text(
        "from . import a\n\n\n"
        "def run():\n"
        "    try:\n        pass\n"
        "    except (a.Caught, OSError):\n        pass\n",
        encoding="utf-8",
    )
    assert uncaught_exception_classes(tmp_path) == ["a.Raised", "a.Deeper"]


def test_line_count_columns_sum_to_each_module():
    # docstring, comment, blank and code lines part each module's wc -l count
    for path in sorted(SRC.glob("*.py")):
        counts = count_lines(path.read_text(encoding="utf-8"))
        assert counts["lines"] == path.read_bytes().count(b"\n"), path.name
        assert sum(counts[column] for column in COLUMNS[1:]) == counts["lines"], path.name
    text = '"""Module.\n\nMore."""\n\n# note\nX = """not a\n# docstring"""\n\n\ndef f():\n    """One."""\n'
    assert count_lines(text) == {"lines": 11, "docstring": 4, "comment": 1, "blank": 3, "code": 3}
