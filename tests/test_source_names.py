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
import os
import subprocess
import sys
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


ENVIRONMENT = {"environ", "environb", "getenv", "putenv"}


def environment_reads(src: Path = SRC) -> list[str]:
    """``module:line`` of each import of an environment accessor from ``os``
    and of each ``os.<accessor>`` in ``src``, under any name ``os`` is bound to."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {"os"} | {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name == "os"
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os" and node.level == 0:
                hit = any(alias.name in ENVIRONMENT for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                hit = node.value.id in bound and node.attr in ENVIRONMENT
            else:
                continue
            if hit:
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_src_reads_no_environment():
    # output depends on argv and input files alone, so a new cap is a constant
    assert environment_reads() == []


def test_the_environment_guard_sees_every_accessor(tmp_path):
    (tmp_path / "a.py").write_text(
        "import os\n"
        "import os as system\n"
        "from os import getenv\n"
        "from os import path, environb as raw\n\n\n"
        "def f():\n"
        "    return os.environ.get('X'), system.putenv, os.path.join, os.sep\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text(
        "from os import path\n\n\n"
        "def g(args):\n"
        "    return args.environ, path.sep\n",
        encoding="utf-8",
    )
    assert environment_reads(tmp_path) == ["a:3", "a:4", "a:8", "a:8"]


# the oracle's p'-degree generator, which the case tree must not share
GENERATOR = (
    "principal_p_prime_partitions", "_one_hook_lifts", "_hook_lifts", "_multipartition_count",
)


def _imported_modules(node: ast.AST) -> list[str]:
    # the dotted modules an import binds or reads, a relative one as if src
    # were the package blockwitness
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level == 0:
        base = node.module or ""
    else:
        base = "blockwitness" + (f".{node.module}" if node.module else "")
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


def oracle_split_faults(src: Path = SRC) -> list[str]:
    """Each place where ``src`` lets the case tree and the oracle's generator meet.

    Only ``oracle`` defines the generator's names, and it defines all of
    them; ``witness`` and ``blocks`` import nothing from ``oracle``; and in
    ``oracle`` a name bound from ``witness`` is read only inside
    ``cross_validate``, which builds the witness to be audited.  An
    annotation reads nothing.
    """
    faults = []
    for path in sorted(src.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = {top.name for top in tree.body if isinstance(top, DEFINITIONS)}
        if module == "oracle":
            faults += [
                f"oracle does not define {name}"
                for name in GENERATOR
                if name not in defined
            ]
        else:
            faults += [f"{module} defines {name}" for name in GENERATOR if name in defined]
        if module in ("witness", "blocks"):
            faults += [
                f"{module} imports oracle at line {node.lineno}"
                for node in ast.walk(tree)
                if "blockwitness.oracle" in _imported_modules(node)
            ]
        if module != "oracle":
            continue
        bound = set()  # names from witness, and witness itself
        for node in tree.body:
            if isinstance(node, ast.ImportFrom):
                base = _imported_modules(node)[0]
                bound.update(
                    alias.asname or alias.name
                    for alias in node.names
                    if "blockwitness.witness" in (base, f"{base}.{alias.name}")
                )
        annotations = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
                parts = [arg.annotation for arg in every if arg] + [node.returns]
            elif isinstance(node, ast.AnnAssign):
                parts = [node.annotation]
            else:
                continue
            annotations.update(id(inner) for part in parts if part for inner in ast.walk(part))
        for top in tree.body:
            if isinstance(top, ast.FunctionDef) and top.name == "cross_validate":
                continue
            faults += [
                f"oracle reads {node.id} outside cross_validate at line {node.lineno}"
                for node in ast.walk(top)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in bound
                and id(node) not in annotations
            ]
    return faults


def test_the_case_tree_and_the_oracle_generator_stay_apart():
    assert oracle_split_faults() == []


def test_the_split_guard_sees_every_crossing(tmp_path):
    (tmp_path / "blocks.py").write_text(
        "def _hook_lifts(lam, e, first):\n    return iter(())\n\n\n"
        "def member(lam):\n    from .oracle import divides\n    return divides(lam, 2)\n",
        encoding="utf-8",
    )
    (tmp_path / "witness.py").write_text("from . import oracle\n", encoding="utf-8")
    # annotations read nothing, and cross_validate may build a witness; a
    # helper may not, and neither may a module-level alias
    (tmp_path / "oracle.py").write_text(
        "from .witness import Witness, _construct as build\n"
        "from . import witness\n\n\n"
        "def principal_p_prime_partitions(n, p):\n    return frozenset()\n\n\n"
        "def _one_hook_lifts(b, p):\n    return []\n\n\n"
        "def _multipartition_count(c, a):\n    return 1\n\n\n"
        "class Record:\n    found: Witness | None\n\n\n"
        "def audit(found: Witness) -> Witness:\n    return found\n\n\n"
        "def search(params):\n    return build(params)\n\n\n"
        "def cross_validate(params):\n    return build(params), witness.candidates(params)\n\n\n"
        "BUILD = witness\n",
        encoding="utf-8",
    )
    # only witness and blocks are barred from oracle
    (tmp_path / "tables.py").write_text("import blockwitness.oracle\n", encoding="utf-8")
    assert oracle_split_faults(tmp_path) == [
        "blocks defines _hook_lifts",
        "blocks imports oracle at line 6",
        "oracle does not define _hook_lifts",
        "oracle reads build outside cross_validate at line 26",
        "oracle reads witness outside cross_validate at line 33",
        "witness imports oracle at line 1",
    ]


# prints the modules that importing the CLI, and with it every module, adds
COLD_IMPORT = (
    "import sys; before = set(sys.modules); import blockwitness.cli;"
    " print(*sorted(set(sys.modules) - before))"
)


def test_a_cold_import_loads_no_dataclasses():
    # every CLI call starts cold, and dataclasses brings inspect, ast, dis
    # and tokenize with it; the records are named tuples
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    added = subprocess.run(
        [sys.executable, "-c", COLD_IMPORT], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "blockwitness.tables" in added
    assert "dataclasses" not in added


def record_rebuilds(src: Path = SRC) -> list[str]:
    """``module:line`` of each ``._make(`` or ``._replace(`` call in ``src``.

    Both build a named tuple with ``tuple.__new__``, past the record's own
    ``__new__``, so a spec or parameter record skips its checks and a
    partition keeps a size and length of other runs.
    """
    return [
        f"{path.stem}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("_make", "_replace")
    ]


def test_src_builds_every_record_through_its_constructor():
    assert record_rebuilds() == []


def test_the_rebuild_guard_sees_make_and_replace(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(lam, params, Partition):\n"
        "    moved = lam._replace(runs=())\n"
        "    return Partition._make((moved.runs, 0, 0)), params._asdict(), params.replace('w', '')\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text(
        "def g(spec):\n    make = spec._make\n    return make, type(spec)._replace(spec, blocks=())\n",
        encoding="utf-8",
    )
    assert record_rebuilds(tmp_path) == ["a:2", "a:3", "b:3"]


def unbounded_caches(src: Path = SRC) -> list[str]:
    """``module:line`` of each ``functools`` cache in ``src`` without an integer ``maxsize``.

    A cache is bounded only by an ``lru_cache`` call whose ``maxsize``, by
    position or keyword, is an ``int`` literal: a bare ``lru_cache``, one
    called without a size, ``maxsize=None`` or any other expression is
    flagged, and so is ``functools.cache``.  Names are resolved through the
    module's ``functools`` imports, so an attribute of any other object reads
    nothing.
    """
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names, modules = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools" and not node.level:
                names.update((alias.asname or alias.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                modules.update(alias.asname or alias.name for alias in node.names
                               if alias.name == "functools")

        def tool(node: ast.AST) -> str | None:
            if isinstance(node, ast.Name):
                return names.get(node.id)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                return node.attr if node.value.id in modules else None
            return None

        bounded = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and tool(node.func) == "lru_cache":
                sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
                if [type(getattr(size, "value", None)) for size in sizes] == [int]:
                    bounded.add(id(node.func))
        found += [
            f"{path.stem}:{line}"
            for line in sorted(
                node.lineno
                for node in ast.walk(tree)
                if tool(node) in ("lru_cache", "cache") and id(node) not in bounded
            )
        ]
    return found


def test_every_src_cache_has_an_integer_maxsize():
    # memory must never grow without bound, so every cache names its size
    assert unbounded_caches() == []


def test_the_cache_guard_sees_every_unbounded_cache(tmp_path):
    (tmp_path / "a.py").write_text(
        "import functools\n"
        "import functools as tools\n"
        "from functools import cache, lru_cache\n"
        "from functools import lru_cache as memo\n\n\n"
        "@lru_cache(maxsize=None)\n"
        "@lru_cache\n"
        "@lru_cache()\n"
        "@memo(maxsize=True)\n"
        "@cache\n"
        "def f(n):\n"
        "    return n\n\n\n"
        "@lru_cache(maxsize=32)\n"
        "@functools.lru_cache(8)\n"
        "@tools.lru_cache(maxsize=2)\n"
        "def g(n):\n"
        "    return n\n\n\n"
        "h = functools.lru_cache(maxsize=None)(g)\n"
        "k = tools.cache(g), memo(maxsize=SIZE)(g)\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text(
        "def g(args, lru_cache):\n"
        "    return args.lru_cache(maxsize=None), args.cache, lru_cache(maxsize=None)\n",
        encoding="utf-8",
    )
    assert unbounded_caches(tmp_path) == [
        "a:7", "a:8", "a:9", "a:10", "a:11", "a:23", "a:24", "a:24",
    ]


def test_line_count_columns_sum_to_each_module():
    # docstring, comment, blank and code lines part each module's wc -l count
    for path in sorted(SRC.glob("*.py")):
        counts = count_lines(path.read_text(encoding="utf-8"))
        assert counts["lines"] == path.read_bytes().count(b"\n"), path.name
        assert sum(counts[column] for column in COLUMNS[1:]) == counts["lines"], path.name
    text = '"""Module.\n\nMore."""\n\n# note\nX = """not a\n# docstring"""\n\n\ndef f():\n    """One."""\n'
    assert count_lines(text) == {"lines": 11, "docstring": 4, "comment": 1, "blank": 3, "code": 3}
