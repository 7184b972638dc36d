"""The four workloads: their items, the call each item makes, and its output.

Every item makes the same library calls the command line makes for it, and
its result is rendered to one canonical string outside the timed region.
The workload seed drives only the ``table_audit`` corpus and the
``construct_grid`` order; the other two workloads are the same on every seed.
"""

from __future__ import annotations

import hashlib
import random
from types import SimpleNamespace

import tablegen

WORKLOADS = ("cross_validate", "construct_grid", "table_roundtrip", "table_audit")

# Sizes, and roughly the uncalibrated time one cold pass takes on a loaded
# 2-core x86-64 container with Python 3.11, set-up included.  A run of S
# seconds makes round(S / time) passes, a number fixed by S so that every run
# pools the same samples: the 15 s run of BENCHMARK.json makes 12, 6, 18 and
# 10.  With 18 roundtrip passes its tail percentile falls inside the samples
# of the largest n rather than on the edge between two sizes.
CROSS_VALIDATE_N = (9, 24)
CONSTRUCT_GRID_N = (9, 128)
ROUNDTRIP_N = (10, 22)
AUDIT_FILES = 1000
PASS_SECONDS = {
    "cross_validate": 1.25,
    "construct_grid": 2.5,
    "table_roundtrip": 0.83,
    "table_audit": 1.5,
}

# The tiny sizes of the self-test; each list is a prefix or subset of the
# full one, so the same golden records cover it.
TINY = {
    "cross_validate": (9, 12),
    "construct_grid": (9, 30),
    "table_roundtrip": (10, 12),
    "table_audit": 12,
}


def load_program() -> SimpleNamespace:
    """Import the library modules the workloads call."""
    from blockwitness import factored, oracle, tables, witness

    return SimpleNamespace(factored=factored, oracle=oracle, tables=tables, witness=witness)


def make_items(name: str, seed: int, tiny: bool, program: SimpleNamespace) -> list:
    """The workload's item list, generated from ``seed``."""
    oracle = program.oracle
    if name == "cross_validate":
        lo, hi = TINY[name] if tiny else CROSS_VALIDATE_N
        return [(n, p, q) for n in range(lo, hi + 1) for p, q in oracle.prime_pairs(n)]
    if name == "construct_grid":
        lo, hi = TINY[name] if tiny else CONSTRUCT_GRID_N
        items = [
            (n, p, q)
            for n in range(lo, hi + 1)
            for p, q in oracle.prime_pairs(n)
            if n // p > 1
        ]
        random.Random(seed).shuffle(items)
        return items
    if name == "table_roundtrip":
        lo, hi = TINY[name] if tiny else ROUNDTRIP_N
        primes_up_to = program.factored.primes_up_to
        return [(n, tuple(primes_up_to(n))) for n in range(lo, hi + 1)]
    if name == "table_audit":
        count = TINY[name] if tiny else AUDIT_FILES
        return [table.data for table in tablegen.planted_corpus(seed, count)]
    raise ValueError(f"unknown workload {name!r}")


def run_item(name: str, program: SimpleNamespace, item):
    """The timed call: exactly what the command line does for this item."""
    if name == "cross_validate":
        return program.oracle.cross_validate(*item)
    if name == "construct_grid":
        return program.witness.construct_witness(*item)
    tables = program.tables
    if name == "table_roundtrip":
        # export_sn_table(n, primes) is exactly serialize_table(build_sn_summary(n,
        # primes)); making its two calls here keeps the built summary, so the
        # round-trip check costs no second build.
        n, primes = item
        built = tables.build_sn_summary(n, primes)
        data = tables.serialize_table(built)
        summary = tables.parse_table(data)
        return built, data, summary, [tables.audit(summary, c) for c in "abc"]
    summary = tables.parse_table(item)
    return summary, [tables.audit(summary, c) for c in "abc"]


def item_key(name: str, index: int, item) -> str:
    """Key of the item's expected record: (n, p, q), n, or the file index."""
    if name in ("cross_validate", "construct_grid"):
        return "%d %d %d" % item
    if name == "table_roundtrip":
        return str(item[0])
    return f"file{index}"


def digest(text: str, length: int = 16) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:length]


def canonical(name: str, result) -> str:
    """The item's output as one string, in the golden record's form."""
    if name == "cross_validate":
        if result.deferral is not None:
            case, partition = f"deferred-{result.deferral}", "-"
            agree = "na"
        else:
            case, partition = result.case_id, result.witness.partition.to_literal()
            agree = "true" if result.oracle_agrees else "false"
        holds = "true" if result.oracle_condition_holds else "false"
        return f"{case} {partition} agree={agree} oracle={holds}"
    if name == "construct_grid":
        # Hashed: the grid's full records would make a megabyte-sized golden file.
        return digest(
            f"{result.candidate.case_id} {result.partition.to_literal()}"
            f" {result.degree.factored_str()}",
            10,
        )
    findings = result[-1]
    lines = [
        f"{f.conjecture} {f.p} {f.q} {f.verdict}" for group in findings for f in group
    ]
    if name == "table_audit":
        return "\n".join(lines)
    built, data, summary, _ = result
    roundtrip = summary == built
    details = digest("\n".join(f.detail for group in findings for f in group))
    head = [f"export={digest(data.decode('utf-8'))}", f"roundtrip={roundtrip}", f"details={details}"]
    return "\n".join(head + lines)
