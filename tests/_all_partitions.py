"""The oracle's sets from every partition of n: the reference for the digit lift.

:func:`partitions_of` is a :class:`Partition` over each of the library's
runs of a partition of n, the enumeration every test reads.
:func:`prime_view` enumerates the partitions of n, keeps those of p′-degree
by abacus-weight valuations, and tests the survivors for principal-block
membership.  It shares the library's enumeration and membership test, so it
is independent of the digit-by-digit generation only; the fully
independent references are in ``_oracles.py``.  The abacus weight and the
p-quotient are read bead by bead here, as references for the library's runs
kernel and for the quotient box each of the oracle's hook lifts adds.
:func:`p_prime_degree_partitions` adds the oracle's p^k-hooks to every
p-core, not only the principal one, so its count certificate covers all of
Irr_p'(S_n).  :func:`conjugate` is the partition of the library's
conjugate-runs kernel, the one self-conjugacy reads, for the conjugation
checks.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from _oracles import beta_set, factorial_valuation
from blockwitness import oracle
from blockwitness.blocks import principal_block_contains
from blockwitness.factored import InternalInvariantError
from blockwitness.partitions import Partition, conjugate_runs, from_parts, partition_runs


def partitions_of(n: int) -> Iterator[Partition]:
    """The :class:`Partition` of each of the library's runs of a partition of n, in its order."""
    return map(Partition, partition_runs(n))


def conjugate(lam: Partition) -> Partition:
    """The transpose of ``lam``, the partition of its conjugate runs."""
    return Partition(conjugate_runs(lam.runs))


def weight(lam: Partition, e: int) -> int:
    """The ``e``-weight: level steps that packing the abacus beads takes.

    Each bead of the beta-set of length ``lam.length`` sits at level
    ``beta // e`` of runner ``beta % e``; the beads already on a runner add
    up to sum(c * (c - 1) / 2) of the levels, which packing keeps.
    """
    if e < 1:
        raise ValueError(f"an abacus needs e >= 1 runners, got {e}")
    counts = [0] * e
    total = 0
    for bead in beta_set(lam.parts, lam.length):
        level, runner = divmod(bead, e)
        total += level - counts[runner]
        counts[runner] += 1
    return total


def p_quotient(lam: Partition, p: int) -> tuple[Partition, ...]:
    """The ``p`` runner partitions encoding the removed ``p``-hooks.

    Uses a beta-set length divisible by ``p``; runner i's bead levels are
    the beta-set of component i.
    """
    length = -(-lam.length // p) * p
    rows: list[list[int]] = [[] for _ in range(p)]
    for bead in beta_set(lam.parts, length):
        level, runner = divmod(bead, p)
        rows[runner].append(level)
    components = []
    for levels in rows:
        parts = tuple(level - (len(levels) - 1 - i) for i, level in enumerate(levels))
        components.append(from_parts(a for a in parts if a > 0))
    return tuple(components)


def degree_valuation(lam: Partition, p: int) -> int:
    """Exponent of p in the degree, from abacus weights instead of hooks.

    The number of hooks with length divisible by ``e`` is the ``e``-weight
    w_e of the partition, so the exponent of p in the hook product is the
    sum of w_{p^k} over k >= 1 and

        nu_p(degree) = nu_p(|lam|!) - sum_{k >= 1} w_{p^k}(lam).

    One abacus pass per power of p up to the largest hook length; no power
    above it divides any hook.
    """
    if p < 2:
        raise ValueError(f"valuation requires p >= 2, got {p}")
    total = factorial_valuation(lam.size, p)
    largest_hook = lam.parts[0] + lam.length - 1 if lam.parts else 0
    e = p
    while e <= largest_hook:
        total -= weight(lam, e)
        e *= p
    return total


@lru_cache(maxsize=1)
def _shapes(n: int) -> tuple[Partition, ...]:
    # the partitions of n, enumerated once for all primes
    return tuple(partitions_of(n))


@lru_cache(maxsize=None)
def prime_view(n: int, p: int) -> tuple[frozenset[Partition], frozenset[Partition]]:
    """(Irr_p'(S_n), Irr_p'(B_0)) from all p(n) partitions of n, kept for every test."""
    p_prime = frozenset(lam for lam in _shapes(n) if degree_valuation(lam, p) == 0)
    return p_prime, frozenset(lam for lam in p_prime if principal_block_contains(lam, p))


def base_digits(n: int, p: int) -> list[int]:
    """The base-p digits a_0, a_1, ... of n, lowest first; [0] for n = 0."""
    if n < 0:
        raise ValueError(f"cannot partition {n}")
    digits = []
    while n:
        n, a = divmod(n, p)
        digits.append(a)
    return digits or [0]


def p_prime_degree_partitions(n: int, p: int) -> dict[Partition, list[Partition]]:
    """Irr_p'(S_n) from the library's digit lift, keyed by p-core.

    To every partition of a_0 = n mod p, a_k hooks of length p^k are added
    for each digit a_k > 0 by the oracle's kernel, in rounds of
    non-decreasing runner as in the principal generation.  The count is
    certified the same way: prod_{k >= 1} m(p^k, a_k) members for the
    principal core and m(1, a_0) times as many in all, all distinct;
    anything else raises ``InternalInvariantError``.  The library's count
    and kernel are looked up at call time, so a test can corrupt them.
    """
    if p < 2:
        raise ValueError(f"p'-degree sets require p >= 2, got {p}")
    digits = base_digits(n, p)
    groups = {core: [core] for core in partitions_of(digits[0])}
    for k, a in enumerate(digits[1:], start=1):
        if a:
            for core, members in groups.items():
                lifts = dict.fromkeys(members, 0)
                for _ in range(a):
                    lifts = {
                        lift: r
                        for lam, first in lifts.items()
                        for lift, r in oracle._hook_lifts(lam, p**k, first)
                    }
                groups[core] = list(lifts)
    per_core = 1
    for k, a in enumerate(digits[1:], start=1):
        per_core *= oracle._multipartition_count(p**k, a)
    block = len(groups[from_parts((digits[0],) if digits[0] else ())])
    distinct = len({lam.parts for members in groups.values() for lam in members})
    if block != per_core or distinct != per_core * oracle._multipartition_count(1, digits[0]):
        raise InternalInvariantError(
            f"digit lift for p={p}, digits {digits}: {block} principal and"
            f" {distinct} partitions in all, expected {per_core} per core"
        )
    return groups
