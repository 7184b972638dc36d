"""Principal blocks and p'-degree partitions of symmetric groups.

Two characters lie in the same p-block exactly when their partitions share a
p-core, and the principal p-block of the symmetric group on n letters
collects the partitions whose p-core is the one-row partition (n mod p).
Membership is decided by comparing p-abacus runner counts with those of
that core, without building the core.  The counts come from the shape's
runs of equal parts (:func:`blockwitness.partitions.runner_counts`), so a
witness candidate, which is given by its runs, is tested without its n
parts.

The partitions of p'-degree are generated, not searched for, by
Macdonald's theorem (I. G. Macdonald, "On the degrees of the irreducible
representations of symmetric groups", Bull. London Math. Soc. 3, 1971).
The p-core tower of a partition has the p-core at level 0, and level k + 1
is made of level k of the towers of its p-quotient components.  With
n = sum a_k p^k in base p, the degree is prime to p exactly when level k
has total size a_k for every k.  Each a_k < p, so every partition of size
at most a_k is a p-core and any spread of a_k boxes over the p^k places
of level k is a tower level.  Only the principal block's share is
generated, from towers whose level 0 is the core (n mod p); the oracle
(:mod:`blockwitness.oracle`) takes its sets from there.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import Sequence

from .factored import InternalInvariantError
from .partitions import (
    LengthTooSmall,
    Partition,
    from_core_and_quotients,
    partitions_of,
    runner_counts,
)


def principal_runner_counts(n: int, p: int, length: int) -> list[int]:
    """p-abacus runner counts of the principal core's beta-set of ``length``.

    The beta-set of the core (b), b = n mod p, is {0, .., length - 2} together
    with b + length - 1, so the counts follow without building the core.
    """
    b = n % p
    core_parts = 1 if b else 0
    if length < core_parts:
        raise LengthTooSmall(f"beta-set length {length} < {core_parts} parts")
    # beads 0 .. length - 2 fill every runner to `level`, the first `extra` once more
    level, extra = divmod(length - 1, p)
    counts = [level + 1] * extra + [level] * (p - extra)
    counts[(b + length - 1) % p] += 1
    return counts


def principal_block_contains(lam: Partition, p: int) -> bool:
    """Is the p-core of ``lam`` the principal one?

    Beta-sets of equal length have the same p-core exactly when their
    runner counts agree, so no core is built.
    """
    # the cached size and length spare the re-summing of runs_in_principal_block
    return runner_counts(lam.runs, p) == principal_runner_counts(lam.size, p, len(lam.parts))


def runs_in_principal_block(runs: Sequence[tuple[int, int]], p: int) -> bool:
    """:func:`principal_block_contains` for the partition with descending runs ``runs``."""
    size = sum(value * mult for value, mult in runs)
    return runner_counts(runs, p) == principal_runner_counts(size, p, sum(m for _, m in runs))


def principal_p_prime_partitions(n: int, p: int) -> list[Partition]:
    """The partitions of n in the principal p-block whose degree p does not divide.

    Level 0 of the tower is the principal core (a_0), a_0 = n mod p, and
    every level above it comes from :func:`tower_quotients`; no other core
    is visited.  The count is certified: with m(c, a) the number of
    c-tuples of partitions of total size a, the block has
    prod_{k >= 1} m(p^k, a_k) such members, all distinct; anything else is
    a program fault.
    """
    if p < 2:
        raise ValueError(f"p-core towers require p >= 2, got {p}")
    digits = []
    rest = n
    while rest:
        rest, a = divmod(rest, p)
        digits.append(a)
    digits = digits or [0]
    core = Partition((digits[0],) if digits[0] else ())
    members = from_core_and_quotients(core, tower_quotients(p, tuple(digits[1:]), {}), p)
    expected = prod(_multipartition_count(p**k, a) for k, a in enumerate(digits[1:], start=1))
    distinct = len({lam.parts for lam in members})
    if len(members) != expected or distinct != expected:
        raise InternalInvariantError(
            f"p-core towers for n={n}, p={p}: {len(members)} principal members,"
            f" {distinct} distinct, expected {expected}"
        )
    return members


def tower_quotients(
    p: int, digits: tuple[int, ...], towers: dict[tuple[int, ...], list[Partition]]
) -> list[tuple[Partition, ...]]:
    """Every p-quotient whose components' towers have level sizes adding up to ``digits``.

    Level k + 1 of a tower is the union of level k of the quotient
    components' towers, so this spreads each ``digits[k]`` over the p
    components.  ``digits = (w,)`` with w < p gives the quotients of a
    block of weight w.  ``towers`` holds the sub-towers already built by
    the caller's generation, keyed by their level sizes.
    """
    # spreads[left]: the components placed so far that leave `left` to place
    spreads: dict[tuple[int, ...], list[tuple[Partition, ...]]] = {digits: [()]}
    for _ in range(p - 1):
        placed: dict[tuple[int, ...], list[tuple[Partition, ...]]] = {}
        for left, heads in spreads.items():
            for sizes in product(*(range(a + 1) for a in left)):
                members = _tower(p, sizes, towers)
                rest = tuple(a - b for a, b in zip(left, sizes))
                placed.setdefault(rest, []).extend(
                    head + (mu,) for head in heads for mu in members
                )
        spreads = placed
    quotients = []
    for left, heads in spreads.items():
        last = _tower(p, left, towers)
        quotients.extend(head + (mu,) for head in heads for mu in last)
    return quotients


def _tower(
    p: int, sizes: tuple[int, ...], towers: dict[tuple[int, ...], list[Partition]]
) -> list[Partition]:
    # every partition whose p-core tower has level sizes `sizes`, built once per call
    while sizes and not sizes[-1]:
        sizes = sizes[:-1]
    if not sizes:
        return [Partition()]
    if sizes not in towers:
        quotients = tower_quotients(p, sizes[1:], towers)
        towers[sizes] = [
            lam
            for core in partitions_of(sizes[0])
            for lam in from_core_and_quotients(core, quotients, p)
        ]
    return towers[sizes]


def _multipartition_count(c: int, a: int) -> int:
    # c-tuples of partitions of total size a: the x^a coefficient of
    # prod_{j >= 1} (1 - x^j)^(-c), one factor 1 / (1 - x^j) at a time
    coeffs = [1] + [0] * a
    for j in range(1, a + 1):
        for _ in range(c):
            for i in range(j, a + 1):
                coeffs[i] += coeffs[i - j]
    return coeffs[a]
