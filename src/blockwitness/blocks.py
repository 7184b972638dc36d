"""Principal-block membership for symmetric groups.

Two characters lie in the same p-block exactly when their partitions share a
p-core, and the principal p-block of the symmetric group on n letters
collects the partitions whose p-core is the one-row partition (n mod p).
Membership is decided by comparing p-abacus runner counts with those of
that core, without building the core.
The prime-to-p subsets of those blocks, which the conjecture check
compares, are taken in :mod:`blockwitness.oracle`.
"""

from __future__ import annotations

from .partitions import EMPTY, Partition


def principal_core(n: int, p: int) -> Partition:
    """Core labelling the principal p-block: the one-row partition (n mod p)."""
    b = n % p
    return Partition((b,)) if b else EMPTY


def principal_runner_counts(n: int, p: int, length: int) -> list[int]:
    """p-abacus runner counts of the principal core's beta-set of ``length``."""
    return principal_core(n, p).abacus(p, length=length)[0]


def principal_block_contains(lam: Partition, p: int) -> bool:
    """Is the p-core of ``lam`` the principal one?

    Beta-sets of equal length have the same p-core exactly when their
    runner counts agree, so no core is built.
    """
    return lam.abacus(p)[0] == principal_runner_counts(lam.size, p, len(lam.parts))
