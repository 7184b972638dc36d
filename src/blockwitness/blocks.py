"""Block labels and principal-block membership for symmetric groups.

Two characters lie in the same p-block exactly when their partitions share a
p-core, and the principal p-block of the symmetric group on n letters
collects the partitions whose p-core is the one-row partition (n mod p).
Membership is decided by comparing p-abacus runner counts with those of
that core, without building the core.
The prime-to-p subsets of those blocks are what the conjecture checks
compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .degrees import degree_valuation
from .partitions import EMPTY, Partition, partitions_of


@dataclass(frozen=True)
class BlockLabel:
    """A block of the symmetric group, labelled by prime and core."""

    core: Partition
    prime: int

    def __post_init__(self) -> None:
        if any(h % self.prime == 0 for h in self.core.hook_lengths()):
            raise ValueError(
                f"{self.core.parts} has a hook divisible by {self.prime}; not a core"
            )


def block_label(lam: Partition, p: int) -> BlockLabel:
    return BlockLabel(core=lam.p_core(p), prime=p)


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


@lru_cache(maxsize=None)
def principal_block_members(n: int, p: int) -> frozenset[Partition]:
    """All partitions of n in the principal p-block."""
    return frozenset(lam for lam in partitions_of(n) if principal_block_contains(lam, p))


@lru_cache(maxsize=None)
def irr_p_prime_principal(n: int, p: int) -> frozenset[Partition]:
    """Principal-block members whose degree is coprime to p."""
    return frozenset(
        lam
        for lam in principal_block_members(n, p)
        if degree_valuation(lam, p) == 0
    )
