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

from .partitions import LengthTooSmall, Partition


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
    return lam.abacus(p)[0] == principal_runner_counts(lam.size, p, len(lam.parts))
