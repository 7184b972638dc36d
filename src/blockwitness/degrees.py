"""Symmetric-group character degrees via hook lengths, in factored form.

The degree attached to a partition of n is n! divided by the product of all
hook lengths of its diagram.  The quotient is taken exactly in factored
arithmetic and must come out integral; a failed division here is an internal
bug, never a data condition.  The exponent of a single prime in a degree
is read from abacus weights instead, without forming the hook product
(:func:`degree_valuation`).
"""

from __future__ import annotations

from .factored import (
    FactoredNatural,
    factor,
    factorial_factored,
    factorial_valuation,
    product,
)
from .partitions import Partition


def degree(lam: Partition) -> FactoredNatural:
    """Character degree of the partition: |lam|! / (product of hooks)."""
    hooks = lam.hook_lengths()
    return factorial_factored(lam.size).div(product(factor(h) for h in hooks))


def degree_valuation(lam: Partition, p: int) -> int:
    """Exponent of p in the degree, from abacus weights instead of hooks.

    The number of hooks with length divisible by ``e`` is the ``e``-weight
    w_e of the partition, so the exponent of p in the hook product is the
    sum of w_{p^k} over k >= 1 and

        nu_p(degree) = nu_p(|lam|!) - sum_{k >= 1} w_{p^k}(lam).
    """
    return valuation_from_weight(lam, p, lam.abacus(p)[1])


def valuation_from_weight(lam: Partition, p: int, p_weight: int) -> int:
    """:func:`degree_valuation` given the p-weight from an abacus pass already made.

    Adds one abacus pass per higher power of p, up to the largest hook
    length; no power above it divides any hook.
    """
    if p < 2:
        raise ValueError(f"valuation requires p >= 2, got {p}")
    total = factorial_valuation(lam.size, p) - p_weight
    largest_hook = lam.parts[0] + len(lam.parts) - 1 if lam.parts else 0
    e = p * p
    while e <= largest_hook:
        total -= lam.abacus(e)[1]
        e *= p
    return total
