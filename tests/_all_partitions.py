"""The oracle's sets from every partition of n: the reference for the towers.

:func:`prime_view` enumerates the partitions of n, keeps those of p′-degree
by abacus-weight valuations, and tests the survivors for principal-block
membership.  It shares the library's enumeration, abacus and membership
test, so it is independent of the p-core-tower generation only; the fully
independent references are in ``_oracles.py``.
"""

from __future__ import annotations

from functools import lru_cache

from blockwitness.blocks import principal_block_contains
from blockwitness.factored import factorial_valuation
from blockwitness.partitions import Partition, partitions_of


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
    largest_hook = lam.parts[0] + len(lam.parts) - 1 if lam.parts else 0
    e = p
    while e <= largest_hook:
        total -= lam.abacus(e)[1]
        e *= p
    return total


@lru_cache(maxsize=1)
def _shapes(n: int) -> tuple[Partition, ...]:
    # the partitions of n, enumerated once for all primes
    return tuple(partitions_of(n))


def prime_view(n: int, p: int) -> tuple[frozenset[Partition], frozenset[Partition]]:
    """(Irr_p'(S_n), Irr_p'(B_0)) from all p(n) partitions of n."""
    p_prime = frozenset(lam for lam in _shapes(n) if degree_valuation(lam, p) == 0)
    return p_prime, frozenset(lam for lam in p_prime if principal_block_contains(lam, p))
