"""Symmetric-group character degrees via hook lengths, in factored form.

The degree attached to a partition of n is n! divided by the product of all
hook lengths of its diagram.  The quotient is taken exactly in factored
arithmetic and must come out integral; a failed division here is an internal
bug, never a data condition.  The exponent of a single prime in a degree
is read from abacus weights instead, without forming the hook product
(:func:`degree_valuation`).  The module also computes the six recurring
degree factors Y, Y', Z, Z', X, X' attached to a parameter record, used by
the candidate construction's bookkeeping and its invariant checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .factored import (
    FactoredNatural,
    factor,
    factorial_factored,
    factorial_valuation,
    product,
)
from .parameters import CaseParameters
from .partitions import Partition


class UndefinedQuantity(ValueError):
    """A degree quantity was requested outside its domain of definition."""


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
    total = factorial_valuation(lam.size, p) - p_weight
    largest_hook = lam.parts[0] + len(lam.parts) - 1 if lam.parts else 0
    e = p * p
    while e <= largest_hook:
        total -= lam.abacus(e)[1]
        e *= p
    return total


@dataclass(frozen=True)
class DegreeFacts:
    """A degree together with its exponents at a designated prime pair."""

    degree: FactoredNatural
    prime_pair: tuple[int, int]
    valuation_p: int
    valuation_q: int


def degree_facts(lam: Partition, p: int, q: int) -> DegreeFacts:
    deg = degree(lam)
    return DegreeFacts(deg, (p, q), deg.valuation(p), deg.valuation(q))


def _rising(start: int, count: int) -> FactoredNatural:
    # (start+1)(start+2)...(start+count)
    return product(factor(start + i) for i in range(1, count + 1))


def _falling(start: int, count: int) -> FactoredNatural:
    # (start-1)(start-2)...(start-count); requires start > count
    return product(factor(start - i) for i in range(1, count + 1))


class CaseQuantities:
    """The six recurring degree factors of a parameter record.

    With mp = m*p, b, r as in :class:`CaseParameters`, A1 the lowest base-q
    summand of mp and B1 the lowest base-p summand:

        y  = (mp+1)...(mp+b) / b!
        y' = (mp+1)...(mp+b-1) / (b-1)!     defined only for b >= 1
        z  = (mp+1)...(mp+r) / r!
        z' = (mp-1)...(mp-r) / r!
        x  = (mp-1)...(mp-A1) / A1!
        x' = (mp-1)...(mp-B1) / B1!         defined only for mp != B1

    Every defined quantity is computed eagerly and is exactly integral by
    construction; a non-integral quotient raises and means a bug.
    """

    def __init__(self, params: CaseParameters) -> None:
        self.params = params
        mp, b, r = params.mp, params.b, params.r
        self.y = _rising(mp, b).div(factorial_factored(b))
        self._y_prime = (
            _rising(mp, b - 1).div(factorial_factored(b - 1)) if b >= 1 else None
        )
        self.z = _rising(mp, r).div(factorial_factored(r))
        self.z_prime = _falling(mp, r).div(factorial_factored(r))
        a1q = params.low_q_part
        self.x = _falling(mp, a1q).div(factorial_factored(a1q))
        b1p = params.low_p_part
        self._x_prime = (
            _falling(mp, b1p).div(factorial_factored(b1p)) if mp != b1p else None
        )

    @property
    def y_prime(self) -> FactoredNatural:
        if self._y_prime is None:
            raise UndefinedQuantity("y' is undefined when b = 0")
        return self._y_prime

    @property
    def x_prime(self) -> FactoredNatural:
        if self._x_prime is None:
            raise UndefinedQuantity("x' is undefined when m*p equals its lowest base-p summand")
        return self._x_prime

    @property
    def x_prime_defined(self) -> bool:
        return self._x_prime is not None

    @property
    def y_prime_defined(self) -> bool:
        return self._y_prime is not None


def case_quantities(params: CaseParameters) -> CaseQuantities:
    """Compute and integrality-check the degree factors for the record."""
    return CaseQuantities(params)
