"""Exact arithmetic on positive integers kept in fully factored form.

Character degrees of symmetric groups outgrow machine words long before the
interesting range starts, and every question asked of them here is about
prime parts.  Values therefore live as maps prime -> exponent; conversion to
decimal happens only at output boundaries.  The one exact quotient taken
in this package is a degree, n! over the hook product
(:func:`blockwitness.degrees.degree`); it is asserted integral, and a
non-integral one means a transcription bug that must surface loudly as
:class:`NotDivisible`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt


class NotDivisible(ArithmeticError):
    """Exact division failed for some prime exponent."""


# The first 13 primes: trial divisors for small k, then Miller-Rabin bases.
# With these bases the test is exact below _MR_LIMIT (the least strong
# pseudoprime to all of them; Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(k: int) -> bool:
    """Exact primality test for k below 3,317,044,064,679,887,385,961,981.

    Trial division by the primes 2..41 settles every k below 43**2 and
    every k with a factor among them; the rest get deterministic
    Miller-Rabin with those primes as bases, which has no strong
    pseudoprime below the bound.  At or above the bound the answer would
    not be certain, so ``ValueError`` is raised instead.
    """
    if k < 2:
        return False
    for b in _MR_BASES:
        if k % b == 0:
            return k == b
        if b * b > k:
            return True
    if k >= _MR_LIMIT:
        raise ValueError(f"{k} is too large for an exact primality test")
    d = k - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, k)
        if x == 1 or x == k - 1:
            continue
        for _ in range(s - 1):
            x = x * x % k
            if x == k - 1:
                break
        else:
            return False
    return True


def primes_up_to(k: int) -> list[int]:
    """All primes <= k, by sieve."""
    if k < 2:
        return []
    sieve = bytearray([1]) * (k + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(k) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, flag in enumerate(sieve) if flag]


def parse_decimal(text: str) -> int:
    """Non-negative integer written with ASCII digits ``[0-9]+`` and nothing else.

    ``int`` also takes signs, underscores, surrounding whitespace and
    non-ASCII digits, so text from outside the program is read through here
    and anything else raises ``ValueError``.
    """
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected ASCII decimal digits, got {text!r}")
    return int(text)


def factorial_valuation(k: int, p: int) -> int:
    """Exponent of p in k!, by the floor-sum formula."""
    total = 0
    power = p
    while power <= k:
        total += k // power
        power *= p
    return total


@dataclass(frozen=True)
class FactoredNatural:
    """A positive integer as a sorted tuple of (prime, exponent) pairs.

    The integer 1 is the empty tuple.  Instances are immutable and compare
    equal exactly when their factor maps are equal.
    """

    factors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(map(tuple, self.factors)))
        previous = 1
        for p, e in self.factors:
            if type(p) is not int or type(e) is not int:
                raise TypeError(f"factors must be int pairs, got {(p, e)!r}")
            if p <= previous:
                raise ValueError(f"factor keys must be strictly increasing, got {p}")
            if e < 1:
                raise ValueError(f"exponent of {p} must be >= 1, got {e}")
            if not is_prime(p):
                raise ValueError(f"factor key {p} is not prime")
            previous = p

    def valuation(self, p: int) -> int:
        """Exponent of p, zero when p is absent."""
        for prime, e in self.factors:
            if prime == p:
                return e
            if prime > p:
                break
        return 0

    def to_int(self) -> int:
        value = 1
        for p, e in self.factors:
            value *= p**e
        return value

    def to_decimal(self) -> str:
        """Exact base-10 rendering of the represented integer."""
        return str(self.to_int())

    def factored_str(self) -> str:
        """Compact rendering such as '2^2*3'; '1' for the empty product."""
        if not self.factors:
            return "1"
        return "*".join(f"{p}^{e}" if e > 1 else f"{p}" for p, e in self.factors)


# Unused inside the package; kept, cached, because perfbench/tracing.py reads its cache_info.
@lru_cache(maxsize=1024)
def factor(k: int) -> FactoredNatural:
    """Factor a positive integer by trial division."""
    if k < 1:
        raise ValueError(f"cannot factor {k}; argument must be >= 1")
    pairs = []
    remaining = k
    d = 2
    while d * d <= remaining:
        if remaining % d == 0:
            e = 0
            while remaining % d == 0:
                remaining //= d
                e += 1
            pairs.append((d, e))
        d += 1 if d == 2 else 2
    if remaining > 1:
        pairs.append((remaining, 1))
    return _trusted(tuple(pairs))


@lru_cache(maxsize=None)
def factorial_factored(k: int) -> FactoredNatural:
    """Factorization of k!, one floor-sum per prime <= k."""
    if k < 0:
        raise ValueError(f"factorial of negative {k}")
    # every prime p <= k divides k!, so no exponent is zero
    return _trusted(tuple((p, factorial_valuation(k, p)) for p in primes_up_to(k)))


def _trusted(factors: tuple[tuple[int, int], ...]) -> FactoredNatural:
    # Fast path for results built here from factors already known canonical:
    # sorted prime keys with positive int exponents, so no key is re-tested.
    obj = object.__new__(FactoredNatural)
    object.__setattr__(obj, "factors", factors)
    return obj
