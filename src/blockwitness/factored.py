"""Exact arithmetic on positive integers kept in fully factored form.

Character degrees of symmetric groups outgrow machine words long before the
interesting range starts, and every question asked of them here is about
prime parts.  Values therefore live as maps prime -> exponent; conversion to
decimal happens only at output boundaries, through :func:`decimal_str`, the
one renderer of an integer that may exceed the interpreter's digit limit.
The one exact quotient taken in this package is a degree, n! over the hook
product (:func:`blockwitness.degrees.degree`, or as a plain int for a table,
:func:`blockwitness.degrees.exact_degree`); it is asserted integral, and a
non-integral one means a transcription bug that must surface loudly as
:class:`NotDivisible`.  That error, like every fault of the program itself
rather than of its input, derives from :class:`InternalInvariantError`.

No value here comes from outside the program: each is built from primes
found in this package, in increasing order with exponents >= 1, so the
constructor takes its pairs as given and re-tests none.  A
:class:`FactoredNatural` is a named tuple: immutable, hashable, positional,
and equal to the plain tuple of its one field.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from math import isqrt, prod
from typing import NamedTuple


class InternalInvariantError(RuntimeError):
    """A relation that must hold for every valid input failed: a program fault."""


class NotDivisible(InternalInvariantError):
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


# the primes up to the last sieve bound, in order; primes_up_to extends it
_PRIMES = [2]


def primes_up_to(k: int) -> list[int]:
    """All primes <= k, in increasing order, as a new list.

    Each is a slice of one table.  When k reaches the table's last prime
    it is sieved again up to 2k, which by Bertrand's postulate holds a
    prime above k.
    """
    if k >= _PRIMES[-1]:
        sieve = bytearray([1]) * (2 * k + 1)
        sieve[0] = sieve[1] = 0
        for p in range(2, isqrt(2 * k) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
        _PRIMES[:] = [i for i, flag in enumerate(sieve) if flag]
    return _PRIMES[: bisect_right(_PRIMES, k)]


def prime_index(p: int) -> int:
    """Index of the prime ``p`` in every list :func:`primes_up_to` returns."""
    if p > _PRIMES[-1]:
        primes_up_to(p)
    return bisect_left(_PRIMES, p)


# longest decimal text read from outside: CPython's default int/str limit, and
# no table or CLI integer needs more
DECIMAL_MAX_DIGITS = 4300


class DigitLimitExceeded(ValueError):
    """Decimal text longer than the package's bound, :data:`DECIMAL_MAX_DIGITS`."""


def parse_decimal(text: str) -> int:
    """Non-negative integer written with ASCII digits ``[0-9]+`` and nothing else.

    ``int`` also takes signs, underscores, surrounding whitespace and
    non-ASCII digits, so text from outside the program is read through here
    and anything else raises ``ValueError``.  Text of more than
    :data:`DECIMAL_MAX_DIGITS` digits raises :class:`DigitLimitExceeded`
    before any conversion work is done, whatever the interpreter's limit;
    shorter text converts under any limit a caller has set.
    """
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected ASCII decimal digits, got {text!r}")
    if len(text) > DECIMAL_MAX_DIGITS:
        raise DigitLimitExceeded(
            f"integer of {len(text)} digits exceeds the {DECIMAL_MAX_DIGITS}-digit limit"
        )
    try:
        return int(text)
    except ValueError:
        # only the interpreter's limit, lowered below ours, refuses checked
        # digits; the Decimal conversion is exact and bound by no such limit
        from decimal import Decimal

        return int(Decimal(text))


def decimal_str(value: int) -> str:
    """Exact base-10 rendering of a natural number, whatever the interpreter's digit limit.

    ``str`` renders it; ``Decimal`` only where that limit refuses ``str``.
    """
    try:
        return str(value)
    except ValueError:  # importing decimal adds about 2 ms and 0.4 MB to a process
        from decimal import Decimal

        return str(Decimal(value))


class FactoredNatural(NamedTuple):
    """A positive integer as a sorted tuple of (prime, exponent) pairs.

    The integer 1 is the empty tuple.  Instances are immutable and compare
    equal exactly when their factor maps are equal.
    """

    factors: tuple[tuple[int, int], ...] = ()

    def valuation(self, p: int) -> int:
        """Exponent of p, zero when p is absent."""
        for prime, e in self.factors:
            if prime == p:
                return e
            if prime > p:
                break
        return 0

    def to_int(self) -> int:
        values = [p**e for p, e in self.factors]
        while len(values) > 1:  # pairwise, so each product joins operands of like size
            values = [prod(values[i : i + 2]) for i in range(0, len(values), 2)]
        return prod(values)

    def to_decimal(self) -> str:
        """Exact base-10 rendering of the represented integer (:func:`decimal_str`)."""
        return decimal_str(self.to_int())

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
    return FactoredNatural(tuple(pairs))

