"""Normalized numeric parameters for a triple (n, p, q) of degree and primes.

For distinct primes p, q <= n the record fixes the orientation q < p and
carries every derived quantity the candidate construction needs:

    n = m*p + b      with 0 <= b < p
    m*p = w*q + r    with 0 <= r < q

together with the nonzero digits of m*p in base q and in base p.  Both digit
lists are stored low position first as (digit, position) pairs; the lowest
entries drive the case split downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

from .factored import is_prime


class NotPrime(ValueError):
    """A parameter that must be prime is not."""


class PrimeExceedsN(ValueError):
    """A prime larger than n was supplied; it does not divide n!."""


def _nonzero_digits(x: int, base: int) -> tuple[tuple[int, int], ...]:
    digits = []
    position = 0
    while x > 0:
        x, d = divmod(x, base)
        if d:
            digits.append((d, position))
        position += 1
    return tuple(digits)


@dataclass(frozen=True)
class CaseParameters:
    """Derived quantities for one (n, p, q) with the orientation q < p."""

    n: int
    p: int
    q: int
    m: int
    b: int
    w: int
    r: int
    q_adic: tuple[tuple[int, int], ...]
    p_adic: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not (self.q < self.p):
            raise ValueError("parameters must be oriented with q < p")
        if not (0 <= self.b < self.p and self.n == self.m * self.p + self.b):
            raise ValueError("n = m*p + b decomposition is inconsistent")
        mp = self.m * self.p
        if not (0 <= self.r < self.q and mp == self.w * self.q + self.r):
            raise ValueError("m*p = w*q + r decomposition is inconsistent")
        for digits, base in ((self.q_adic, self.q), (self.p_adic, self.p)):
            value = 0
            previous = -1
            for d, t in digits:
                if not (0 < d < base) or t <= previous:
                    raise ValueError("digit expansion malformed")
                value += d * base**t
                previous = t
            if value != mp:
                raise ValueError("digit expansion does not reconstruct m*p")
        if self.m >= 1 and self.p_adic[0][1] < 1:
            raise ValueError("m*p must be divisible by p")

    @property
    def mp(self) -> int:
        return self.m * self.p

    @property
    def a1(self) -> int:
        return self.q_adic[0][0]

    @property
    def t1(self) -> int:
        return self.q_adic[0][1]

    @property
    def t2(self) -> int | None:
        return self.q_adic[1][1] if len(self.q_adic) > 1 else None

    @property
    def b1(self) -> int:
        return self.p_adic[0][0]

    @property
    def s1(self) -> int:
        return self.p_adic[0][1]

    @property
    def deferral(self) -> str | None:
        """The regime that takes the triple out of the construction, if any.

        ``"small-n"`` for n < 9 (covered by table data) and
        ``"abelian-sylow"`` for n // p <= 1 (abelian Sylow p-subgroup);
        ``None`` inside the construction's regime.
        """
        if self.n < 9:
            return "small-n"
        if self.m <= 1:
            return "abelian-sylow"
        return None

    @property
    def low_q_part(self) -> int:
        """Lowest base-q summand a1 * q**t1 of m*p."""
        return self.a1 * self.q**self.t1

    @property
    def low_p_part(self) -> int:
        """Lowest base-p summand b1 * p**s1 of m*p."""
        return self.b1 * self.p**self.s1


def check_primes(n: int, primes: tuple[int, ...]) -> None:
    """Validate distinct primes of n!, one fault class at a time.

    Checks, in this order: n >= 1 (``ValueError``), every value prime
    (:class:`NotPrime`), the values distinct (``ValueError``), every prime
    at most n (:class:`PrimeExceedsN`).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    for p in primes:
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
    if len(set(primes)) != len(primes):
        raise ValueError(f"primes must be distinct, got {primes}")
    for p in primes:
        if p > n:
            raise PrimeExceedsN(f"prime {p} exceeds n = {n}")


def derive_case_parameters(n: int, p: int, q: int) -> CaseParameters:
    """Validate (n, p, q), normalize to q < p, and derive the full record."""
    check_primes(n, (p, q))
    if q > p:
        p, q = q, p
    m, b = divmod(n, p)
    mp = m * p
    w, r = divmod(mp, q)
    return CaseParameters(
        n=n,
        p=p,
        q=q,
        m=m,
        b=b,
        w=w,
        r=r,
        q_adic=_nonzero_digits(mp, q),
        p_adic=_nonzero_digits(mp, p),
    )
