"""Normalized numeric parameters for a triple (n, p, q) of degree and primes.

For distinct primes q < p <= n the record holds (n, p, q) and derives every
quantity the candidate construction reads:

    n = m*p + b      with 0 <= b < p
    m*p = w*q + r    with 0 <= r < q

and, writing m*p in base q and in base p with its nonzero summands lowest
first,

    m*p = a1*q^t + ...    with 0 < a1 < q
    m*p = b1*p^s + ...    with 0 < b1 < p and s >= 1

the lowest summands A1 = a1*q^t (``low_q_part``) and B1 = b1*p^s
(``low_p_part``).  The case split downstream reads only these.

:class:`CaseParameters` is a named tuple of (n, p, q, m, b, w, r):
immutable, hashable, positional, and equal to the plain tuple of its
fields.  It is built from (n, p, q) alone, checked and derived in one pass.
"""

from __future__ import annotations

from collections import namedtuple

from .factored import is_prime


def _lowest_summand(x: int, base: int) -> int:
    # d * base**t for the lowest nonzero base-`base` digit d of x > 0
    t = 0
    while x % base == 0:
        x, t = x // base, t + 1
    return x % base * base**t


class CaseParameters(namedtuple("CaseParameters", ("n", "p", "q", "m", "b", "w", "r"))):
    """Derived quantities for one (n, p, q) with 2 <= q < p <= n."""

    __slots__ = ()

    def __new__(cls, n: int, p: int, q: int) -> CaseParameters:
        if not 2 <= q < p <= n:
            raise ValueError(f"parameters must satisfy 2 <= q < p <= n, got n={n} p={p} q={q}")
        m, b = divmod(n, p)
        w, r = divmod(m * p, q)
        return tuple.__new__(cls, (n, p, q, m, b, w, r))

    def __getnewargs__(self) -> tuple[int, int, int]:
        return self[:3]

    @property
    def mp(self) -> int:
        return self.m * self.p

    @property
    def low_q_part(self) -> int:
        """Lowest base-q summand A1 = a1 * q**t of m*p."""
        return _lowest_summand(self.mp, self.q)

    @property
    def low_p_part(self) -> int:
        """Lowest base-p summand B1 = b1 * p**s of m*p."""
        return _lowest_summand(self.mp, self.p)

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


def check_primes(n: int, primes: tuple[int, ...]) -> None:
    """Validate distinct primes of n!, raising ``ValueError`` on the first fault.

    Checks, in this order: n >= 1, every value prime, the values distinct,
    every prime at most n (a larger prime does not divide n!).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    if len(set(primes)) != len(primes):
        raise ValueError(f"primes must be distinct, got {primes}")
    for p in primes:
        if p > n:
            raise ValueError(f"prime {p} exceeds n = {n}")


def derive_case_parameters(n: int, p: int, q: int) -> CaseParameters:
    """Validate (n, p, q) and build the record oriented with q < p."""
    check_primes(n, (p, q))
    return CaseParameters(n, max(p, q), min(p, q))
