"""Symmetric-group character degrees over rectangle blocks of hooks, two ways.

The degree attached to a partition of n is n! divided by the product of all
hook lengths of its diagram.  The hooks are never listed cell by cell:
:func:`_rectangles` splits the diagram into rectangles, each given by its
corner hook c, R rows and C columns, and states their geometry.  That one
decomposition is evaluated two ways, and each caller takes the one it
needs.  :func:`exact_degree` multiplies the rectangles out and divides n!
by the product: one int, for a table (n at most 60).  :func:`packed_degree`
gives the exponents of every prime, which the verifier and the ``degrees``
command need at n up to 10**7, where n! has tens of millions of digits.
For those, a rectangle's hook product is

    sf(c+R+C-2) * sf(c-2) / (sf(c+R-2) * sf(c+C-2)),

where sf(x) = 1! * 2! * ... * x! is the superfactorial (sf(x) = 1 for
x <= 0), and n! = sf(n) / sf(n-1).

Proof.  The rectangle's count[h] of hooks of length h has second difference
diff = +1 at c and c+R+C, -1 at c+R and c+C, so
count[h] = sum_{j <= h} diff[j] (h - j + 1).  As diff has zero sum and zero
first moment, the same sum over all j is 0, so
count[h] = sum_{j >= h+2} diff[j] (j - 1 - h), and summing nu_p(h) count[h]
over h >= 1 gives sum_j diff[j] sum_{h <= j-2} (j - 1 - h) nu_p(h)
= sum_j diff[j] sum_{i <= j-2} nu_p(i!) = sum_j diff[j] nu_p(sf(j - 2)).  []

So every exponent of a degree is a signed sum of Q_p(m) = nu_p(sf(m)) at
four points per rectangle and two for n!.  Q_p(m) = sum_{k >= 1}
G_{p^k}(m + 1), where G_e(N) = sum_{x < N} floor(x / e) = e t(t-1)/2 + t u
for N = t e + u, since nu_p(i!) = sum_k floor(i / p^k).

A factored degree is one packed sum, :func:`packed_degree`, whose 64-bit field i
holds the exponent of the i-th prime <= n.  Each true exponent lies in
[0, nu_p(n!)], and a negative one of size below 2^62 (as every sum of Q
here is while m is below about 3 * 10**9) borrows into bit 63 of its field,
so the sum is checked in O(1) big-int operations: it must be below
2^(64 pi(n)) (a negative sum shifts to -1) and clear of SIGNS(n), the mask
of bit 63 of every field.  Only a sum that fails is decoded with signs, to
name the fault.  A verifier reads the exponents it needs from the sum
with :func:`packed_exponent`, the one reader of a field, and decodes it
(:func:`unpack_degree`) only for the candidate that becomes the witness;
:func:`degree` is the sum and that decode.
"""

from __future__ import annotations

import math
import sys
from array import array
from functools import lru_cache
from itertools import compress, starmap
from typing import Iterator, Sequence

from .factored import FactoredNatural, NotDivisible, prime_index, primes_up_to
from .partitions import runs_literal

# At most 1024 entries, the one for m holding 8 * pi(m) bytes of fields in
# an int of about 8.5 * pi(m) + 28 bytes: under 1.5 MB while every m <= 1000
# (pi = 168), and 1024 * (8.5 * pi(M) + 28) bytes for a largest argument M,
# e.g. 84 MB at M = 10**5.  A scan up to n = 1000 reads m = -1 .. 1000 only.
@lru_cache(maxsize=1024)
def _superfactorial_valuations(m: int) -> int:
    """Q_p(m) = nu_p(1! * 2! * ... * m!) for the primes p <= m, 64 bits each.

    Field i holds Q_p(m) for the i-th prime p (from 0) of :func:`primes_up_to`.
    The fields are read into the int in one pass, since shifting each into
    a growing int is quadratic.  They are exact while Q_2(m), about m^2 / 2,
    is below 2^63 (m below about 4 * 10**9).
    """
    count = m + 1
    fields = array("q")
    for p in primes_up_to(m):
        total = 0
        power = p
        while power <= m:
            t, u = divmod(count, power)
            total += power * t * (t - 1) // 2 + t * u
            power *= p
        fields.append(total)
    return int.from_bytes(fields, sys.byteorder)


# one field of a packed degree
_FIELD = (1 << 64) - 1


@lru_cache(maxsize=1024)
def _sign_bits(n: int) -> tuple[int, int]:
    # (64 pi(n), SIGNS(n)): the width of the fields of a degree of S_n, and
    # the mask with bit 63 of each field set
    width = 64 * len(primes_up_to(n))
    return width, ((1 << width) - 1) // _FIELD << 63


def _rectangles(runs: Sequence[tuple[int, int]]) -> Iterator[tuple[int, int, int]]:
    """(c, R, C) for each rectangle of hooks of the partition with runs ``runs``.

    ``runs`` lists the distinct parts v_1 > ... > v_d with multiplicities
    m_1 .. m_d.  Row group a (the m_a rows of length v_a, above E_a rows)
    meets column group b >= a (the v_b - v_{b+1} columns above E_b rows,
    with v_{d+1} = 0) in a rectangle of R = m_a rows and C = v_b - v_{b+1}
    columns, whose bottom right cell has the hook
    c = v_a + E_a - v_b - E_b + 1 and whose cell i rows up and j columns
    left of it has the hook c + i + j.  The runs are walked once from the
    shortest, so every column group a row group meets has been seen.
    """
    columns = []  # (v_b + E_b, v_b - v_{b+1}) of each column group seen
    below = last = 0
    for value, rows in reversed(runs):
        top = value + below
        columns.append((top, value - last))
        for key, cols in columns:
            yield top - key + 1, rows, cols
        below += rows
        last = value


def packed_degree(runs: Sequence[tuple[int, int]], n: int) -> int:
    """Exponents of n! / (product of hooks) for the partition of n with runs ``runs``.

    The module's identity turns the degree into four signed terms Q(m) per
    rectangle of :func:`_rectangles` and two for n!, summed as packed ints.
    The sum is returned checked: a negative exponent, or a sum that does
    not fit pi(n) fields, is a program fault and raises
    :class:`NotDivisible` naming the lowest prime that went negative.
    """
    sf = _superfactorial_valuations
    packed = sf(n) - sf(n - 1)
    for corner, rows, cols in _rectangles(runs):
        low = corner - 2
        packed += sf(low + rows) + sf(low + cols) - sf(low) - sf(low + rows + cols)
    width, signs = _sign_bits(n)
    if packed >> width or packed & signs:
        # the signed decode: the sum does not fit pi(n) signed fields, or one
        # of them is negative (bit 63 set), so this raises
        primes = primes_up_to(n)
        try:
            fields = array("q", packed.to_bytes(8 * len(primes), sys.byteorder, signed=True))
        except OverflowError:
            raise NotDivisible(
                f"an exponent of {n}! over the hook product of {runs_literal(runs)}"
                " is out of range"
            ) from None
        p = next(p for p, e in zip(primes, fields) if e < 0)
        raise NotDivisible(
            f"prime {p} divides the hook product of {runs_literal(runs)}"
            f" more often than {n}!"
        )
    return packed


def packed_exponent(packed: int, p: int) -> int:
    """The exponent of the prime ``p`` in a checked sum of :func:`packed_degree`."""
    return (packed >> 64 * prime_index(p)) & _FIELD


def unpack_degree(packed: int, n: int) -> FactoredNatural:
    """The checked sum :func:`packed_degree` returned for n, in factored form."""
    primes = primes_up_to(n)
    fields = array("q", packed.to_bytes(8 * len(primes), sys.byteorder))
    return FactoredNatural(tuple(compress(zip(primes, fields), fields)))


def degree(runs: Sequence[tuple[int, int]]) -> FactoredNatural:
    """Character degree n! / (product of hooks) of the partition with runs ``runs``."""
    n = sum(value * mult for value, mult in runs)
    return unpack_degree(packed_degree(runs, n), n)


# (corner, R, C): the tables that call this stop at n = 60, whose partitions
# hold 2,511 distinct rectangles, and each product is below 60! < 2^273, so
# a full cache holds under 1 MB.
@lru_cache(maxsize=4096)
def _hook_product(corner: int, rows: int, cols: int) -> int:
    short, long = (rows, cols) if rows <= cols else (cols, rows)
    product = 1
    for i in range(corner, corner + short):
        product *= math.perm(i + long - 1, long)
    return product


def exact_degree(runs: Sequence[tuple[int, int]], n: int) -> int:
    """n! / (product of hooks) for the partition of n with runs ``runs``, as an int.

    Each rectangle of :func:`_rectangles` is multiplied out: its row i from
    the bottom has the hooks c + i .. c + i + C - 1, so the row's product is
    perm(c + i + C - 1, C), and a column's likewise; each rectangle's
    product is taken along its shorter side and cached, since the shapes
    of one n share most rectangles.  A nonzero remainder (``runs`` not a
    partition of n) raises :class:`NotDivisible`.
    """
    product = math.prod(starmap(_hook_product, _rectangles(runs)))
    quotient, remainder = divmod(math.factorial(n), product)
    if remainder:
        raise NotDivisible(f"the hook product of {runs_literal(runs)} does not divide {n}!")
    return quotient
