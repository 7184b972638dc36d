"""Symmetric-group character degrees from hook-length counts, in factored form.

The degree attached to a partition of n is n! divided by the product of all
hook lengths of its diagram.  The hooks are never listed cell by cell: the
diagram splits into rectangles, one per pair of a row group (rows of equal
length) and a column group (columns of equal length) that meet, and inside
a rectangle the hook lengths run down by one per step right or down.  So
each rectangle adds a trapezoid to the count of hooks of each length, and
the exponent of p in the hook product is the number of hooks divisible by
p, plus the number divisible by p^2, and so on.  That exponent is taken
from the exponent of p in n!; a negative difference here is an internal
bug, never a data condition.
"""

from __future__ import annotations

from itertools import accumulate
from operator import mul
from typing import Sequence

from .factored import FactoredNatural, NotDivisible, factorial_factored


def degree(runs: Sequence[tuple[int, int]]) -> FactoredNatural:
    """Character degree n! / (product of hooks) of the partition with runs ``runs``.

    ``runs`` lists the distinct parts v_1 > ... > v_d with their
    multiplicities m_1 .. m_d; write M_a = m_1 + ... + m_a.  Row group a
    (the m_a rows of length v_a) meets column group b >= a (the
    v_b - v_{b+1} columns of length M_b, with v_{d+1} = 0) in a rectangle
    whose bottom-right hook is v_a - v_b + M_b - M_a + 1, and the hook at s
    rows up and t columns left of that corner is larger by s + t.  The
    number of hooks of each length in one rectangle is therefore a
    trapezoid, four +-1 entries in a second difference array over hook
    lengths; two running sums give ``count[h]``, the number of hooks of
    length h.  The exponent of each prime p <= n is then
    nu_p(n!) - sum_{k >= 1} #{hooks divisible by p^k}, and the primes
    whose exponent drops to 0 are left out.
    """
    values = [v for v, _ in runs]
    heights = [m for _, m in runs]
    n = sum(map(mul, values, heights))
    depths = list(accumulate(heights))
    widths = [v - w for v, w in zip(values, values[1:] + [0])]
    diff = [0] * (n + 3)
    for a, (v_a, rows, depth_a) in enumerate(zip(values, heights, depths)):
        for v_b, cols, depth_b in zip(values[a:], widths[a:], depths[a:]):
            corner = v_a - v_b + depth_b - depth_a + 1
            diff[corner] += 1
            diff[corner + rows] -= 1
            diff[corner + cols] -= 1
            diff[corner + rows + cols] += 1
    count = list(accumulate(accumulate(diff)))
    factors = []
    for p, e in factorial_factored(n).factors:
        power = p
        while power <= n:
            e -= sum(count[power::power])
            power *= p
        if e < 0:
            literal = ",".join(str(v) for v, m in runs for _ in range(m))
            raise NotDivisible(
                f"prime {p} divides the hook product of [{literal}] more"
                f" often than {n}!"
            )
        if e:
            factors.append((p, e))
    return FactoredNatural(tuple(factors))
