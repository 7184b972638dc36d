"""Membership in the principal blocks of symmetric groups.

Two characters lie in the same p-block exactly when their partitions share a
p-core, and the principal p-block of the symmetric group on n letters
collects the partitions whose p-core is the one-row partition (n mod p).
Membership is decided by comparing p-abacus runner steps, the first
differences of the runner counts, with those of that core, without building
the core.  One kernel, :func:`blockwitness.partitions.runner_steps`, takes
the steps from runs of equal parts in O(1) work per run, never per part:
the shape's own runs, and the core's at the shape's length L, the core (b)
as the runs ((b, 1), (0, L - 1)), whose zero parts pad its beta-set to L
beads.

The conjugate's block is read off the same steps.  Conjugation reflects
the abacus: a beta-set X of length L inside 0 .. N has the N - y, for the
y in 0 .. N outside X, for a beta-set of the conjugate (James and Kerber,
*The Representation Theory of the Symmetric Group*, 1981, section 2.7).
This reflection maps a bead moved from x to a free x - p onto a bead moved
from N - x + p to a free N - x, so the p-hooks of a shape and of its
conjugate correspond, and the conjugate's p-core is the conjugate of the
shape's.  So the conjugate of ``lam`` lies in the principal block exactly
when the p-core of ``lam`` is (1^b), the runs ((1, b), (0, L - b)), which a
shape of fewer than b parts cannot have: removing hooks never adds a part.
At most one runner-step pass per prime decides both rows of a table, on
the shape's runs alone, so the table path builds no ``Partition``.

Most shapes need no pass at most primes.  The multiset of cell contents
(column - row) mod p is the same for every member of a p-block (James and
Kerber, 2.7 again: a p-hook's cells have p consecutive contents, one of
each residue, and the members share a core and a weight).  So the content
sum S(lam) = sum (j - i) of a member of the principal block is congruent
mod p to that of its member (n), n(n - 1)/2.  Conjugation negates every
content, so the conjugate can be a member only if -S(lam) = n(n - 1)/2
(mod p).  When neither congruence holds, both flags are false and no
runner step is taken.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .partitions import Partition, runner_steps


def principal_block_contains(lam: Partition, p: int) -> bool:
    """Is the p-core of ``lam`` the principal one, (b) with b = n mod p?

    Beta-sets of equal length have the same p-core exactly when their
    runner steps (see :func:`blockwitness.partitions.runner_steps`) agree,
    so no core is built and no count is summed: the core (b) is taken at
    the shape's own length L as the runs ((b, 1), (0, L - 1)).  The empty
    partition is its own core, the principal one of S_0.
    """
    length = lam.length
    if not length:
        return True
    return runner_steps(lam.runs, p) == runner_steps(((lam.size % p, 1), (0, length - 1)), p)


def principal_flag_pairs(
    n: int, primes: Sequence[int]
) -> Callable[[Sequence[tuple[int, int]]], tuple[tuple[bool, ...], tuple[bool, ...]]]:
    """Decide a partition of n and its conjugate in each prime's principal block.

    The returned function maps the descending runs of a partition ``lam``
    to the flags of ``lam`` and of its conjugate, each in the order of
    ``primes`` and each as :func:`principal_block_contains` decides it.  A
    flag whose content-sum congruence fails is false: S(lam) = n(n - 1)/2
    (mod p) for ``lam``, -S(lam) = n(n - 1)/2 for its conjugate (see the
    module docstring).  A prime where either holds takes one
    :func:`blockwitness.partitions.runner_steps` pass, compared against the
    cores (b) and (1^b); the empty partition, its own conjugate, is in every
    principal block.  S(lam) and the length of ``lam`` are summed once per
    call, in one pass of O(1) per run (:func:`_content_sum`).  The cores'
    steps are built once per length and prime, and live as long as the
    returned function.
    """
    half = n * (n - 1) // 2  # the content sum of (n)
    # length -> (p, steps of (b), steps of (1^b) or None) per prime
    cores: dict[int, list[tuple[int, list[int], list[int] | None]]] = {}

    def decide(runs: Sequence[tuple[int, int]]) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
        if not runs:
            return (True,) * len(primes), (True,) * len(primes)
        content, length = _content_sum(runs)
        at_length = cores.get(length)
        if at_length is None:
            at_length = cores[length] = []
            for p in primes:
                b = n % p
                row = runner_steps(((b, 1), (0, length - 1)), p)
                column = runner_steps(((1, b), (0, length - b)), p) if length >= b else None
                at_length.append((p, row, column))
        own, partner = [], []
        for p, row, column in at_length:
            own_sum = (content - half) % p == 0
            partner_sum = (content + half) % p == 0
            steps = runner_steps(runs, p) if own_sum or partner_sum else None
            own.append(own_sum and steps == row)
            partner.append(partner_sum and steps == column)
        return tuple(own), tuple(partner)

    return decide


def _content_sum(runs: Sequence[tuple[int, int]]) -> tuple[int, int]:
    # sum of column - row over the cells of the shape with descending runs,
    # and its number of rows: the m rows of length v from row r add
    # m v(v - 1)/2 - v (r m + m(m - 1)/2), which is m v (v - m - 2r)/2
    content = top = 0
    for value, mult in runs:
        content += mult * value * (value - mult - 2 * top) // 2
        top += mult
    return content, top
