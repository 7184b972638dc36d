"""Partitions as their runs of equal parts, and the abacus runner counts taken from them.

A partition is stored in one form: its descending ``(value, multiplicity)``
runs of equal parts, values strictly decreasing and >= 1, multiplicities
>= 1.  Its size, its length (the number of parts) and its parts are derived
from the runs on first use.  The constructor takes its runs as given, and
:func:`from_parts` is the one converter from weakly decreasing positive
parts; every partition built here is canonical by construction, and
partition text from outside the program comes in through
:func:`parse_partition_text`, which checks it.  :func:`partitions_of`
enumerates the runs themselves, a constant number of edits per step.  The
ascending block notation used to write down candidate partitions, e.g.
``(1^7, 2)`` for ``(2,1,1,1,1,1,1,1)``, exists only at the
:class:`AscendingSpec` boundary, whose runs are the partition's.

Everything about ``e``-cores is read off one kernel, :func:`runner_steps`,
and no beta-set is listed.  The beta-set is laid out on ``e`` runners, bead
``beta`` at level ``beta // e`` of runner ``beta % e``, and removing a rim
hook of length ``e`` moves one bead from level ``l`` to a free level
``l - 1`` of its runner (James and Kerber, *The Representation Theory of
the Symmetric Group*, 1981, section 2.7).  So the ``e``-core is the
configuration with each runner's ``c_i`` beads packed onto levels
``0 .. c_i - 1``, and two beta-sets of equal length have the same ``e``-core
exactly when their runner counts ``c_0 .. c_{e-1}`` agree, or equally their
steps ``c_0, c_1 - c_0, .., c_{e-1} - c_{e-2}``.  The kernel takes the steps
from a partition's runs of equal parts, each an interval of beads, so it
costs O(1) per run and never visits a bead; :func:`runner_counts` is their
running sum, and :func:`weight` reads the ``e``-weight off the counts in
closed form.

No core is built.  A partition is compared with a core through the same
kernel on that core's runs, padded with a run of zero parts to the
partition's length (see :func:`blockwitness.blocks.principal_block_contains`).
Component i of the ``e``-quotient has runner i's bead levels for its
beta-set, on a beta-set length divisible by ``e`` so the runner order is
well defined; :func:`from_core_and_quotients` inverts that for all
quotients of one core, at any ``e >= 2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, groupby
from operator import mul, sub
from typing import Iterable, Iterator, Sequence

from .factored import parse_decimal


class NonMonotoneSpec(ValueError):
    """An ascending block spec is malformed (decreasing values, bad counts)."""


@dataclass(frozen=True)
class Partition:
    """Descending ``(value, multiplicity)`` runs of equal parts, taken unchecked."""

    runs: tuple[tuple[int, int], ...] = ()

    @cached_property
    def size(self) -> int:
        return sum(v * m for v, m in self.runs)

    @cached_property
    def length(self) -> int:
        """The number of parts."""
        return sum(m for _, m in self.runs)

    @cached_property
    def parts(self) -> tuple[int, ...]:
        """The weakly decreasing parts, expanded from the runs."""
        return tuple(v for v, m in self.runs for _ in range(m))

    def is_self_conjugate(self) -> bool:
        # the first column has `length` cells and the first row runs[0][0]
        if self.runs and self.length != self.runs[0][0]:
            return False
        return self.runs == conjugate_runs(self.runs)

    def to_literal(self) -> str:
        """Descending literal, e.g. '[2,1,1]'; '[]' for the empty partition."""
        return runs_literal(self.runs)


def from_parts(parts: Iterable[int]) -> Partition:
    """The partition with weakly decreasing positive ``parts``, taken unchecked."""
    return Partition(tuple([(v, len(list(run))) for v, run in groupby(parts)]))


def runs_literal(runs: Sequence[tuple[int, int]]) -> str:
    """Literal of the partition with descending ``runs``, e.g. '[2,1,1]'.

    Each run is rendered once and repeated, so the cost is one ``str`` per
    run rather than one per part.
    """
    return "[" + ",".join([",".join([str(v)] * m) for v, m in runs]) + "]"


def runner_steps(runs: Sequence[tuple[int, int]], e: int) -> list[int]:
    """First differences of the beads on each runner of an ``e``-runner abacus.

    ``runs`` are descending ``(value, multiplicity)`` runs of equal parts,
    and the beta-set has one bead per part; a trailing run of value 0
    pads it with that many beads.  Entry 0 is runner 0's count and entry i
    the step from runner i - 1 to runner i, so two beta-sets of equal
    length have equal steps exactly when their counts agree.  The m parts
    equal to v with ``below`` parts under them are the beads
    v + below .. v + below + m - 1.  That interval puts m // e beads on
    every runner and one more on the m % e runners that follow its lowest
    bead cyclically: a +1 at the first of them and a -1 after the last,
    whose running sum is one short everywhere when the pair wraps past
    runner e - 1, so a wrapping interval adds one more round at entry 0.
    """
    if e < 1:
        raise ValueError(f"an abacus needs e >= 1 runners, got {e}")
    rounds = 0
    steps = [0] * e
    below = 0
    for value, mult in reversed(runs):
        full, rest = divmod(mult, e)
        first = (value + below) % e
        end = first + rest
        rounds += full + (end >= e)
        steps[first] += 1
        steps[end % e] -= 1
        below += mult
    steps[0] += rounds
    return steps


def runner_counts(runs: Sequence[tuple[int, int]], e: int) -> list[int]:
    """Beads on each runner of an ``e``-runner abacus, the running sum of its steps."""
    return list(accumulate(runner_steps(runs, e)))


def weight(lam: Partition, e: int) -> int:
    """The ``e``-weight of ``lam``: the ``e``-hooks removed on the way to its ``e``-core.

    The L beads of the beta-set sum to n + L(L - 1)/2.  The ``e``-core packs
    runner i's c_i beads onto its lowest levels, where they sum to
    sum i c_i + e (sum c_i^2 - L)/2, the least bead sum of any layout with
    those runner counts; each removed ``e``-hook takes e from the bead sum.
    """
    length = lam.length
    counts = runner_counts(lam.runs, e)
    packed = sum(map(mul, range(e), counts)) + e * (sum(map(mul, counts, counts)) - length) // 2
    return (lam.size + length * (length - 1) // 2 - packed) // e


def from_core_and_quotients(
    core: Partition, quotients: Iterable[Sequence[Partition]], e: int
) -> list[Partition]:
    """The partitions with ``e``-core ``core`` and each ``e``-quotient in ``quotients``.

    Any ``e >= 2`` works, prime or not.  The convention is a beta-set whose
    length is a multiple of ``e``; the core's has c_i packed beads on runner
    i.  A quotient moves the top len(mu_i) beads of runner i to the levels
    of the beta-set of its component mu_i of length c_i + lift, where
    ``lift`` full rows of beads under the core let every runner hold the
    parts of its component.  The core is checked (its ``e``-weight is 0) and
    its counts taken once for all its quotients, and each lift's packed beads
    are laid from the counts.  A ``core`` with an ``e``-hook, or a quotient
    without ``e`` components, raises ``ValueError``.
    """
    if e < 2:
        raise ValueError(f"quotient requires e >= 2, got {e}")
    if weight(core, e):
        raise ValueError(f"{core.to_literal()} is not a {e}-core")
    length = -(-core.length // e) * e
    counts = runner_counts(core.runs + ((0, length - core.length),), e)
    # bases[lift]: the core's packed beads under `lift` more full rows
    bases: dict[int, set[int]] = {}
    members = []
    for quotient in quotients:
        if len(quotient) != e:
            raise ValueError(f"a {e}-quotient has {e} components, got {len(quotient)}")
        placed = [(i, mu.parts) for i, mu in enumerate(quotient) if mu.runs]
        lift = max([0] + [len(parts) - counts[i] for i, parts in placed])
        if lift not in bases:
            bases[lift] = {i + e * level for i, c in enumerate(counts) for level in range(c + lift)}
        beads = bases[lift].copy()
        for i, parts in placed:
            top = counts[i] + lift - 1
            beads.difference_update(range(i + e * top, i + e * (top - len(parts)), -e))
            beads.update(i + e * (a + top - j) for j, a in enumerate(parts))
        ordered = sorted(beads, reverse=True)
        parts = tuple(map(sub, ordered, range(len(ordered) - 1, -1, -1)))
        members.append(from_parts(parts[: len(parts) - parts.count(0)]))
    return members


def conjugate_runs(runs: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The conjugate's descending runs, in O(len(runs)).

    Run a, m_a parts equal to v_a, becomes v_a - v_{a+1} parts equal to
    m_1 + ... + m_a, with v_{d+1} = 0; the last run gives the largest.
    """
    values = [v for v, _ in runs]
    depths = accumulate(m for _, m in runs)
    return tuple(reversed(list(zip(depths, map(sub, values, values[1:] + [0])))))


@dataclass(frozen=True)
class AscendingSpec:
    """A partition written as ascending (value, multiplicity) blocks.

    Mirrors the notation ``(1^k, a, b)`` with weakly increasing part values.
    A zero multiplicity is tolerated only for a leading 1-block, because the
    candidate shapes degenerate to zero ones at boundary parameters; any
    other zero or a decreasing value sequence raises :class:`NonMonotoneSpec`.
    """

    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(map(tuple, self.blocks)))
        if not self.blocks:
            raise NonMonotoneSpec("spec needs at least one block")
        for index, (value, mult) in enumerate(self.blocks):
            if type(value) is not int or type(mult) is not int:
                raise TypeError(f"block values must be int, got {(value, mult)!r}")
            if value < 1:
                raise NonMonotoneSpec(f"block value must be >= 1, got {value}")
            if mult < 0 or (mult == 0 and not (index == 0 and value == 1)):
                raise NonMonotoneSpec(
                    f"multiplicity {mult} invalid for block {value} at index {index}"
                )
            if index and value < self.blocks[index - 1][0]:
                raise NonMonotoneSpec(
                    f"block values must be weakly increasing, got {self.blocks}"
                )

    @property
    def runs(self) -> tuple[tuple[int, int], ...]:
        """Descending ``(value, multiplicity)`` runs of the partition's parts.

        Equal values are merged and the empty leading 1-block is dropped, so
        these are the canonical runs :meth:`to_partition` keeps.
        """
        runs: list[tuple[int, int]] = []
        for value, mult in reversed(self.blocks):
            if runs and runs[-1][0] == value:
                runs[-1] = (value, runs[-1][1] + mult)
            elif mult:
                runs.append((value, mult))
        return tuple(runs)

    def to_partition(self) -> Partition:
        """The partition of :attr:`runs`, canonical since the blocks were checked."""
        return Partition(self.runs)

    def __str__(self) -> str:
        return "(" + ",".join(f"{v}^{m}" if m != 1 else f"{v}" for v, m in self.blocks) + ")"


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n, in lexicographically decreasing part order.

    Each step pops the trailing run of ones, takes one copy off the last
    run, of value v > 1, and deals out the ones and v again as
    ``divmod(ones + v, v - 1)``: at most two new runs.
    """
    if n < 0:
        raise ValueError(f"cannot partition {n}")
    if n == 0:
        yield Partition(())
        return
    runs = [(n, 1)]
    while True:
        yield Partition(tuple(runs))
        ones = runs.pop()[1] if runs[-1][0] == 1 else 0
        if not runs:
            return
        value, mult = runs.pop()
        if mult > 1:
            runs.append((value, mult - 1))
        full, rest = divmod(ones + value, value - 1)
        runs.append((value - 1, full))
        if rest:
            runs.append((rest, 1))


def parse_partition_text(text: str, size: int) -> Partition:
    """A partition of ``size`` from a '[3,1]' literal or a '(1^2,3)' spec.

    The one way in for partition text: every integer is read by
    :func:`parse_decimal`, so the text carries no spaces, and anything else
    raises ``ValueError``.
    A spec becomes its runs and is never expanded to parts, so a huge one
    costs no memory.
    """
    inner = text[1:-1]
    tokens = inner.split(",") if inner else []
    if text.startswith("("):
        if not text.endswith(")"):
            raise ValueError(f"ascending spec must look like (1^k,a,b): {text!r}")
        spec = AscendingSpec(tuple(
            (parse_decimal(head), parse_decimal(tail) if power else 1)
            for head, power, tail in (token.partition("^") for token in tokens)
        ))
        lam, shown = spec.to_partition(), str(spec)
    else:
        if not (text.startswith("[") and text.endswith("]")):
            raise ValueError(f"partition literal must look like [a,b,...]: {text!r}")
        parts = tuple(map(parse_decimal, tokens))
        if 0 in parts or any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError(f"parts must be positive and weakly decreasing: {text!r}")
        lam, shown = from_parts(parts), ""
    if lam.size != size:
        raise ValueError(
            f"partition {shown or lam.to_literal()} has size {lam.size}, expected {size}"
        )
    return lam
