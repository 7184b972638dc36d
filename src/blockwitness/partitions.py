"""Partitions as their runs of equal parts, and the abacus runner counts taken from them.

A partition is stored in one form: its descending ``(value, multiplicity)``
runs of equal parts, values strictly decreasing and >= 1, multiplicities
>= 1.  Its size and its length (the number of parts) are summed once, when
the partition is built; its parts are expanded from the runs on each read.
:class:`Partition` and :class:`AscendingSpec` are named tuples: immutable,
hashable, positional, and equal to the plain tuple of their fields, which
each one's ``__new__`` derives from its one argument.
The constructor takes its runs as given, and :func:`from_parts` is the one
converter from weakly decreasing positive parts; every partition built here
is canonical by construction, and partition text from outside the program
comes in through :func:`parse_partition_text`, which checks it.
:func:`partition_runs` enumerates the runs themselves, a constant number of
edits per step.
The character-table export reads the runs alone (:func:`runs_literal`,
:func:`conjugate_runs`) and builds no :class:`Partition`.  The ascending
block notation used to write down candidate partitions, e.g. ``(1^7, 2)``
for ``(2,1,1,1,1,1,1,1)``, exists only at the :class:`AscendingSpec`
boundary, whose runs are the partition's.

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
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, groupby
from operator import mul
from typing import Iterable, Iterator, Sequence

from .factored import parse_decimal


class NonMonotoneSpec(ValueError):
    """An ascending block spec is malformed (decreasing values, bad counts)."""


class Partition(namedtuple("Partition", ("runs", "size", "length"))):
    """Descending ``(value, multiplicity)`` runs of equal parts, taken unchecked.

    Built from its runs alone: ``size`` and ``length`` (the number of parts)
    are summed once, in one pass over the runs, and ``repr`` shows the runs.
    """

    __slots__ = ()
    __match_args__ = ("runs",)

    def __new__(cls, runs: tuple[tuple[int, int], ...] = ()) -> Partition:
        size = length = 0
        for value, mult in runs:
            size += value * mult
            length += mult
        return tuple.__new__(cls, (runs, size, length))

    def __getnewargs__(self) -> tuple:
        return (self.runs,)

    def __repr__(self) -> str:
        return f"Partition(runs={self.runs!r})"

    @property
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

    Each run is rendered once, as its value and a comma repeated, and the
    last comma is trimmed, so no list of parts is built.
    """
    text = ""
    for value, mult in runs:
        text += f"{value}," * mult
    return f"[{text[:-1]}]"


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


def conjugate_runs(runs: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The conjugate's descending runs, in one pass over ``runs``.

    Run a, m_a parts equal to v_a, becomes v_a - v_{a+1} parts equal to
    m_1 + ... + m_a, with v_{d+1} = 0; the last run gives the largest, so
    each run's is put in front of those before it once the next value is
    known.
    """
    conjugate = ()
    depth = above = 0
    for value, mult in runs:
        if depth:
            conjugate = ((depth, above - value),) + conjugate
        depth += mult
        above = value
    return ((depth, above),) + conjugate if depth else ()


class AscendingSpec(namedtuple("AscendingSpec", ("blocks", "runs"))):
    """A partition written as ascending (value, multiplicity) blocks.

    Mirrors the notation ``(1^k, a, b)`` with weakly increasing part values.
    A zero multiplicity is tolerated only for a leading 1-block, because the
    candidate shapes degenerate to zero ones at boundary parameters; any
    other zero or a decreasing value sequence raises :class:`NonMonotoneSpec`.
    Built from its blocks alone: the pass that checks them builds
    :attr:`runs`, the descending runs (equal values merged, the empty block
    dropped).
    """

    __slots__ = ()

    def __new__(cls, blocks: Iterable[Sequence[int]]) -> AscendingSpec:
        blocks = tuple(map(tuple, blocks))
        if not blocks:
            raise NonMonotoneSpec("spec needs at least one block")
        runs: list[tuple[int, int]] = []
        for index, (value, mult) in enumerate(blocks):
            if type(value) is not int or type(mult) is not int:
                raise TypeError(f"block values must be int, got {(value, mult)!r}")
            if value < 1:
                raise NonMonotoneSpec(f"block value must be >= 1, got {value}")
            if mult < 0 or (mult == 0 and not (index == 0 and value == 1)):
                raise NonMonotoneSpec(
                    f"multiplicity {mult} invalid for block {value} at index {index}"
                )
            if index and value < blocks[index - 1][0]:
                raise NonMonotoneSpec(f"block values must be weakly increasing, got {blocks}")
            if runs and runs[-1][0] == value:
                runs[-1] = (value, runs[-1][1] + mult)
            elif mult:
                runs.append((value, mult))
        return tuple.__new__(cls, (blocks, tuple(reversed(runs))))

    def __getnewargs__(self) -> tuple:
        return (self.blocks,)

    def to_partition(self) -> Partition:
        """The partition of :attr:`runs`, canonical since the blocks were checked."""
        return Partition(self.runs)

    def __str__(self) -> str:
        return "(" + ",".join(f"{v}^{m}" if m != 1 else f"{v}" for v, m in self.blocks) + ")"


def partition_runs(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """The runs of every partition of n, in lexicographically decreasing part order.

    Each step pops the trailing run of ones, takes one copy off the last
    run, of value v > 1, and deals out the ones and v again as
    ``divmod(ones + v, v - 1)``: at most two new runs.
    """
    if n < 0:
        raise ValueError(f"cannot partition {n}")
    if n == 0:
        yield ()
        return
    runs = [(n, 1)]
    while True:
        yield tuple(runs)
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
