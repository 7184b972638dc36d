"""Partitions, beta-sets, and the abacus for runner counts, weights and quotients.

Partitions are kept in one canonical form: a weakly decreasing tuple of
positive parts.  The ascending block notation used to write down candidate
partitions, e.g. ``(1^7, 2)`` for ``(2,1,1,1,1,1,1,1)``, exists only at the
:class:`AscendingSpec` boundary and is normalized on conversion.

Everything about ``e``-hooks is read off one abacus kernel,
:meth:`Partition.abacus`.  The beta-set is laid out on ``e`` runners, bead
``beta`` at level ``beta // e`` of runner ``beta % e``; that reduction is
made in :func:`_bead_positions` alone, which feeds the kernel and the
quotient.  One kernel pass yields two facts (James and Kerber, *The
Representation Theory of the Symmetric Group*, 1981, section 2.7):

* The runner counts ``c_0 .. c_{e-1}`` decide the ``e``-core.  Removing a
  rim hook of length ``e`` moves one bead from level ``l`` to a free level
  ``l - 1`` of its runner, so the core is the configuration with each
  runner's ``c_i`` beads packed onto levels ``0 .. c_i - 1``.  Two
  beta-sets of equal length therefore have the same ``e``-core exactly when
  their runner counts agree.
* The ``e``-weight, the number of ``e``-hooks removed on the way to the
  core, is the number of level steps that packing takes: the sum of all
  bead levels minus ``sum(c_i * (c_i - 1) / 2)``.  It also equals the
  number of hooks of the diagram whose length is divisible by ``e``.

No core is built.  The kernel always lays out the beta-set whose length is
the number of parts, so a partition is compared with a core through that
core's runner counts at the partition's length (see
:func:`blockwitness.blocks.principal_runner_counts`).  The quotient uses a
length divisible by ``p`` so the runner order is well defined, and
:func:`from_core_and_quotient` inverts it on the same convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import add, sub
from typing import Iterable, Iterator, Sequence

from .factored import parse_decimal


class NonMonotoneSpec(ValueError):
    """An ascending block spec is malformed (decreasing values, bad counts)."""


class LengthTooSmall(ValueError):
    """A beta-set length smaller than the number of parts was requested."""


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive integer parts."""

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        previous = None
        for a in self.parts:
            if type(a) is not int:
                raise TypeError(f"parts must be int, got {a!r}")
            if a < 1:
                raise ValueError(f"parts must be positive, got {a}")
            if previous is not None and a > previous:
                raise ValueError(f"parts must be weakly decreasing, got {self.parts}")
            previous = a

    @cached_property
    def size(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram."""
        parts = self.parts
        if not parts:
            return self
        out = []
        rows = len(parts)
        for col in range(1, parts[0] + 1):
            while rows > 0 and parts[rows - 1] < col:
                rows -= 1
            out.append(rows)
        return _trusted(tuple(out))

    def is_self_conjugate(self) -> bool:
        # the first column has len(parts) cells and the first row parts[0]
        if self.parts and len(self.parts) != self.parts[0]:
            return False
        return self.parts == self.conjugate().parts

    def beta_set(self, length: int) -> tuple[int, ...]:
        """First-column hook lengths of the partition padded to ``length`` rows.

        Returns the strictly decreasing sequence ``parts[i] + length - 1 - i``
        with the partition padded by zeros.
        """
        if length < len(self.parts):
            raise LengthTooSmall(
                f"beta-set length {length} < {len(self.parts)} parts"
            )
        padded = self.parts + (0,) * (length - len(self.parts))
        return tuple(map(add, padded, range(length - 1, -1, -1)))

    def abacus(self, e: int) -> tuple[list[int], int]:
        """Runner counts and ``e``-weight of the beta-set on an ``e``-runner abacus.

        One pass over the beads of the beta-set whose length is the number of
        parts.
        """
        if e < 1:
            raise ValueError(f"abacus requires e >= 1, got {e}")
        counts = [0] * e
        weight = 0
        beads = self.beta_set(len(self.parts))
        for level, runner in _bead_positions(beads, e):
            # the beads already on a runner add up to sum(c * (c - 1) / 2)
            weight += level - counts[runner]
            counts[runner] += 1
        return counts, weight

    def p_quotient(self, p: int) -> tuple["Partition", ...]:
        """The ``p`` runner partitions encoding the removed ``p``-hooks.

        Uses a beta-set length divisible by ``p``; the total size of the
        components is (size - core size) / p.
        """
        if p < 2:
            raise ValueError(f"quotient requires p >= 2, got {p}")
        length = -(-len(self.parts) // p) * p
        beads = self.beta_set(length)
        rows: list[list[int]] = [[] for _ in range(p)]
        for level, runner in _bead_positions(beads, p):
            rows[runner].append(level)
        components = []
        for runner in rows:
            runner.sort(reverse=True)
            count = len(runner)
            parts = tuple(
                row - (count - 1 - i) for i, row in enumerate(runner)
            )
            components.append(_trusted(tuple(a for a in parts if a > 0)))
        return tuple(components)

    def to_literal(self) -> str:
        """Descending literal, e.g. '[2,1,1]'; '[]' for the empty partition."""
        return "[" + ",".join(str(a) for a in self.parts) + "]"

    @classmethod
    def from_literal(cls, text: str) -> "Partition":
        body = text.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError(f"partition literal must look like [a,b,...]: {text!r}")
        inner = body[1:-1].strip()
        if not inner:
            return cls(())
        return cls(tuple(parse_decimal(tok.strip()) for tok in inner.split(",")))


def _bead_positions(beads: Iterable[int], e: int) -> Iterator[tuple[int, int]]:
    # (level, runner) of each bead on an e-runner abacus
    return map(divmod, beads, repeat(e))


def from_core_and_quotient(
    core: Partition, quotient: Sequence[Partition], p: int
) -> Partition:
    """The partition with ``p``-core ``core`` and ``p``-quotient ``quotient``.

    The inverse of :meth:`Partition.p_quotient`, on its convention: a
    beta-set whose length is a multiple of ``p``.  Runner ``i`` of the
    core's abacus holds c_i packed beads; the result lays the beta-set of
    ``quotient[i]`` of length c_i on that runner instead, after adding
    full rows of beads under the core until every c_i covers the parts of
    its component.  A ``core`` with a ``p``-hook, or a quotient without
    ``p`` components, raises ``ValueError``.
    """
    if p < 2:
        raise ValueError(f"quotient requires p >= 2, got {p}")
    if len(quotient) != p:
        raise ValueError(f"a {p}-quotient has {p} components, got {len(quotient)}")
    counts, weight = core.abacus(p)
    if weight:
        raise ValueError(f"{core.to_literal()} is not a {p}-core")
    # padding the beta-set to a length divisible by p adds `shift` beads at
    # the bottom, which moves runner j's beads to runner j + shift
    shift = -len(core.parts) % p
    placed = [
        (runner, mu.parts, counts[runner - shift] + (runner < shift))
        for runner, mu in enumerate(quotient)
        if mu.parts
    ]
    lift = max([0] + [len(parts) - c for _, parts, c in placed])
    beads = set(core.beta_set(len(core.parts) + shift + lift * p))
    for runner, parts, c in placed:
        # the top len(parts) of the runner's packed beads move up to the component's levels
        top = c + lift - 1
        beads.difference_update(range(runner + p * top, runner + p * (top - len(parts)), -p))
        beads.update(runner + p * (a + top - i) for i, a in enumerate(parts))
    ordered = sorted(beads, reverse=True)
    parts = tuple(map(sub, ordered, range(len(ordered) - 1, -1, -1)))
    return _trusted(parts[: len(parts) - parts.count(0)])


def _trusted(parts: tuple[int, ...]) -> Partition:
    # Fast path for internally generated sequences already in canonical form.
    obj = object.__new__(Partition)
    object.__setattr__(obj, "parts", parts)
    return obj



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
        previous = None
        for index, (value, mult) in enumerate(self.blocks):
            if type(value) is not int or type(mult) is not int:
                raise TypeError(f"block values must be int, got {(value, mult)!r}")
            if value < 1:
                raise NonMonotoneSpec(f"block value must be >= 1, got {value}")
            if mult < 0 or (mult == 0 and not (index == 0 and value == 1)):
                raise NonMonotoneSpec(
                    f"multiplicity {mult} invalid for block {value} at index {index}"
                )
            if previous is not None and value < previous:
                raise NonMonotoneSpec(
                    f"block values must be weakly increasing, got {self.blocks}"
                )
            previous = value

    @property
    def total(self) -> int:
        return sum(v * m for v, m in self.blocks)

    @property
    def runs(self) -> tuple[tuple[int, int], ...]:
        """Descending ``(value, multiplicity)`` runs of the partition's parts.

        Equal values are merged and the empty leading 1-block is dropped, so
        these are the runs of :meth:`to_partition` without building it.
        """
        runs: list[tuple[int, int]] = []
        for value, mult in reversed(self.blocks):
            if runs and runs[-1][0] == value:
                runs[-1] = (value, runs[-1][1] + mult)
            elif mult:
                runs.append((value, mult))
        return tuple(runs)

    def to_partition(self) -> Partition:
        """Canonical descending partition with the spec's multiset of parts.

        The blocks were checked on construction (int values >= 1, weakly
        increasing), so the reversed expansion is canonical as it stands.
        """
        expanded: list[int] = []
        for value, mult in self.blocks:
            expanded.extend([value] * mult)
        expanded.reverse()
        return _trusted(tuple(expanded))

    def __str__(self) -> str:
        rendered = []
        for value, mult in self.blocks:
            rendered.append(f"{value}^{mult}" if mult != 1 else f"{value}")
        return "(" + ",".join(rendered) + ")"

    @classmethod
    def parse(cls, text: str) -> "AscendingSpec":
        body = text.strip()
        if not (body.startswith("(") and body.endswith(")")):
            raise ValueError(f"ascending spec must look like (1^k,a,b): {text!r}")
        inner = body[1:-1].strip()
        if not inner:
            raise NonMonotoneSpec("spec needs at least one block")
        blocks = []
        for token in inner.split(","):
            token = token.strip()
            if "^" in token:
                value_text, mult_text = token.split("^", 1)
                blocks.append(
                    (parse_decimal(value_text.strip()), parse_decimal(mult_text.strip()))
                )
            else:
                blocks.append((parse_decimal(token), 1))
        return cls(tuple(blocks))


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n, in lexicographically decreasing part order."""
    if n < 0:
        raise ValueError(f"cannot partition {n}")
    if n == 0:
        yield _trusted(())
        return
    current = (n,)
    yield _trusted(current)
    while True:
        i = len(current) - 1
        while i >= 0 and current[i] == 1:
            i -= 1
        if i < 0:
            return
        freed = len(current) - i
        current = current[:i] + (current[i] - 1,)
        while freed > 0:
            chunk = min(current[-1], freed)
            current = current + (chunk,)
            freed -= chunk
        yield _trusted(current)


def parse_partition_text(text: str, size: int) -> Partition:
    """A partition of ``size`` from a '[3,1]' literal or a '(1^2,3)' spec.

    A spec is sized before it is expanded, so a huge one costs no memory.
    """
    stripped = text.strip()
    if stripped.startswith("("):
        spec = AscendingSpec.parse(stripped)
        if spec.total == size:
            return spec.to_partition()
        shown, total = str(spec), spec.total
    else:
        lam = Partition.from_literal(stripped)
        if lam.size == size:
            return lam
        shown, total = lam.to_literal(), lam.size
    raise ValueError(f"partition {shown} has size {total}, expected {size}")
