"""Independent brute-force oracles used to freeze expected values.

Nothing here may import from blockwitness internals beyond plain data; these
implementations deliberately take different routes (standard-tableau counts,
all-orders rim-hook stripping, bounded-part counting) than the library code
they check.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

Parts = tuple[int, ...]


def enumerate_partitions(n: int, max_part: int | None = None):
    """Recursive descending enumeration, independent of the library generator."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in enumerate_partitions(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def count_with_max_part(n: int, k: int) -> int:
    # partitions of n into parts <= k
    if n == 0:
        return 1
    if k == 0:
        return 0
    total = count_with_max_part(n, k - 1)
    if n >= k:
        total += count_with_max_part(n - k, k)
    return total


def partition_count_oracle(n: int) -> int:
    return count_with_max_part(n, n)


@lru_cache(maxsize=None)
def syt_count(parts: Parts) -> int:
    """Number of standard fillings, by removing one corner cell at a time."""
    if not parts:
        return 1
    total = 0
    for i, row in enumerate(parts):
        if i + 1 < len(parts) and parts[i + 1] == row:
            continue
        shrunk = parts[:i] + ((row - 1,) if row > 1 else ()) + parts[i + 1 :]
        total += syt_count(shrunk)
    return total


def conjugate(parts: Parts) -> Parts:
    if not parts:
        return ()
    out = []
    rows = len(parts)
    for col in range(1, parts[0] + 1):
        while rows > 0 and parts[rows - 1] < col:
            rows -= 1
        out.append(rows)
    return tuple(out)


def hooks(parts: Parts) -> list[int]:
    conj = conjugate(parts)
    return [
        row - j + conj[j] - i - 1
        for i, row in enumerate(parts)
        for j in range(row)
    ]


def hook_product_degree(parts: Parts) -> int:
    """n! divided by the product of all hook lengths, in plain integers."""
    n = sum(parts)
    product = 1
    for h in hooks(parts):
        product *= h
    quotient, remainder = divmod(factorial(n), product)
    if remainder:
        raise ArithmeticError(f"hook product of {parts} does not divide {n}!")
    return quotient


def remove_rim_hook(parts: Parts, i: int, j: int) -> Parts:
    """Partition after removing the rim hook of 1-indexed cell (i, j)."""
    foot = conjugate(parts)[j - 1]
    rows = list(parts)
    for k in range(i, foot):
        rows[k - 1] = parts[k] - 1
    rows[foot - 1] = j - 1
    return tuple(a for a in rows if a > 0)


def single_hook_removals(parts: Parts, p: int) -> list[Parts]:
    """Every partition reachable by removing one rim hook of length p."""
    conj = conjugate(parts)
    out = []
    for i, row in enumerate(parts, start=1):
        for j in range(1, row + 1):
            if row - j + conj[j - 1] - i + 1 == p:
                out.append(remove_rim_hook(parts, i, j))
    return out


@lru_cache(maxsize=None)
def exhaustive_cores(parts: Parts, p: int) -> frozenset[Parts]:
    """All terminal shapes over every rim-hook removal order."""
    removals = single_hook_removals(parts, p)
    if not removals:
        return frozenset({parts})
    result: set[Parts] = set()
    for smaller in removals:
        result |= exhaustive_cores(smaller, p)
    return frozenset(result)


def residue_counts(beads, e: int) -> list[int]:
    """How many beads fall in each residue class mod e, one class at a time."""
    return [sum(1 for b in beads if b % e == r) for r in range(e)]


def multipartition_count(components: int, total: int) -> int:
    """Number of `components`-tuples of partitions with sizes summing to total."""
    base = [partition_count_oracle(k) for k in range(total + 1)]
    current = [1] + [0] * total
    for _ in range(components):
        nxt = [0] * (total + 1)
        for a in range(total + 1):
            if current[a] == 0:
                continue
            for b in range(total + 1 - a):
                nxt[a + b] += current[a] * base[b]
        current = nxt
    return current[total]


def padic_valuation(x: int, p: int) -> int:
    """Exponent of the prime p in the integer x >= 1, by repeated division."""
    if x < 1:
        raise ValueError(f"valuation is defined for positive integers, got {x}")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def random_partition(rng, n: int) -> Parts:
    """Parts of a partition of n sampled by cutting random chunks."""
    remaining = n
    parts = []
    while remaining > 0:
        piece = rng.randint(1, remaining)
        parts.append(piece)
        remaining -= piece
    parts.sort(reverse=True)
    return tuple(parts)
