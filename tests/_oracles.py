"""Independent brute-force oracles used to freeze expected values.

Nothing here may import from blockwitness internals beyond plain data; these
implementations deliberately take different routes (standard-tableau counts,
all-orders rim-hook stripping, bounded-part counting) than the library code
they check.  The exceptions share a record type and differ in the route:
:func:`reference_parse_table` shares the header helpers and record types of
``blockwitness.tables`` and differs from ``parse_table`` in its rows: one loop
over every line, and every flag token of every row checked.
:func:`reference_one_hook_lifts` and :func:`reference_hook_lifts` build each
lift of the oracle's digit lift from its whole list of parts (through
``from_parts``) or its whole beta-set, where the library writes or edits the
runs.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, isqrt

from blockwitness.factored import is_prime
from blockwitness.partitions import Partition, from_parts
from blockwitness.tables import (
    _HEADER_DIRECTIVES,
    _SINGLE_TOKEN,
    CharacterRow,
    CharacterTableSummary,
    ParseError,
    _close_header,
    _line_of,
    _parse_bool,
    _parse_int,
)

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


def beta_set(parts: Parts, length: int) -> Parts:
    """First-column hook lengths of ``parts`` padded by zeros to ``length`` rows.

    The strictly decreasing ``parts[i] + length - 1 - i``, listed bead by
    bead; a length below the number of parts raises ``ValueError``.
    """
    if length < len(parts):
        raise ValueError(f"beta-set length {length} < {len(parts)} parts")
    padded = parts + (0,) * (length - len(parts))
    return tuple(a + length - 1 - i for i, a in enumerate(padded))


def factorial_valuation(k: int, p: int) -> int:
    """Exponent of p in k!, by the floor-sum formula."""
    total = 0
    power = p
    while power <= k:
        total += k // power
        power *= p
    return total


def residue_counts(beads, e: int) -> list[int]:
    """How many beads fall in each residue class mod e, tallied bead by bead."""
    counts = [0] * e
    for b in beads:
        counts[b % e] += 1
    return counts


def multipartitions(components: int, total: int):
    """Every `components`-tuple of partitions (as parts) of total size `total`."""
    if components == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for first in enumerate_partitions(head):
            for rest in multipartitions(components - 1, total - head):
                yield (first,) + rest


def reference_one_hook_lifts(b: int, p: int) -> list[Partition]:
    """The p partitions with p-core (b) and p-weight 1, from their parts, in the
    order of ``oracle._one_hook_lifts``: (b + p), then (b + j, b + 1,
    1^(p - b - 1 - j)) for 1 <= j <= p - b - 1, then (b, c, 1^(p - c)) for
    1 <= c <= b."""
    return [
        Partition(((b + p, 1),)),
        *(from_parts((b + j, b + 1) + (1,) * (p - b - 1 - j)) for j in range(1, p - b)),
        *(from_parts((b, c) + (1,) * (p - c)) for c in range(1, b + 1)),
    ]


def reference_hook_lifts(lam: Partition, e: int, first: int):
    """``(lift, x % e)`` for each bead x on a runner >= ``first`` that moves to a
    free x + e, on the beta-set of ``oracle._hook_lifts``, each lift's parts read
    off its whole sorted beta-set."""
    top = -(-(lam.length + e) // e) * e - 1
    beads = {v + top - i for i, v in enumerate(lam.parts)} | set(range(top - lam.length + 1))
    for x in beads:
        if x % e >= first and x + e not in beads:
            parts = [y - top + k for k, y in enumerate(sorted(beads ^ {x, x + e}, reverse=True))]
            yield from_parts(parts[: len(parts) - parts.count(0)]), x % e


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


def factorial_factors(k: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of k!, dividing the integer k! by each prime <= k."""
    primes = [d for d in range(2, k + 1) if all(d % e for e in range(2, isqrt(d) + 1))]
    return tuple((p, padic_valuation(factorial(k), p)) for p in primes)


def is_canonical_partition(parts, n: int) -> bool:
    """A tuple of int parts >= 1, weakly decreasing, summing to n."""
    return (
        type(parts) is tuple
        and all(type(a) is int and a >= 1 for a in parts)
        and all(a >= b for a, b in zip(parts, parts[1:]))
        and sum(parts) == n
    )


def is_canonical_runs(runs, n: int) -> bool:
    """A tuple of int (value, multiplicity) pairs summing to n as value * multiplicity.

    Values strictly decrease and are >= 1, and multiplicities are >= 1, so
    no two runs could merge and no run is empty.
    """
    return (
        type(runs) is tuple
        and all(type(pair) is tuple and list(map(type, pair)) == [int, int] for pair in runs)
        and all(v >= 1 and m >= 1 for v, m in runs)
        and all(a > b for (a, _), (b, _) in zip(runs, runs[1:]))
        and sum(v * m for v, m in runs) == n
    )


def is_canonical_factorization(factors) -> bool:
    """A tuple of int (prime, exponent) pairs: keys strictly increasing, exponents >= 1."""
    return (
        type(factors) is tuple
        and all(type(pair) is tuple and list(map(type, pair)) == [int, int] for pair in factors)
        and all(p < q for (p, _), (q, _) in zip(factors, factors[1:]))
        and all(
            e >= 1 and p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))
            for p, e in factors
        )
    )


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


def reference_add_row(line_no, tokens, primes, rows) -> None:
    """Parse one ``char`` line's tokens into ``rows``, checking every flag token."""
    if len(tokens) < 3:
        raise ParseError(line_no, "char row needs an id and a degree")
    row_id = tokens[1]
    if row_id in rows:
        raise ParseError(line_no, "duplicate character id", row_id)
    degree_value = _parse_int(line_no, tokens[2], "degree")
    if degree_value < 1:
        raise ParseError(line_no, f"degree must be positive, got {degree_value}")
    flag_map: dict[int, bool] = {}
    for token in tokens[3:]:
        if ":" not in token:
            raise ParseError(line_no, "flag must look like <prime>:<0|1>", token)
        prime_text, bit_text = token.split(":", 1)
        p = _parse_int(line_no, prime_text, "flag prime")
        if p not in primes:
            raise ParseError(line_no, f"flag prime {p} not in header primes", token)
        if p in flag_map:
            raise ParseError(line_no, f"duplicate flag for prime {p}", token)
        if bit_text not in ("0", "1"):
            raise ParseError(line_no, "flag value must be 0 or 1", token)
        flag_map[p] = bit_text == "1"
    missing = [p for p in primes if p not in flag_map]
    if missing:
        raise ParseError(line_no, f"row is missing flags for primes {missing}")
    rows[row_id] = CharacterRow(row_id, degree_value, tuple(flag_map[p] for p in primes))


def reference_parse_table(data) -> CharacterTableSummary:
    """``parse_table`` as one loop over all lines, each split fully, no tail remembered."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        line_no = _line_of(exc.object[: exc.start].decode("utf-8"))
        raise ParseError(line_no, f"invalid UTF-8 byte 0x{exc.object[exc.start]:02x}") from None
    found = [i for i in map(text.find, "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029") if i >= 0]
    if found:
        stray = min(found)
        raise ParseError(_line_of(text[:stray]), f"line break U+{ord(text[stray]):04X} inside a line")
    group = trivial = ""
    order = 0
    primes: tuple[int, ...] = ()
    complete = False
    lines: dict[str, int] = {}
    sylow_raw: list = []
    sylow = None  # set when the header closes
    rows: dict = {}
    text_lines = text.splitlines()
    for line_no, raw in enumerate(text_lines, start=1):
        tokens = raw.partition("#")[0].split()
        if not tokens:
            continue
        directive = tokens[0]
        if directive == "char":
            if sylow is None:
                sylow = _close_header(line_no, lines, order, primes, sylow_raw)
            reference_add_row(line_no, tokens, primes, rows)
            continue
        if sylow is not None:
            raise ParseError(line_no, f"directive '{directive}' after char rows")
        if directive == "sylow_commute":
            if len(tokens) != 4:
                raise ParseError(line_no, "sylow_commute needs <p> <q> <true|false>")
            sylow_raw.append((line_no, tokens[1:]))
            continue
        if directive not in _HEADER_DIRECTIVES:
            raise ParseError(line_no, "unknown directive", directive)
        if directive in lines:
            raise ParseError(line_no, f"duplicate '{directive}' directive")
        lines[directive] = line_no
        if directive == "primes":
            for token in tokens[1:]:
                p = _parse_int(line_no, token, "prime")
                try:
                    prime = is_prime(p)
                except ValueError:
                    message = "too large for an exact primality test"
                    raise ParseError(line_no, message, token) from None
                if not prime:
                    raise ParseError(line_no, f"{p} is not prime", token)
                if p in primes:
                    raise ParseError(line_no, f"duplicate prime {p}", token)
                primes += (p,)
            continue
        if len(tokens) != 2:
            raise ParseError(line_no, _SINGLE_TOKEN[directive])
        token = tokens[1]
        if directive == "group":
            group = token
        elif directive == "order":
            order = _parse_int(line_no, token, "order")
            if order < 1:
                raise ParseError(line_no, f"order must be positive, got {order}")
        elif directive == "trivial":
            trivial = token
        else:
            complete = _parse_bool(line_no, token)

    end = len(text_lines) + 1
    if sylow is None:
        sylow = _close_header(end, lines, order, primes, sylow_raw)
    if not rows:
        raise ParseError(end, "table has no char rows")
    trivial_row = rows.get(trivial)
    if trivial_row is None:
        raise ParseError(end, f"trivial id {trivial!r} has no char row")
    if trivial_row.degree != 1:
        raise ParseError(end, f"trivial character must have degree 1, got {trivial_row.degree}")
    if not all(trivial_row.flags):
        raise ParseError(end, "trivial character must lie in every principal block")
    if complete:
        square_sum = sum(row.degree**2 for row in rows.values())
        if square_sum != order:
            raise ParseError(
                lines["complete"], f"degree squares sum to {square_sum}, order is {order}"
            )
    return CharacterTableSummary(
        group, order, primes, trivial, complete, sylow, tuple(rows.values())
    )
