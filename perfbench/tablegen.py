"""Seeded synthetic character-table files with planted audit verdicts.

The generator never imports blockwitness.  It decides, per prime pair, which
set-theoretic facts a table will have, writes rows that realize exactly those
facts, and derives each pair's A/B/C verdict from the plan by the rules in the
table-format docstring of ``blockwitness.tables``.  The audit's findings are
then compared against these planted verdicts.

Construction.  The header primes are split into classes.  Every row flagged in
a principal block is flagged at whole classes, with a degree chosen so that its
membership in each prime-to-p set is known in advance:

- the trivial row is in every set;
- a *private* row of class C is in the sets of C only (degree coprime to all
  header primes); every class but at most one gets one, so sets of distinct
  classes always differ, and sets within one class are always equal;
- a *shared* row of classes C1, C2 is in the sets of both, which makes every
  cross pair between them have a non-trivial intersection;
- a *cross* row of class C towards a prime q outside C is in the sets of C
  with degree divisible by q: a cross-divisible degree for (p, q), p in C;
- *noise* rows are flagged at primes that divide their degree, and *filler*
  rows are flagged nowhere; neither is in any set.

Complete tables get extra unflagged rows so that the degree squares sum to an
order divisible by every header prime.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

PRIME_POOL = (2, 3, 5, 7, 11)
# Coprime to every prime in the pool, so these degrees decide no membership.
NEUTRAL = (1, 13, 17, 19, 23, 29, 31, 37)


@dataclass(frozen=True)
class PlantedTable:
    """One table file and the findings its audit must produce."""

    data: bytes
    expected: tuple[str, ...]  # "A 2 3 consistent", ... in audit order


def _neutral(rng: random.Random) -> int:
    return rng.choice(NEUTRAL) * rng.choice(NEUTRAL)


def _squares_summing_to(residue: int) -> list[int]:
    # Lagrange: every natural number is a sum of four squares.
    if residue == 0:
        return []
    for a in range(1, residue + 1):
        if a * a > residue:
            break
        rest = residue - a * a
        if rest == 0:
            return [a]
        for b in range(1, a + 1):
            if b * b > rest:
                break
            rest2 = rest - b * b
            if rest2 == 0:
                return [a, b]
            for c in range(1, b + 1):
                if c * c > rest2:
                    break
                d2 = rest2 - c * c
                if d2 == 0:
                    return [a, b, c]
                d = int(round(d2**0.5))
                if d * d == d2 and d <= c:
                    return [a, b, c, d]
    raise AssertionError(f"no four-square decomposition of {residue}")


def _verdict_a(hypothesis: bool, complete: bool, fact: bool | None) -> str:
    if not hypothesis:
        return "consistent"
    if not complete:
        return "indeterminate"
    if fact is None:
        return "hypothesis_holds"
    return "consistent" if fact else "violation"


def _verdict_b(equal: bool, complete: bool) -> str:
    if not equal:
        return "consistent"
    return "violation" if complete else "indeterminate"


def _verdict_c(cross: bool, complete: bool, fact: bool | None) -> str:
    if fact is None:
        return "indeterminate"
    if cross:
        return "violation" if fact else "consistent"
    if not complete:
        return "indeterminate"
    return "consistent" if fact else "violation"


def planted_table(rng: random.Random, index: int) -> PlantedTable:
    """One table with a random plan; the rng fixes everything but its size.

    The number of primes and of filler rows follow from ``index``, spread
    evenly over consecutive indices, so every seed's corpus has the same size
    profile and its slowest files cost the same.
    """
    primes = sorted(rng.sample(PRIME_POOL, 2 + index % 3))
    shuffled = primes[:]
    rng.shuffle(shuffled)
    classes: list[list[int]] = []
    for p in shuffled:
        if classes and rng.random() < 0.35:
            classes[-1].append(p)
        else:
            classes.append([p])
    class_of = {p: i for i, members in enumerate(classes) for p in members}
    complete = rng.random() < 0.5
    facts: dict[tuple[int, int], bool | None] = {}
    with_facts = rng.random() < 0.75
    for pair in combinations(primes, 2):
        facts[pair] = rng.choice((True, False, None)) if with_facts else None

    rows: list[tuple[int, frozenset[int]]] = []  # (degree, flagged primes)
    members: list[int] = [0] * len(classes)  # non-trivial set members per class
    lacking = rng.randrange(len(classes)) if rng.random() < 0.4 else None
    for i, cls in enumerate(classes):
        if i == lacking:
            continue
        for _ in range(rng.randint(1, 3)):
            rows.append((_neutral(rng), frozenset(cls)))
            members[i] += 1
    shared: set[tuple[int, int]] = set()
    for i, j in combinations(range(len(classes)), 2):
        if rng.random() < 0.35:
            shared.add((i, j))
            for _ in range(rng.randint(1, 2)):
                rows.append((_neutral(rng), frozenset(classes[i] + classes[j])))
                members[i] += 1
                members[j] += 1
    cross: set[tuple[int, int]] = set()  # (class, prime outside it)
    for i, cls in enumerate(classes):
        for q in primes:
            if q not in cls and rng.random() < 0.25:
                cross.add((i, q))
                rows.append((_neutral(rng) * q ** rng.randint(1, 2), frozenset(cls)))
                members[i] += 1
    for _ in range(rng.randint(0, 3 * len(primes))):
        flagged = frozenset(rng.sample(primes, rng.randint(1, len(primes))))
        degree = _neutral(rng)
        for p in flagged:
            degree *= p
        rows.append((degree, flagged))
    unflagged = frozenset()
    for _ in range(40 + index * 97 % 261):
        rows.append((rng.getrandbits(20) + 1, unflagged))

    modulus = 1
    for p in primes:
        modulus *= p
    if complete:
        square_sum = 1 + sum(d * d for d, _ in rows)
        for d in _squares_summing_to(-square_sum % modulus):
            rows.append((d, unflagged))
        order = 1 + sum(d * d for d, _ in rows)
    else:
        order = modulus * rng.randint(1, 10**9)

    expected = []
    pairs = list(combinations(primes, 2))
    for conjecture in "ABC":
        for p, q in pairs:
            same = class_of[p] == class_of[q]
            fact = facts[(p, q)]
            if conjecture == "A":
                if same:
                    hypothesis = members[class_of[p]] == 0
                else:
                    key = tuple(sorted((class_of[p], class_of[q])))
                    hypothesis = key not in shared
                verdict = _verdict_a(hypothesis, complete, fact)
            elif conjecture == "B":
                verdict = _verdict_b(same, complete)
            else:
                has_cross = (class_of[p], q) in cross or (class_of[q], p) in cross
                verdict = _verdict_c(has_cross, complete, fact)
            expected.append(f"{conjecture} {p} {q} {verdict}")

    header = [
        f"group synthetic{index}",
        f"order {order}",
        "primes " + " ".join(str(p) for p in primes),
        "trivial e",
        f"complete {'true' if complete else 'false'}",
    ]
    for (p, q), fact in facts.items():
        if fact is not None:
            a, b = (q, p) if rng.random() < 0.5 else (p, q)
            header.append(f"sylow_commute {a} {b} {'true' if fact else 'false'}")
    rng.shuffle(header)
    body = [(1, frozenset(primes))] + rows
    order_of_rows = list(range(len(body)))
    rng.shuffle(order_of_rows)
    lines = ["# synthetic table with planted audit verdicts"] + header
    flag_text: dict[frozenset[int], str] = {}
    for position in order_of_rows:
        degree, flagged = body[position]
        flags = flag_text.get(flagged)
        if flags is None:
            flags = flag_text[flagged] = " ".join(f"{p}:{int(p in flagged)}" for p in primes)
        lines.append(f"char {'e' if position == 0 else f'x{position}'} {degree} {flags}")
    return PlantedTable(("\n".join(lines) + "\n").encode("utf-8"), tuple(expected))


def planted_corpus(seed: int, count: int) -> list[PlantedTable]:
    """``count`` tables drawn from one generator seeded by ``seed``."""
    rng = random.Random(seed)
    return [planted_table(rng, index) for index in range(count)]
