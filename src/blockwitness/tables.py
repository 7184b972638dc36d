"""Character-table summary files: parsing, auditing, and export.

The file format is line oriented UTF-8; ``#`` starts a comment and tokens
are whitespace separated.  Header directives come first, in any order among
themselves, followed by one ``char`` row per character:

    group <name>
    order <decimal>
    primes <p1> <p2> ...
    trivial <id>
    complete <true|false>
    sylow_commute <p> <q> <true|false>     (zero or more)
    char <id> <degree> <p1>:<0|1> <p2>:<0|1> ...

Each row flags, for every header prime, whether the character lies in that
prime's principal block.  This is exactly the data the three audits consume:

    A  if the prime-to-p and prime-to-q principal sets meet only in the
       trivial character, a commuting Sylow pair must exist;
    B  the two sets must differ for p != q;
    C  absence of cross-divisible degrees in both sets must hold exactly
       when a commuting Sylow pair exists.

Whether some Sylow p- and q-subgroup commute elementwise is group-theoretic
input carried by ``sylow_commute`` lines, never computed here.  Verdicts on
tables marked incomplete are downgraded to ``indeterminate`` whenever the
missing rows could overturn them; facts witnessed by listed rows (a
non-trivial intersection, unequal sets, a cross-divisible degree) survive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .blocks import principal_block_contains
from .degrees import degree
from .parameters import NotPrime, PrimeExceedsN
from .factored import is_prime, parse_decimal
from .partitions import partitions_of

VERDICTS = ("consistent", "hypothesis_holds", "violation", "indeterminate")
CONJECTURES = ("A", "B", "C")


class ParseError(ValueError):
    """Malformed table file; carries the offending line number."""

    def __init__(self, line: int, message: str, token: str | None = None):
        self.line = line
        self.token = token
        detail = f"line {line}: {message}"
        if token is not None:
            detail += f" (token {token!r})"
        super().__init__(detail)


@dataclass(frozen=True)
class CharacterRow:
    """One character: id, degree, and per-prime principal-block flags."""

    id: str
    degree: int
    flags: tuple[bool, ...]


@dataclass(frozen=True)
class CharacterTableSummary:
    """Parsed table: enough data to evaluate the three audits."""

    group_name: str
    order: int
    primes: tuple[int, ...]
    trivial_id: str
    complete: bool
    sylow_commute: tuple[tuple[int, int, bool], ...]
    rows: tuple[CharacterRow, ...]

    def sylow_fact(self, p: int, q: int) -> bool | None:
        """The recorded commuting-Sylow fact for {p, q}, if any."""
        key = (min(p, q), max(p, q))
        for a, b, value in self.sylow_commute:
            if (a, b) == key:
                return value
        return None

    def principal_p_prime_ids(self, p: int) -> frozenset[str]:
        """Ids in the principal p-block with degree coprime to p."""
        column = self.primes.index(p)
        return frozenset(
            row.id
            for row in self.rows
            if row.flags[column] and row.degree % p != 0
        )


@dataclass(frozen=True)
class AuditFinding:
    """Verdict of one audit on one unordered prime pair."""

    conjecture: str
    p: int
    q: int
    verdict: str
    detail: str


_HEADER_DIRECTIVES = ("group", "order", "primes", "trivial", "complete")


def _parse_bool(line_no: int, token: str) -> bool:
    if token == "true":
        return True
    if token == "false":
        return False
    raise ParseError(line_no, "expected 'true' or 'false'", token)


def _parse_int(line_no: int, token: str, what: str) -> int:
    try:
        return parse_decimal(token)
    except ValueError:
        raise ParseError(line_no, f"malformed integer for {what}", token) from None


def parse_table(data: bytes | str) -> CharacterTableSummary:
    """Parse and fully validate a table file."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    header: dict[str, object] = {}
    header_lines: dict[str, int] = {}
    sylow_raw: list[tuple[int, list[str]]] = []
    rows: list[CharacterRow] = []
    seen_ids: set[str] = set()
    header_closed = False
    last_line = 0

    def close_header(line_no: int) -> None:
        nonlocal header_closed
        for directive in _HEADER_DIRECTIVES:
            if directive not in header:
                raise ParseError(line_no, f"missing '{directive}' directive in header")
        primes = header["primes"]
        order = header["order"]
        assert isinstance(primes, tuple) and isinstance(order, int)
        for p in primes:
            if order % p != 0:
                raise ParseError(
                    header_lines["primes"], f"prime {p} does not divide order {order}"
                )
        pairs_seen = set()
        facts = []
        for sline, tokens in sylow_raw:
            p = _parse_int(sline, tokens[0], "sylow prime")
            q = _parse_int(sline, tokens[1], "sylow prime")
            value = _parse_bool(sline, tokens[2])
            if p == q:
                raise ParseError(sline, "sylow_commute primes must be distinct")
            if p not in primes or q not in primes:
                raise ParseError(sline, f"sylow_commute prime pair ({p}, {q}) not in header primes")
            key = (min(p, q), max(p, q))
            if key in pairs_seen:
                raise ParseError(sline, f"duplicate sylow_commute pair {key}")
            pairs_seen.add(key)
            facts.append((key[0], key[1], value))
        header["sylow"] = tuple(sorted(facts))
        header_closed = True

    for line_no, raw in enumerate(text.splitlines(), start=1):
        last_line = line_no
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        directive = tokens[0]
        if directive == "char":
            if not header_closed:
                close_header(line_no)
            if len(tokens) < 3:
                raise ParseError(line_no, "char row needs an id and a degree")
            row_id = tokens[1]
            if row_id in seen_ids:
                raise ParseError(line_no, "duplicate character id", row_id)
            seen_ids.add(row_id)
            degree_value = _parse_int(line_no, tokens[2], "degree")
            if degree_value < 1:
                raise ParseError(line_no, f"degree must be positive, got {degree_value}")
            primes = header["primes"]
            assert isinstance(primes, tuple)
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
            rows.append(
                CharacterRow(row_id, degree_value, tuple(flag_map[p] for p in primes))
            )
            continue
        if header_closed:
            raise ParseError(line_no, f"directive '{directive}' after char rows")
        if directive == "sylow_commute":
            if len(tokens) != 4:
                raise ParseError(line_no, "sylow_commute needs <p> <q> <true|false>")
            sylow_raw.append((line_no, tokens[1:]))
            continue
        if directive not in _HEADER_DIRECTIVES:
            raise ParseError(line_no, "unknown directive", directive)
        if directive in header:
            raise ParseError(line_no, f"duplicate '{directive}' directive")
        header_lines[directive] = line_no
        if directive == "group":
            if len(tokens) != 2:
                raise ParseError(line_no, "group needs exactly one name token")
            header["group"] = tokens[1]
        elif directive == "order":
            if len(tokens) != 2:
                raise ParseError(line_no, "order needs exactly one integer")
            value = _parse_int(line_no, tokens[1], "order")
            if value < 1:
                raise ParseError(line_no, f"order must be positive, got {value}")
            header["order"] = value
        elif directive == "primes":
            primes = []
            for token in tokens[1:]:
                p = _parse_int(line_no, token, "prime")
                if not is_prime(p):
                    raise ParseError(line_no, f"{p} is not prime", token)
                if p in primes:
                    raise ParseError(line_no, f"duplicate prime {p}", token)
                primes.append(p)
            header["primes"] = tuple(primes)
        elif directive == "trivial":
            if len(tokens) != 2:
                raise ParseError(line_no, "trivial needs exactly one id token")
            header["trivial"] = tokens[1]
        elif directive == "complete":
            if len(tokens) != 2:
                raise ParseError(line_no, "complete needs true or false")
            header["complete"] = _parse_bool(line_no, tokens[1])

    if not header_closed:
        close_header(last_line + 1)
    if not rows:
        raise ParseError(last_line + 1, "table has no char rows")

    trivial_id = header["trivial"]
    assert isinstance(trivial_id, str)
    trivial_rows = [row for row in rows if row.id == trivial_id]
    if not trivial_rows:
        raise ParseError(last_line + 1, f"trivial id {trivial_id!r} has no char row")
    trivial_row = trivial_rows[0]
    if trivial_row.degree != 1:
        raise ParseError(last_line + 1, f"trivial character must have degree 1, got {trivial_row.degree}")
    if not all(trivial_row.flags):
        raise ParseError(last_line + 1, "trivial character must lie in every principal block")

    order = header["order"]
    complete = header["complete"]
    assert isinstance(order, int) and isinstance(complete, bool)
    if complete:
        square_sum = sum(row.degree**2 for row in rows)
        if square_sum != order:
            raise ParseError(
                header_lines["complete"],
                f"degree squares sum to {square_sum}, order is {order}",
            )

    return CharacterTableSummary(
        group_name=header["group"],  # type: ignore[arg-type]
        order=order,
        primes=header["primes"],  # type: ignore[arg-type]
        trivial_id=trivial_id,
        complete=complete,
        sylow_commute=header["sylow"],  # type: ignore[arg-type]
        rows=tuple(rows),
    )


def serialize_table(summary: CharacterTableSummary) -> bytes:
    """Render a summary in canonical directive order."""
    lines = [
        f"group {summary.group_name}",
        f"order {summary.order}",
        "primes" + "".join(f" {p}" for p in summary.primes),
        f"trivial {summary.trivial_id}",
        f"complete {'true' if summary.complete else 'false'}",
    ]
    for p, q, value in summary.sylow_commute:
        lines.append(f"sylow_commute {p} {q} {'true' if value else 'false'}")
    for row in summary.rows:
        flags = "".join(
            f" {p}:{1 if flag else 0}" for p, flag in zip(summary.primes, row.flags)
        )
        lines.append(f"char {row.id} {row.degree}{flags}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def build_sn_summary(n: int, primes: tuple[int, ...] | list[int]) -> CharacterTableSummary:
    """Summary of the symmetric group on n letters for the given primes.

    Rows are partition literals in enumeration order; flags come from the
    core criterion and degrees from hook lengths.  Distinct primes of the
    symmetric or alternating groups never commute Sylow-wise, so a false
    fact is recorded for every pair.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    primes = tuple(primes)
    for p in primes:
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if p > n:
            raise PrimeExceedsN(f"prime {p} exceeds n = {n}")
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    rows = []
    for lam in partitions_of(n):
        rows.append(
            CharacterRow(
                id=lam.to_literal(),
                degree=degree(lam).to_int(),
                flags=tuple(principal_block_contains(lam, p) for p in primes),
            )
        )
    facts = tuple(
        sorted(
            (min(p, q), max(p, q), False)
            for i, p in enumerate(primes)
            for q in primes[i + 1 :]
        )
    )
    return CharacterTableSummary(
        group_name=f"S{n}",
        order=math.factorial(n),
        primes=primes,
        trivial_id=f"[{n}]",
        complete=True,
        sylow_commute=facts,
        rows=tuple(rows),
    )


def export_sn_table(n: int, primes: tuple[int, ...] | list[int]) -> bytes:
    """Table file for the symmetric group on n letters."""
    return serialize_table(build_sn_summary(n, primes))


def _pairs(primes: tuple[int, ...]) -> list[tuple[int, int]]:
    ordered = sorted(primes)
    return [(p, q) for i, p in enumerate(ordered) for q in ordered[i + 1 :]]


def audit(summary: CharacterTableSummary, which: str) -> tuple[AuditFinding, ...]:
    """Evaluate one audit (A, B, or C) on every unordered prime pair."""
    conjecture = which.upper()
    if conjecture not in CONJECTURES:
        raise ValueError(f"audit must be one of {CONJECTURES}, got {which!r}")
    findings = []
    for p, q in _pairs(summary.primes):
        s_p = summary.principal_p_prime_ids(p)
        s_q = summary.principal_p_prime_ids(q)
        fact = summary.sylow_fact(p, q)
        if conjecture == "A":
            findings.append(_audit_a(summary, p, q, s_p, s_q, fact))
        elif conjecture == "B":
            findings.append(_audit_b(summary, p, q, s_p, s_q))
        else:
            findings.append(_audit_c(summary, p, q, s_p, s_q, fact))
    return tuple(findings)


def _audit_a(summary, p, q, s_p, s_q, fact) -> AuditFinding:
    intersection = s_p & s_q
    hypothesis = intersection == {summary.trivial_id}
    if not hypothesis:
        detail = f"intersection has {len(intersection)} ids; implication is vacuous"
        return AuditFinding("A", p, q, "consistent", detail)
    if not summary.complete:
        return AuditFinding(
            "A", p, q, "indeterminate", "trivial intersection on an incomplete table"
        )
    if fact is None:
        return AuditFinding(
            "A", p, q, "hypothesis_holds", "trivial intersection; no commuting-Sylow fact supplied"
        )
    if fact:
        return AuditFinding(
            "A", p, q, "consistent", "trivial intersection and a commuting Sylow pair"
        )
    return AuditFinding(
        "A", p, q, "violation", "trivial intersection but Sylow subgroups never commute"
    )


def _audit_b(summary, p, q, s_p, s_q) -> AuditFinding:
    if s_p != s_q:
        only_p = len(s_p - s_q)
        only_q = len(s_q - s_p)
        detail = f"sets differ ({only_p} ids only at {p}, {only_q} only at {q})"
        return AuditFinding("B", p, q, "consistent", detail)
    if not summary.complete:
        return AuditFinding(
            "B", p, q, "indeterminate", "sets agree on an incomplete table"
        )
    return AuditFinding(
        "B", p, q, "violation", f"prime-to-{p} and prime-to-{q} principal sets coincide"
    )


def _audit_c(summary, p, q, s_p, s_q, fact) -> AuditFinding:
    def _cross_witness() -> str | None:
        for row in summary.rows:
            if row.id in s_p and row.degree % q == 0:
                return row.id
            if row.id in s_q and row.degree % p == 0:
                return row.id
        return None

    witness_id = _cross_witness()
    condition = witness_id is None
    if fact is None:
        return AuditFinding(
            "C", p, q, "indeterminate", "no commuting-Sylow fact supplied"
        )
    if not condition:
        if fact:
            return AuditFinding(
                "C",
                p,
                q,
                "violation",
                f"cross-divisible degree at id {witness_id} despite a commuting Sylow pair",
            )
        return AuditFinding(
            "C", p, q, "consistent", f"cross-divisible degree at id {witness_id}; no commuting Sylow pair"
        )
    if not summary.complete:
        return AuditFinding(
            "C", p, q, "indeterminate", "no cross-divisible degree listed, but table is incomplete"
        )
    if fact:
        return AuditFinding(
            "C", p, q, "consistent", "no cross-divisible degrees and a commuting Sylow pair"
        )
    return AuditFinding(
        "C", p, q, "violation", "no cross-divisible degrees although Sylow subgroups never commute"
    )
