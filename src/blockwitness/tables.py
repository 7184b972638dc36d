"""Character-table summary files: parsing, auditing, and export.

The file format is line oriented UTF-8, with lines ended by LF, CR LF or CR
only (other Unicode line breaks are rejected); ``#`` starts a comment and
tokens are whitespace separated.  Header directives come first, in any order
among themselves, followed by one ``char`` row per character:

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
Rows are :class:`CharacterRow` named tuples: immutable, hashable, positional.
The header is read up to the first ``char`` line and checked once there; the
rows that follow are split at most four ways, and each distinct flag tail (a
row's text after its degree) is checked once per table, at most one
remembered entry per row.  Writing mirrors that: :func:`table_lines` renders
each distinct flags tuple once per call, line by line, so an export is
written as it is rendered.  The symmetric-group export computes one degree
and one set of flags per conjugate pair, one runner-step pass per prime
deciding both shapes against principal cores built once per length (see
:mod:`blockwitness.blocks`); the partner's are kept under the runs of the
partner still to come (at most one entry per row, dropped on return), and
rows with equal flags share one tuple, as parsed rows with one flag tail
do.  A summary's Sylow facts are one read-only mapping from (p, q),
p < q, to the fact; its per-prime id sets are a cached property, built
once on first use and never carried over by ``dataclasses.replace``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from types import MappingProxyType
from typing import Iterator, NamedTuple

from .blocks import principal_flag_pairs
from .degrees import degree
from .factored import DigitLimitExceeded, is_prime, parse_decimal
from .parameters import check_primes
from .partitions import conjugate_runs, partitions_of


class ParseError(ValueError):
    """Malformed table file; carries the offending line number."""

    def __init__(self, line: int, message: str, token: str | None = None):
        self.line = line
        detail = f"line {line}: {message}"
        if token is not None:
            detail += f" (token {token!r})"
        super().__init__(detail)


class CharacterRow(NamedTuple):
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
    sylow_commute: MappingProxyType[tuple[int, int], bool]  # (p, q), p < q -> fact
    rows: tuple[CharacterRow, ...]

    def sylow_fact(self, p: int, q: int) -> bool | None:
        """The recorded commuting-Sylow fact for {p, q}, if any."""
        return self.sylow_commute.get((min(p, q), max(p, q)))

    @cached_property
    def principal_p_prime_ids(self) -> MappingProxyType[int, frozenset[str]]:
        """Each prime's ids in its principal block with degree coprime to it."""
        return MappingProxyType({
            p: frozenset(row.id for row in self.rows if row.flags[column] and row.degree % p)
            for column, p in enumerate(self.primes)
        })


@dataclass(frozen=True)
class AuditFinding:
    """Verdict of one audit on one unordered prime pair."""

    conjecture: str
    p: int
    q: int
    verdict: str
    detail: str


_HEADER_DIRECTIVES = ("group", "order", "primes", "trivial", "complete")
_RawSylow = list[tuple[int, list[str]]]  # (line, tokens after the directive)

# the header directives that take exactly one token, with their arity error
_SINGLE_TOKEN = {
    "group": "group needs exactly one name token",
    "order": "order needs exactly one integer",
    "trivial": "trivial needs exactly one id token",
    "complete": "complete needs true or false",
}


def _parse_bool(line_no: int, token: str) -> bool:
    if token not in ("true", "false"):
        raise ParseError(line_no, "expected 'true' or 'false'", token)
    return token == "true"


def _parse_int(line_no: int, token: str, what: str) -> int:
    try:
        return parse_decimal(token)
    except DigitLimitExceeded as exc:
        raise ParseError(line_no, f"{what}: {exc}") from None
    except ValueError:
        raise ParseError(line_no, f"malformed integer for {what}", token) from None


def _close_header(
    line_no: int, lines: dict[str, int], order: int, primes: tuple[int, ...], sylow_raw: _RawSylow
) -> MappingProxyType[tuple[int, int], bool]:
    """Check the finished header; return its sylow_commute facts."""
    for directive in _HEADER_DIRECTIVES:
        if directive not in lines:
            raise ParseError(line_no, f"missing '{directive}' directive in header")
    for p in primes:
        if order % p != 0:
            raise ParseError(lines["primes"], f"prime {p} does not divide order {order}")
    facts: dict[tuple[int, int], bool] = {}
    for sline, tokens in sylow_raw:
        p = _parse_int(sline, tokens[0], "sylow prime")
        q = _parse_int(sline, tokens[1], "sylow prime")
        value = _parse_bool(sline, tokens[2])
        if p == q:
            raise ParseError(sline, "sylow_commute primes must be distinct")
        if p not in primes or q not in primes:
            raise ParseError(sline, f"sylow_commute prime pair ({p}, {q}) not in header primes")
        key = (min(p, q), max(p, q))
        if key in facts:
            raise ParseError(sline, f"duplicate sylow_commute pair {key}")
        facts[key] = value
    return MappingProxyType(facts)


def _tail_flags(line_no: int, tail: str, primes: tuple[int, ...]) -> tuple[bool, ...]:
    """Check a row's text after its degree token by token; return its flags."""
    flag_map: dict[int, bool] = {}
    for token in tail.split():
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
    return tuple(flag_map[p] for p in primes)


def _parse_rows(
    text_lines: list[str], first: int, primes: tuple[int, ...]
) -> dict[str, CharacterRow]:
    """Parse the lines from number ``first`` on, all ``char`` rows, keyed by id.

    Each line is split at most four ways, so a row's text after its degree
    stays one string; only a text not seen before is checked token by token.
    """
    rows: dict[str, CharacterRow] = {}
    checked: dict[str, tuple[bool, ...]] = {}  # tail text -> its flags, at most one per row
    for line_no, raw in enumerate(text_lines[first - 1:], start=first):
        if "#" in raw:
            raw = raw.partition("#")[0]
        tokens = raw.split(None, 3)
        if not tokens:
            continue
        if tokens[0] != "char":
            raise ParseError(line_no, f"directive '{tokens[0]}' after char rows")
        if len(tokens) < 3:
            raise ParseError(line_no, "char row needs an id and a degree")
        row_id = tokens[1]
        if row_id in rows:
            raise ParseError(line_no, "duplicate character id", row_id)
        try:  # _parse_int's two messages, without a call per row
            degree_value = parse_decimal(tokens[2])
        except DigitLimitExceeded as exc:
            raise ParseError(line_no, f"degree: {exc}") from None
        except ValueError:
            raise ParseError(line_no, "malformed integer for degree", tokens[2]) from None
        if degree_value < 1:
            raise ParseError(line_no, f"degree must be positive, got {degree_value}")
        tail = tokens[3] if len(tokens) == 4 else ""
        flags = checked.get(tail)
        if flags is None:
            flags = checked[tail] = _tail_flags(line_no, tail, primes)
        # what CharacterRow(row_id, degree_value, flags) does, without its extra call
        rows[row_id] = tuple.__new__(CharacterRow, (row_id, degree_value, flags))
    return rows


def _line_of(prefix: str) -> int:
    # number of the line that continues ``prefix``, counting \n, \r\n and \r
    return prefix.count("\n") + prefix.count("\r") - prefix.count("\r\n") + 1


def parse_table(data: bytes | str) -> CharacterTableSummary:
    """Parse and fully validate a table file; bytes must be UTF-8."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        line_no = _line_of(exc.object[: exc.start].decode("utf-8"))
        raise ParseError(line_no, f"invalid UTF-8 byte 0x{exc.object[exc.start]:02x}") from None
    # the line breaks of splitlines() below other than \n, \r\n and \r
    found = [i for i in map(text.find, "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029") if i >= 0]
    if found:
        stray = min(found)
        raise ParseError(_line_of(text[:stray]), f"line break U+{ord(text[stray]):04X} inside a line")
    group = trivial = ""
    order = 0
    primes: tuple[int, ...] = ()
    complete = False
    lines: dict[str, int] = {}
    sylow_raw: _RawSylow = []
    text_lines = text.splitlines()
    end = len(text_lines) + 1

    for line_no, raw in enumerate(text_lines, start=1):
        tokens = raw.partition("#")[0].split()
        if not tokens:
            continue
        directive = tokens[0]
        if directive == "char":  # the header ends at the first row
            break
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
                except ValueError:  # beyond the range the test is exact in
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
    else:
        line_no = end  # no row: the header runs to the end

    sylow = _close_header(line_no, lines, order, primes, sylow_raw)
    rows = _parse_rows(text_lines, line_no, primes)
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


def table_lines(summary: CharacterTableSummary) -> Iterator[str]:
    """Render a summary line by line, each ending in LF, in canonical directive order."""
    yield f"group {summary.group_name}\n"
    yield f"order {summary.order}\n"
    yield "primes" + "".join(f" {p}" for p in summary.primes) + "\n"
    yield f"trivial {summary.trivial_id}\n"
    yield f"complete {'true' if summary.complete else 'false'}\n"
    for (p, q), value in sorted(summary.sylow_commute.items()):
        yield f"sylow_commute {p} {q} {'true' if value else 'false'}\n"
    tails: dict[tuple[bool, ...], str] = {}  # flags -> rendered tail, one per distinct flags
    for row in summary.rows:
        tail = tails.get(row.flags)
        if tail is None:
            tail = tails[row.flags] = "".join(
                f" {p}:{1 if flag else 0}" for p, flag in zip(summary.primes, row.flags)
            ) + "\n"
        yield f"char {row.id} {row.degree}{tail}"


def serialize_table(summary: CharacterTableSummary) -> bytes:
    """The lines of :func:`table_lines`, as one UTF-8 file."""
    return "".join(table_lines(summary)).encode("utf-8")


def build_sn_summary(n: int, primes: tuple[int, ...] | list[int]) -> CharacterTableSummary:
    """Summary of the symmetric group on n letters for the given primes.

    Rows are partition literals in enumeration order; flags come from the
    core criterion and degrees from hook lengths, both once per conjugate
    pair: a conjugate's hook multiset is the transpose, and the first shape
    of a pair decides its partner's flags from its own runner steps
    (:func:`blockwitness.blocks.principal_flag_pairs`, cores held for this
    call only).  A false Sylow fact is recorded for every pair of primes,
    since no Sylow p- and q-subgroups of S_n, or of A_n, commute elementwise.

    Proof.  One of the primes, say p, is odd, so a Sylow p-subgroup P of S_n
    lies in A_n and is Sylow there too; it is enough that no Sylow
    q-subgroup lies in its centralizer C.  With n = sum a_k p^k in base p,
    nu_p(n!) = sum a_k nu_p(p^k!), so P is a product of Sylow subgroups of
    the symmetric groups on a_k orbits of size p^k, fixing a_0 = n mod p
    points.  An element c of
    C maps P-orbits to P-orbits and fixes each orbit O of size > 1, as some x
    in P moves O alone while c x c^-1 = x; on O it centralizes a transitive
    group, whose centralizer is semiregular, of order dividing p^k.  So C is
    a p-group times Sym(a_0), and nu_q|C| = nu_q(a_0!) < nu_q(n!), as (a_0, n]
    holds a multiple of q: p (n // p) >= p > q integers when q < p, and q
    itself when q > p.  In A_n nothing changes for q odd.  For q = 2 and
    a_0 >= 2, C meets A_n with index 2 and both sides lose one 2; for
    a_0 <= 1, C has odd order.
    """
    primes = tuple(primes)
    check_primes(n, primes)
    decide = principal_flag_pairs(n, primes)
    rows = []
    # conjugate's runs -> its degree and flags
    awaited: dict[tuple[tuple[int, int], ...], tuple[int, tuple[bool, ...]]] = {}
    shared: dict[tuple[bool, ...], tuple[bool, ...]] = {}
    for lam in partitions_of(n):
        runs = lam.runs
        known = awaited.pop(runs, None)
        if known is None:
            value = degree(runs).to_int()
            flags, partner = decide(lam)
            conjugate = conjugate_runs(runs)
            if conjugate != runs:
                awaited[conjugate] = value, shared.setdefault(partner, partner)
        else:
            value, flags = known
        rows.append(CharacterRow(lam.to_literal(), value, shared.setdefault(flags, flags)))
    facts = MappingProxyType(dict.fromkeys(combinations(sorted(primes), 2), False))
    return CharacterTableSummary(
        group_name=f"S{n}", order=math.factorial(n), primes=primes, trivial_id=f"[{n}]",
        complete=True, sylow_commute=facts, rows=tuple(rows),
    )


def audit(summary: CharacterTableSummary, which: str) -> tuple[AuditFinding, ...]:
    """Evaluate one audit (A, B, or C) on every unordered prime pair."""
    conjecture = which.upper()
    if conjecture not in _AUDITS:
        raise ValueError(f"audit must be one of {tuple(_AUDITS)}, got {which!r}")
    sets = summary.principal_p_prime_ids
    findings = []
    for p, q in combinations(sorted(summary.primes), 2):
        verdict, detail = _AUDITS[conjecture](summary, p, q, sets[p], sets[q])
        findings.append(AuditFinding(conjecture, p, q, verdict, detail))
    return tuple(findings)


# Each audit maps (summary, p, q, prime-to-p set, prime-to-q set) to the
# (verdict, detail) pair of the unordered prime pair {p, q}.
def _audit_a(summary, p, q, s_p, s_q) -> tuple[str, str]:
    intersection = s_p & s_q
    if intersection != {summary.trivial_id}:
        return "consistent", f"intersection has {len(intersection)} ids; implication is vacuous"
    if not summary.complete:
        return "indeterminate", "trivial intersection on an incomplete table"
    fact = summary.sylow_fact(p, q)
    if fact is None:
        return "hypothesis_holds", "trivial intersection; no commuting-Sylow fact supplied"
    if fact:
        return "consistent", "trivial intersection and a commuting Sylow pair"
    return "violation", "trivial intersection but Sylow subgroups never commute"


def _audit_b(summary, p, q, s_p, s_q) -> tuple[str, str]:
    if s_p != s_q:
        only_p = len(s_p - s_q)
        only_q = len(s_q - s_p)
        return "consistent", f"sets differ ({only_p} ids only at {p}, {only_q} only at {q})"
    if not summary.complete:
        return "indeterminate", "sets agree on an incomplete table"
    return "violation", f"prime-to-{p} and prime-to-{q} principal sets coincide"


def _audit_c(summary, p, q, s_p, s_q) -> tuple[str, str]:
    fact = summary.sylow_fact(p, q)
    if fact is None:
        return "indeterminate", "no commuting-Sylow fact supplied"
    for row in summary.rows:
        if (row.id in s_p and row.degree % q == 0) or (row.id in s_q and row.degree % p == 0):
            witness = f"cross-divisible degree at id {row.id}"
            if fact:
                return "violation", f"{witness} despite a commuting Sylow pair"
            return "consistent", f"{witness}; no commuting Sylow pair"
    if not summary.complete:
        return "indeterminate", "no cross-divisible degree listed, but table is incomplete"
    if fact:
        return "consistent", "no cross-divisible degrees and a commuting Sylow pair"
    return "violation", "no cross-divisible degrees although Sylow subgroups never commute"


_AUDITS = {"A": _audit_a, "B": _audit_b, "C": _audit_c}
