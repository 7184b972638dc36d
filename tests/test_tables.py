import math
import random
import time
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import _oracles as oracle
from blockwitness import tables
from blockwitness.factored import primes_up_to
from blockwitness.oracle import _prime_view, check_conjC
from blockwitness.tables import (
    CharacterRow,
    ParseError,
    audit,
    build_sn_summary,
    parse_table,
    serialize_table,
)

MINIMAL = """\
# a two-prime toy group
group toy
order 6
primes 2 3
trivial e
complete false
sylow_commute 2 3 false
char e 1 2:1 3:1
char r 2 2:0 3:1
"""


def test_parse_minimal():
    summary = parse_table(MINIMAL)
    assert summary.group_name == "toy"
    assert summary.order == 6
    assert summary.primes == (2, 3)
    assert summary.trivial_id == "e"
    assert summary.complete is False
    assert summary.sylow_fact(2, 3) is False
    assert summary.sylow_fact(3, 2) is False
    assert len(summary.rows) == 2
    assert summary.rows[1] == CharacterRow("r", 2, (False, True))


def test_row_record_is_immutable_and_hashable():
    row = parse_table(MINIMAL).rows[1]
    assert type(row) is CharacterRow
    assert (row.id, row.degree, row.flags) == ("r", 2, (False, True))
    for field in ("id", "degree", "flags"):
        with pytest.raises(AttributeError):
            setattr(row, field, None)
    assert row == CharacterRow("r", 2, (False, True))
    assert hash(row) == hash(CharacterRow("r", 2, (False, True)))
    assert len({row, CharacterRow("r", 2, (False, True))}) == 1


def test_parse_accepts_bytes_and_comments():
    summary = parse_table(MINIMAL.encode("utf-8"))
    assert summary.group_name == "toy"


def test_missing_order_is_end_of_header_error():
    text = "\n".join(
        line for line in MINIMAL.splitlines() if not line.startswith("order")
    )
    with pytest.raises(ParseError) as err:
        parse_table(text)
    assert "order" in str(err.value)


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        (lambda t: t.replace("char r", "char e"), "duplicate character id"),
        (lambda t: t.replace("2:0 3:1", "2:0"), "missing flags"),
        (lambda t: t.replace("2:0 3:1", "2:0 3:1 5:1"), "not in header primes"),
        (lambda t: t.replace("2:0 3:1", "2:0 3:x"), "flag value"),
        (lambda t: t.replace("char r 2", "char r two"), "malformed integer"),
        (lambda t: t.replace("order 6", "order 0_6"), "malformed integer for order"),
        (
            lambda t: t.replace("order 6", "order " + "6" * 5000),
            "line 3: order: integer of 5000 digits exceeds the 4300-digit limit",
        ),
        (lambda t: t.replace("char e 1 ", "char e +1 "), "malformed integer for degree"),
        (lambda t: t.replace("char r 2", "char r 0"), "line 9: degree must be positive, got 0"),
        (lambda t: t.replace("order 6", "order 0"), "line 3: order must be positive, got 0"),
        (
            lambda t: t.replace("char r 2", "char r " + "2" * 4301),
            "line 9: degree: integer of 4301 digits exceeds the 4300-digit limit",
        ),
        (lambda t: t.replace("char r 2", "char r ２"), "line 9: malformed integer"),
        (lambda t: t.replace("primes 2 3", "primes ２ 3"), "malformed integer for prime"),
        (lambda t: t.replace("2:0 3:1", "2:0 ３:1"), "malformed integer for flag prime"),
        (lambda t: t.replace("sylow_commute 2 3", "sylow_commute 2 +3"), "malformed integer for sylow prime"),
        (lambda t: t.replace("primes 2 3", "primes 2 3 2"), "duplicate prime"),
        (lambda t: t.replace("primes 2 3", "primes 2 4"), "not prime"),
        (lambda t: t.replace("order 6", "order 5"), "does not divide order"),
        (lambda t: t + "order 6\n", "after char rows"),
        (lambda t: t.replace("group toy", "group toy extra"), "exactly one name"),
        (lambda t: t.replace("sylow_commute 2 3 false", "sylow_commute 2 2 false"), "distinct"),
        (lambda t: t.replace("sylow_commute 2 3 false", "sylow_commute 2 5 false"), "not in header"),
        (
            lambda t: t.replace(
                "sylow_commute 2 3 false",
                "sylow_commute 2 3 false\nsylow_commute 3 2 true",
            ),
            "duplicate sylow_commute",
        ),
        (lambda t: t.replace("char e 1 2:1 3:1", "char e 2 2:1 3:1"), "degree 1"),
        (lambda t: t.replace("char e 1 2:1 3:1", "char e 1 2:1 3:0"), "every principal block"),
        (lambda t: t.replace("trivial e", "trivial ee"), "no char row"),
        (lambda t: t.replace("group", "grouppp"), "unknown directive"),
        (lambda t: t + "group toy2\n", "after char rows"),
        (lambda t: t + "char z # 1\n", "line 10: char row needs an id and a degree"),
        (lambda t: t.encode("utf-8").replace(b"toy\n", b"to\xff\n"), "line 2: invalid UTF-8"),
        (lambda t: t.encode("utf-8").replace(b"2:0 3:1", b"2:0 3:1\xc3"), "line 9: invalid UTF-8"),
        (
            lambda t: t.encode("utf-8").replace(b"toy\n", b"toy\r").replace(b"6", b"6\x80"),
            "line 3: invalid UTF-8",
        ),
        (
            lambda t: t.replace("primes 2 3", "primes 2 3 3317044064679887385961981"),
            "line 4: too large for an exact primality test",
        ),
        # a line break other than LF, CR LF or CR would turn comment text into a row
        (
            lambda t: t + "# dropped row\u2028char s 2 2:0 3:1\n",
            "line 10: line break U+2028 inside a line",
        ),
        (lambda t: t.replace("group toy", "group\x85toy"), "line 2: line break U+0085"),
        (
            lambda t: t.replace("toy\n", "toy\r\n").replace("char r 2", "char r\x0c2"),
            "line 9: line break U+000C",
        ),
    ],
)
def test_parse_rejections(mutation, fragment):
    with pytest.raises(ParseError) as err:
        parse_table(mutation(MINIMAL))
    assert fragment in str(err.value)


def test_large_header_prime_parses_quickly():
    prime = 2**61 - 1
    text = (
        MINIMAL.replace("order 6", f"order {6 * prime}")
        .replace("primes 2 3", f"primes 2 3 {prime}")
        .replace("2:1 3:1", f"2:1 3:1 {prime}:1")
        .replace("2:0 3:1", f"2:0 3:1 {prime}:0")
    )
    started = time.perf_counter()
    summary = parse_table(text)
    assert time.perf_counter() - started < 1.0
    assert summary.primes == (2, 3, prime)


@st.composite
def mutated_minimal(draw):
    data = bytearray(MINIMAL.encode("utf-8"))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        position = draw(st.integers(min_value=0, max_value=len(data) - 1))
        edit = draw(st.sampled_from(("insert", "delete", "replace")))
        byte = draw(st.integers(min_value=0, max_value=255))
        if edit == "insert":
            data.insert(position, byte)
        elif edit == "delete":
            del data[position]
        else:
            data[position] = byte
    return bytes(data)


@settings(max_examples=500, derandomize=True)
@given(st.one_of(st.binary(max_size=200), mutated_minimal()))
def test_parser_fuzz(data):
    # arbitrary bytes either parse or raise ParseError, and what parses
    # survives a serialize/parse round trip unchanged
    try:
        summary = parse_table(data)
    except ParseError:
        return
    assert parse_table(serialize_table(summary)) == summary


def parse_outcome(data, parse=parse_table):
    """The summary ``parse`` returns, or the line and text of its ParseError."""
    try:
        return parse(data)
    except ParseError as exc:
        return exc.line, str(exc)


def reference_outcome(data):
    return parse_outcome(data, oracle.reference_parse_table)


# each maps a well-formed flag token "<p>:<b>" to the tokens put in its place
TOKEN_EDITS = {
    "leading zero": lambda t: ["0" + t],  # valid, but not canonical
    "duplicate prime": lambda t: [t, t[:-1] + ("1" if t.endswith("0") else "0")],
    "repeated token": lambda t: [t, t],
    "missing prime": lambda t: [],
    "bad bit": lambda t: [t[:-1] + "x"],
    "long bit": lambda t: [t + "1"],
    "prime not in header": lambda t: ["11" + t[t.index(":"):]],
    "not a prime": lambda t: ["4" + t[t.index(":"):]],
    "no colon": lambda t: [t.replace(":", "")],
    "signed prime": lambda t: ["+" + t],
}


@st.composite
def flag_tail(draw, primes):
    """A row's flag tokens: every header prime once, in any order, up to two of them edited."""
    tokens = [f"{p}:{int(draw(st.booleans()))}" for p in primes]
    tokens = list(draw(st.permutations(tokens)))
    edited = draw(st.sets(st.sampled_from(range(len(tokens))), max_size=2))
    for i in sorted(edited, reverse=True):  # from the right, so each edit sees a plain token
        tokens[i:i + 1] = TOKEN_EDITS[draw(st.sampled_from(sorted(TOKEN_EDITS)))](tokens[i])
    return " ".join(tokens)


@st.composite
def repeating_table(draw):
    """A table whose rows draw their flag tails from a few, valid or corrupted."""
    primes = draw(st.permutations(sorted(draw(st.sets(st.sampled_from((2, 3, 5, 7)), min_size=1)))))
    pool = draw(st.lists(flag_tail(primes), min_size=1, max_size=5))
    good = " ".join(f"{p}:{int(draw(st.booleans()))}" for p in primes)
    lines = [
        "group g",
        f"order {math.prod(primes)}",
        "primes " + " ".join(map(str, primes)),
        "trivial e",
        "complete false",
        "char e 1 " + " ".join(f"{p}:1" for p in primes),
    ]
    # a run of good rows, so that a bad tail can come after many of them
    lines += [f"char g{i} 2 {good}" for i in range(draw(st.integers(min_value=0, max_value=300)))]
    picks = draw(st.lists(st.integers(min_value=0, max_value=len(pool) - 1), max_size=30))
    lines += [f"char r{i} {i + 1} {pool[k]}" for i, k in enumerate(picks)]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, derandomize=True)
@given(repeating_table())
def test_parse_matches_the_per_token_reference(text):
    assert parse_outcome(text) == reference_outcome(text)


def test_exports_parse_as_the_reference_does():
    for n in range(1, 23):
        summary = build_sn_summary(n, primes_up_to(n))
        data = serialize_table(summary)
        assert parse_outcome(data) == reference_outcome(data) == summary


# text a line edit may append or insert: tokens, whitespace, comments and directives
LINE_JUNK = (
    "2:1", "3:0", "5:1", "2:x", "x", "7", "char", "group", "#", "# note", "#2:1",
    " ", "\t", " \t ", "char z", "char z 1", "char z 1 2:1 3:1", "order 6",
    "sylow_commute 2 3 true",
)


def mutate_lines(rng, text):
    """One to three seeded line edits of ``text``, then its line ends switched."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        edit = rng.choice(("append", "append", "prepend", "insert", "delete", "swap"))
        if edit == "append":  # a token, whitespace or a comment after the line's text
            lines[i] += rng.choice(("", " ")) + rng.choice(LINE_JUNK)
        elif edit == "prepend":
            lines[i] = rng.choice((" ", "\t", "#")) + lines[i]
        elif edit == "insert":
            lines.insert(i, rng.choice(LINE_JUNK + (lines[rng.randrange(len(lines))],)))
        elif edit == "delete" and len(lines) > 1:
            del lines[i]
        elif edit == "swap":
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
    end = rng.choice(("\n", "\r\n", "\r"))
    return end.join(lines) + rng.choice((end, ""))


def test_line_edits_parse_as_the_reference_does():
    # edits at the header/row boundary and on row tails: the summary, or the
    # (line, message) of the error, is the per-token reference parser's
    rng = random.Random(20261019)
    texts = [MINIMAL] + [
        serialize_table(build_sn_summary(n, primes_up_to(n))).decode() for n in range(1, 15)
    ]
    outcomes = set()
    for case in range(2000):
        mutated = mutate_lines(rng, texts[case % len(texts)])
        outcome = parse_outcome(mutated)
        assert outcome == reference_outcome(mutated), mutated
        outcomes.add(type(outcome))
    assert outcomes == {tuple, tables.CharacterTableSummary}


def test_repeated_flag_tails():
    # rows with one tail share its checked flags; a valid tail spelled another
    # way is checked on its own and gives the same flags
    text = MINIMAL + "char s 2 2:0 3:1\nchar t 2 3:1 2:0\nchar u 2 02:0 3:1\n"
    rows = parse_table(text).rows
    assert rows[1].flags is rows[2].flags
    assert rows[3].flags == rows[4].flags == rows[1].flags == (False, True)
    # trailing whitespace or a comment after a tail leaves its flags as they are
    text = MINIMAL + "char s 2 2:0 3:1 \t\nchar t 2 2:0\t3:1# note\nchar u 2 2:0 3:1 #\n"
    rows = parse_table(text).rows
    assert rows[2].flags == rows[3].flags == rows[4].flags == rows[1].flags == (False, True)
    # a header directive after rows is reported at its own line, past blank and comment lines
    with pytest.raises(ParseError) as err:
        parse_table(MINIMAL + "\n# more\n  trivial r # again\nchar s 2 2:0 3:1\n")
    assert str(err.value) == "line 12: directive 'trivial' after char rows"
    # the duplicate check runs before the bit check, on a new tail as before
    with pytest.raises(ParseError) as err:
        parse_table(MINIMAL + "char x 5 2:1 2:x\n")
    assert str(err.value) == "line 10: duplicate flag for prime 2 (token '2:x')"
    # a bad tail on two rows is reported at the first of them
    with pytest.raises(ParseError) as err:
        parse_table(MINIMAL + "char x 5 2:1 3:x\nchar y 5 2:1 3:x\n")
    assert err.value.line == 10
    assert str(err.value) == "line 10: flag value must be 0 or 1 (token '3:x')"


def test_parse_error_carries_line_number():
    broken = MINIMAL.replace("char r 2", "char r two")
    with pytest.raises(ParseError) as err:
        parse_table(broken)
    assert err.value.line == 9
    assert "line 9" in str(err.value)


def test_completeness_check():
    text = MINIMAL.replace("complete false", "complete true")
    with pytest.raises(ParseError) as err:
        parse_table(text)
    assert "squares" in str(err.value)
    good = text + "char s 1 2:1 3:0\n"  # 1 + 4 + 1 = 6
    summary = parse_table(good)
    assert summary.complete and summary.order == 6


def test_export_s4():
    summary = build_sn_summary(4, (2, 3))
    degrees = sorted(row.degree for row in summary.rows)
    assert degrees == [1, 1, 2, 3, 3]
    assert sum(d * d for d in degrees) == 24 == summary.order
    assert summary.trivial_id == "[4]"
    assert summary.sylow_commute == {(2, 3): False}
    parsed = parse_table(serialize_table(build_sn_summary(4, (2, 3))))
    assert parsed == summary


def test_export_s1():
    summary = parse_table(serialize_table(build_sn_summary(1, ())))
    assert summary.order == 1
    assert summary.primes == ()
    assert summary.rows == (CharacterRow("[1]", 1, ()),)
    assert audit(summary, "a") == ()


def test_export_s9_row():
    summary = build_sn_summary(9, (2, 3))
    by_id = {row.id: row for row in summary.rows}
    row = by_id["[2,1,1,1,1,1,1,1]"]
    assert row.degree == 8
    assert row.flags[summary.primes.index(3)] is True


def test_export_validates_primes():
    with pytest.raises(ValueError, match=r"^prime 5 exceeds n = 4$"):
        build_sn_summary(4, (2, 5))
    with pytest.raises(ValueError, match=r"^4 is not prime$"):
        build_sn_summary(6, (2, 4))
    with pytest.raises(ValueError):
        build_sn_summary(6, (2, 2))


def test_round_trip_range():
    for n in range(1, 13):
        primes = tuple(p for p in (2, 3, 5) if p <= n)
        summary = build_sn_summary(n, primes)
        parsed = parse_table(serialize_table(summary))
        assert parsed == summary
        # built and parsed rows are the same record type and compare equal row by row
        assert parsed.rows == summary.rows, n
        assert {type(row) for row in parsed.rows + summary.rows} == {CharacterRow}, n


def test_built_rows_against_independent_oracles():
    # ids in the recursive oracle's order; each degree from its own hook
    # product, self-conjugate rows included; each flag from a bead-by-bead
    # residue tally of the row's beta-set against the principal core's at
    # the same length; equal flags are one tuple.  Unsorted and partial prime
    # lists check that a row's flags, and those it decides for its conjugate,
    # follow the header's primes and not their column positions
    for n in range(1, 21):
        shapes = list(oracle.enumerate_partitions(n))
        expected = [
            {
                p: oracle.residue_counts(oracle.beta_set(parts, len(parts)), p)
                == oracle.residue_counts(oracle.beta_set((n % p,) if n % p else (), len(parts)), p)
                for p in primes_up_to(n)
            }
            for parts in shapes
        ]
        for chosen in (primes_up_to(n), (7, 2, 5), (3,), ()):
            primes = tuple(p for p in chosen if p <= n)
            rows = build_sn_summary(n, primes).rows
            assert [row.id for row in rows] == ["[" + ",".join(map(str, s)) + "]" for s in shapes]
            shared = {}
            for row, parts, flags in zip(rows, shapes, expected):
                assert row.degree == oracle.hook_product_degree(parts), row.id
                assert row.flags == tuple(flags[p] for p in primes), (row.id, primes)
                assert shared.setdefault(row.flags, row.flags) is row.flags, row.id


def test_serialization_round_trips_byte_for_byte():
    for n in range(1, 23):
        data = serialize_table(build_sn_summary(n, primes_up_to(n)))
        assert serialize_table(parse_table(data)) == data, n
    # equal flags held in distinct tuples render as one flags tuple per row would
    first, second = tuple([False, True]), tuple([False, True])
    assert first == second and first is not second
    summary = parse_table(MINIMAL)
    rows = summary.rows + (
        CharacterRow("s", 2, first),
        CharacterRow("t", 3, second),
        CharacterRow("u", 4, (True, False)),
    )
    header = "group toy\norder 6\nprimes 2 3\ntrivial e\ncomplete false\nsylow_commute 2 3 false\n"
    per_row = "".join(
        f"char {row.id} {row.degree} 2:{int(row.flags[0])} 3:{int(row.flags[1])}\n"
        for row in rows
    )
    assert serialize_table(replace(summary, rows=rows)) == (header + per_row).encode()


def test_audit_s9_examples():
    summary = build_sn_summary(9, (2, 3))
    c_findings = audit(summary, "C")
    assert c_findings == audit(summary, "c")
    (finding,) = c_findings
    assert finding.verdict == "consistent"
    assert "cross-divisible" in finding.detail
    (finding_b,) = audit(summary, "B")
    assert finding_b.verdict == "consistent"


def test_audit_agrees_with_oracle():
    for n in (9, 10, 13):
        primes = tuple(p for p in (2, 3, 5) if p <= n)
        summary = build_sn_summary(n, primes)
        for finding in audit(summary, "C"):
            report = check_conjC(n, finding.p, finding.q, "sn")
            assert finding.verdict == "consistent"
            # exported fact is always false, so consistency means a witness exists
            assert report.condition_holds
        for finding in audit(summary, "B"):
            equal = _prime_view(n, finding.p) == _prime_view(n, finding.q)
            assert (finding.verdict == "violation") == equal


def test_audit_b_violation_fixture():
    text = """\
group fake
order 30
primes 2 3
trivial e
complete true
char e 1 2:1 3:1
char y 5 2:1 3:1
char z 2 2:0 3:0
"""
    summary = parse_table(text)
    (finding,) = audit(summary, "B")
    assert finding.verdict == "violation"
    (finding_a,) = audit(summary, "A")
    assert finding_a.verdict == "consistent"  # intersection larger than trivial


def test_audit_a_verdicts():
    base = """\
group g
order 30
primes 2 3
trivial e
complete true
{sylow}char e 1 2:1 3:1
char a 2 2:0 3:1
char b 3 2:1 3:0
char c 4 2:0 3:0
"""
    # trivial intersection, no fact -> hypothesis_holds
    summary = parse_table(base.format(sylow=""))
    (finding,) = audit(summary, "A")
    assert finding.verdict == "hypothesis_holds"
    # trivial intersection, commuting fact -> consistent
    summary = parse_table(base.format(sylow="sylow_commute 2 3 true\n"))
    (finding,) = audit(summary, "A")
    assert finding.verdict == "consistent"
    # trivial intersection, non-commuting fact -> violation
    summary = parse_table(base.format(sylow="sylow_commute 2 3 false\n"))
    (finding,) = audit(summary, "A")
    assert finding.verdict == "violation"


def test_audit_c_verdicts():
    base = """\
group g
order 30
primes 2 3
trivial e
complete {complete}
{sylow}char e 1 2:1 3:1
char a 2 2:0 3:1
char b 5 2:1 3:1
"""
    # degree 2 in the 3-set is a cross-divisible witness; fact true -> violation
    summary = parse_table(base.format(complete="true", sylow="sylow_commute 2 3 true\n"))
    (finding,) = audit(summary, "C")
    assert finding.verdict == "violation"
    # same data, fact false -> consistent
    summary = parse_table(base.format(complete="true", sylow="sylow_commute 2 3 false\n"))
    (finding,) = audit(summary, "C")
    assert finding.verdict == "consistent"
    # no fact -> indeterminate
    summary = parse_table(base.format(complete="true", sylow=""))
    (finding,) = audit(summary, "C")
    assert finding.verdict == "indeterminate"
    # the complete table of C_6, all degrees 1, has no cross-divisible degree
    abelian = """\
group C6
order 6
primes 2 3
trivial e
complete true
sylow_commute 2 3 {fact}
char e 1 2:1 3:1
char a 1 2:1 3:0
char b 1 2:0 3:1
char c 1 2:0 3:1
char d 1 2:0 3:0
char f 1 2:0 3:0
"""
    summary = parse_table(abelian.format(fact="true"))
    (finding,) = audit(summary, "C")
    assert finding.verdict == "consistent"
    assert finding.detail == "no cross-divisible degrees and a commuting Sylow pair"
    summary = parse_table(abelian.format(fact="false"))
    (finding,) = audit(summary, "C")
    assert finding.verdict == "violation"
    assert finding.detail == "no cross-divisible degrees although Sylow subgroups never commute"


def test_audit_incomplete_downgrades():
    # trivial intersection / no cross-divisible degree cannot be trusted on a
    # partial listing, but distinct sets can
    text = """\
group g
order 720
primes 2 3
trivial e
complete false
sylow_commute 2 3 true
char e 1 2:1 3:1
char a 5 2:1 3:0
"""
    summary = parse_table(text)
    (finding_a,) = audit(summary, "A")
    assert finding_a.verdict == "indeterminate"
    (finding_b,) = audit(summary, "B")
    assert finding_b.verdict == "consistent"
    (finding_c,) = audit(summary, "C")
    assert finding_c.verdict == "indeterminate"

    # equal sets on a partial listing stay undecided; a non-trivial
    # intersection is already definitive
    equal_sets = text.replace("char a 5 2:1 3:0", "char a 5 2:1 3:1")
    summary = parse_table(equal_sets)
    (finding_a,) = audit(summary, "A")
    assert finding_a.verdict == "consistent"
    (finding_b,) = audit(summary, "B")
    assert finding_b.verdict == "indeterminate"
    # a listed cross-divisible degree is definitive even when incomplete
    cross = text.replace("char a 5 2:1 3:0", "char a 3 2:1 3:0")
    summary = parse_table(cross)
    (finding_c,) = audit(summary, "C")
    assert finding_c.verdict == "violation"


def test_id_sets_are_built_once_and_never_stale():
    summary = parse_table(MINIMAL)
    seen = []

    def record(summary, p, q, s_p, s_q):
        seen.append((s_p, s_q))
        return "consistent", ""

    with mock.patch.dict(tables._AUDITS, {"A": record, "B": record}):
        audit(summary, "A")
        audit(summary, "B")
    (first_p, first_q), (second_p, second_q) = seen
    assert first_p is second_p and first_q is second_q
    assert summary.principal_p_prime_ids == {2: {"e"}, 3: {"e", "r"}}
    (finding,) = audit(summary, "B")
    assert finding.verdict == "consistent"
    # a summary with other rows builds its own sets: here they agree, which an
    # incomplete table cannot settle
    rows = (CharacterRow("e", 1, (True, True)), CharacterRow("r", 2, (False, False)))
    replaced = replace(summary, rows=rows)
    assert replaced.principal_p_prime_ids == {2: {"e"}, 3: {"e"}}
    (finding,) = audit(replaced, "B")
    assert finding.verdict == "indeterminate"
    assert summary.principal_p_prime_ids[3] == {"e", "r"}


def test_sylow_facts_are_read_per_summary():
    summary = parse_table(MINIMAL)
    assert summary.sylow_fact(2, 3) is summary.sylow_fact(3, 2) is False
    assert summary.sylow_fact(2, 5) is None
    # a replaced summary reads its own facts
    (finding,) = audit(replace(summary, sylow_commute={}), "C")
    assert finding.verdict == "indeterminate"


def test_audit_rejects_unknown():
    summary = parse_table(MINIMAL)
    with pytest.raises(ValueError):
        audit(summary, "d")


def test_mutated_degree_fails_completeness():
    data = serialize_table(build_sn_summary(6, (2, 3))).decode("utf-8")
    target = None
    for line in data.splitlines():
        if line.startswith("char [5,1]"):
            target = line
    assert target is not None
    degree_token = target.split()[2]
    mutated = data.replace(target, target.replace(f" {degree_token} ", f" {int(degree_token) + 1} ", 1))
    with pytest.raises(ParseError):
        parse_table(mutated)


def test_order_matches_factorial():
    for n in (1, 4, 7):
        assert parse_table(serialize_table(build_sn_summary(n, ()))).order == math.factorial(n)
