import random
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

import _oracles as oracle
from _all_partitions import conjugate, p_quotient, partitions_of, weight
from blockwitness.factored import DigitLimitExceeded, primes_up_to
from blockwitness.oracle import _hook_lifts, _one_hook_lifts, principal_p_prime_partitions
from blockwitness.partitions import (
    AscendingSpec,
    NonMonotoneSpec,
    Partition,
    conjugate_runs,
    from_parts,
    parse_partition_text,
    partition_runs,
    runner_counts,
    runner_steps,
    runs_literal,
)


def P(*parts):
    return from_parts(parts)


partitions_strategy = st.lists(
    st.integers(min_value=1, max_value=12), min_size=0, max_size=12
).map(lambda xs: from_parts(sorted(xs, reverse=True)))


def test_partition_validation():
    # outside parts enter through the parser; the constructor takes its runs as given
    for text, size in (("[1,2]", 3), ("[3,0]", 3), ("[2,,1]", 3)):
        with pytest.raises(ValueError):
            parse_partition_text(text, size)
    with pytest.raises(ValueError, match=r"weakly decreasing: '\[1,2\]'"):
        parse_partition_text("[1,2]", 3)
    assert P().size == P().length == 0
    assert (P(3, 1).size, P(3, 1).length) == (4, 2)
    assert P(2, 2, 1) == Partition(((2, 2), (1, 1)))
    # runs that are not canonical expand to canonical parts, yet name another
    # value, so only canonical runs may be built
    assert Partition(((2, 1), (2, 1))).parts == (2, 2) and Partition(((2, 1), (2, 1))) != P(2, 2)
    assert not oracle.is_canonical_runs(((2, 1), (2, 1)), 4)
    for bad in (((1, 0),), ((0, 1),), ((1, 2), (2, 1)), [(2, 1)], ((2, True),), ((3, 1),)):
        assert not oracle.is_canonical_runs(bad, 2), bad


def test_partitions_of_examples():
    assert [lam.parts for lam in partitions_of(0)] == [()]
    assert list(partition_runs(0)) == [()]
    four = [lam.parts for lam in partitions_of(4)]
    assert four == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(four) == 5
    count_30 = sum(1 for _ in partitions_of(30))
    assert count_30 == oracle.partition_count_oracle(30) == 5604
    for enumerate_n in (partitions_of, partition_runs):
        with pytest.raises(ValueError, match="cannot partition -1"):
            next(enumerate_n(-1))
    # the partitions are the runs the one enumeration yields, in its order
    for n in range(0, 31):
        assert list(partition_runs(n)) == [lam.runs for lam in partitions_of(n)]


def test_partitions_of_order_and_counts():
    # in order against the recursive oracle, each made of canonical runs; the
    # partitions of one n sort by runs as they sort by parts
    for n in range(0, 26):
        made = list(partitions_of(n))
        seen = [lam.parts for lam in made]
        assert seen == list(oracle.enumerate_partitions(n))
        assert list(partition_runs(n)) == [from_parts(parts).runs for parts in seen]
        assert seen == sorted(seen, reverse=True)
        assert len(seen) == len(set(seen)) == oracle.partition_count_oracle(n)
        for lam in made:
            assert oracle.is_canonical_runs(lam.runs, n), lam
            assert lam == from_parts(lam.parts)
        shuffled = random.Random(n).sample(made, len(made))
        by_runs = sorted(shuffled, key=lambda lam: lam.runs)
        assert by_runs == sorted(shuffled, key=lambda lam: lam.parts)


def test_generator_count_spot_60():
    assert sum(1 for _ in partitions_of(60)) == oracle.partition_count_oracle(60)


def test_from_ascending_spec_examples():
    assert AscendingSpec(((1, 7), (2, 1))).to_partition().parts == (
        2, 1, 1, 1, 1, 1, 1, 1,
    )
    assert AscendingSpec(((1, 2), (3, 1), (4, 1))).to_partition().parts == (4, 3, 1, 1)
    assert AscendingSpec(((1, 0), (5, 1))).to_partition().parts == (5,)
    # built without a check from the spec's runs, so they must already be canonical
    for blocks in (((1, 0), (2, 3)), ((1, 3), (1, 2), (4, 2)), ((2, 1), (2, 1), (7, 3))):
        spec = AscendingSpec(blocks)
        lam = spec.to_partition()
        total = sum(v * m for v, m in blocks)
        assert oracle.is_canonical_runs(lam.runs, total)
        assert oracle.is_canonical_partition(lam.parts, total)
        assert lam == from_parts(lam.parts)


def test_ascending_spec_rejections():
    with pytest.raises(NonMonotoneSpec):
        AscendingSpec(((3, 1), (2, 1)))  # decreasing values
    with pytest.raises(NonMonotoneSpec):
        AscendingSpec(((1, 2), (3, 0)))  # zero multiplicity not leading
    with pytest.raises(NonMonotoneSpec):
        AscendingSpec(((2, 0), (3, 1)))  # zero multiplicity on non-1 block
    with pytest.raises(NonMonotoneSpec):
        AscendingSpec(((0, 1),))
    with pytest.raises(NonMonotoneSpec):
        AscendingSpec(())
    for bad in ((("２", "+3"),), ((1, True),), ((2.0, 1),)):
        with pytest.raises(TypeError):
            AscendingSpec(bad)


def test_ascending_spec_parse_and_str():
    spec = AscendingSpec(((1, 7), (2, 1)))
    assert str(spec) == "(1^7,2)"
    assert spec.to_partition().size == 9
    assert parse_partition_text("(1^7,2)", 9) == spec.to_partition() == P(2, 1, 1, 1, 1, 1, 1, 1)
    assert parse_partition_text("(5)", 5) == P(5)
    assert parse_partition_text("(1^0,5)", 5) == P(5)


def test_conjugate_examples():
    assert conjugate(P(3, 1)).parts == (2, 1, 1)
    assert conjugate(P(2, 2)).parts == (2, 2)
    assert conjugate(P()).parts == ()


def test_self_conjugate_examples():
    assert P(2, 2).is_self_conjugate()
    assert not P(2, 1, 1, 1, 1, 1, 1, 1).is_self_conjugate()
    assert P(2, 1).is_self_conjugate()


@settings(max_examples=300, derandomize=True)
@given(partitions_strategy)
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert conjugate(lam).parts == oracle.conjugate(lam.parts)


def test_conjugate_involution_exhaustive():
    for n in range(0, 21):
        for lam in partitions_of(n):
            assert conjugate(conjugate(lam)) == lam
            assert conjugate(lam).parts == oracle.conjugate(lam.parts)
            assert lam.is_self_conjugate() == (lam.parts == oracle.conjugate(lam.parts))
    hook = ((3, 1), (1, 987))
    assert conjugate_runs(hook) == from_parts(oracle.conjugate(Partition(hook).parts)).runs


@settings(max_examples=300, derandomize=True)
@given(partitions_strategy)
def test_hook_multiset_conjugation_invariant(lam):
    # the e-weights, hooks divisible by e for every e >= 1, fix the hook
    # multiset (Moebius inversion over multiples)
    conj = conjugate(lam)
    assert conj.parts == oracle.conjugate(lam.parts)
    for e in range(1, lam.size + 1):
        assert weight(lam, e) == weight(conj, e)


def test_internal_partitions_are_canonical():
    # the constructor checks nothing, so every generator's output is checked here
    for n in range(0, 21):
        for lam in partitions_of(n):
            assert oracle.is_canonical_runs(lam.runs, n), lam
            assert oracle.is_canonical_partition(lam.parts, n), lam
    for n in range(1, 41):
        for p in primes_up_to(n):
            for lam in principal_p_prime_partitions(n, p):
                assert oracle.is_canonical_runs(lam.runs, n), (n, p, lam)
                assert oracle.is_canonical_partition(lam.parts, n), (n, p, lam)
    # the closed-form weight-1 lift, at every core (b) of every p < 40
    for p in primes_up_to(40):
        for b in range(p):
            for lam in _one_hook_lifts(b, p):
                assert oracle.is_canonical_runs(lam.runs, b + p), (b, p, lam)
    # the hook kernel, on every partition of n <= 12, core or not
    for n in range(13):
        for lam in partitions_of(n):
            for e in (2, 3, 4, 6, 9):
                for lift, _ in _hook_lifts(lam, e, 0):
                    assert oracle.is_canonical_runs(lift.runs, n + e), (lam, e, lift)
                    assert oracle.is_canonical_partition(lift.parts, n + e), (lam, e, lift)


def _built_partitions():
    # every producer's output at small n
    for n in range(13):
        for lam in partitions_of(n):
            yield lam
            yield from_parts(lam.parts)
            yield parse_partition_text(lam.to_literal(), n)
            if lam.runs:
                spec = AscendingSpec(tuple(reversed(lam.runs)))
                yield spec.to_partition()
                yield parse_partition_text(str(spec), n)
                # one block per part, so every run comes from merging equal blocks
                yield AscendingSpec(tuple((v, 1) for v in reversed(lam.parts))).to_partition()
    for e in (2, 3, 4):
        for core in (P(), P(1), P(2, 1), P(3, 1, 1)):
            for lam, _ in _hook_lifts(core, e, 0):
                yield lam
                yield from (lift for lift, _ in _hook_lifts(lam, e, 0))
    for p in primes_up_to(13):
        for b in range(p):
            yield from _one_hook_lifts(b, p)


def test_partition_record_sums_runs_once_and_keys_on_runs_alone():
    built = 0
    for lam in _built_partitions():
        assert (lam.size, lam.length) == (sum(lam.parts), len(lam.parts)), lam
        assert oracle.is_canonical_runs(lam.runs, lam.size), lam
        assert hash(lam) == hash((lam.runs, lam.size, lam.length)), lam
        assert repr(lam) == f"Partition(runs={lam.runs!r})"
        built += 1
    assert built > 1000
    assert Partition.__match_args__ == ("runs",)
    lam = P(3, 1, 1)
    assert (lam.size, lam.length) == (5, 3)
    for runs in ((), ((4, 2), (1, 3)), ((7, 1),)):
        moved = Partition(runs)
        assert moved == Partition(runs) and moved.runs == runs
        assert (moved.size, moved.length) == (sum(v * m for v, m in runs), sum(m for _, m in runs))
    assert (lam.size, lam.length) == (5, 3)


def test_beta_set_examples():
    assert oracle.beta_set((2, 1), 2) == (3, 1)
    assert oracle.beta_set((2, 1), 3) == (4, 2, 0)
    assert oracle.beta_set((), 3) == (2, 1, 0)
    with pytest.raises(ValueError, match="beta-set length 1 < 2 parts"):
        oracle.beta_set((2, 1), 1)


def test_beta_set_strictly_decreasing():
    rng = random.Random(5)
    for _ in range(200):
        lam = from_parts(oracle.random_partition(rng, rng.randint(0, 25)))
        length = len(lam.parts) + rng.randint(0, 5)
        beta = oracle.beta_set(lam.parts, length)
        assert all(a > b for a, b in zip(beta, beta[1:]))


def test_p_core_examples():
    # a core is fixed by its runner counts at the partition's own length
    for parts, p, core in (((4,), 3, (1,)), ((2, 1), 3, ()), ((2, 1, 1, 1, 1, 1, 1, 1), 3, ())):
        assert oracle.exhaustive_cores(parts, p) == frozenset({core})
        lam = from_parts(parts)
        assert runner_counts(lam.runs, p) == oracle.residue_counts(
            oracle.beta_set(core, len(parts)), p
        )


def test_p_core_matches_exhaustive_stripping():
    for n in range(0, 10):
        for lam in partitions_of(n):
            for p in (2, 3, 5, 7):
                cores = oracle.exhaustive_cores(lam.parts, p)
                assert len(cores) == 1, f"order-dependent core for {lam.parts}, p={p}"
                core = from_parts(next(iter(cores)))
                expected = oracle.residue_counts(oracle.beta_set(core.parts, len(lam.parts)), p)
                assert list(accumulate(runner_steps(lam.runs, p))) == expected
                assert runner_counts(lam.runs, p) == expected
                # a trailing run of value 0 pads the beta-set by that many beads
                for k in range(p + 1):
                    beads = oracle.beta_set(lam.parts, len(lam.parts) + k)
                    padded = oracle.residue_counts(beads, p)
                    assert runner_counts(lam.runs + ((0, k),), p) == padded, (lam, p, k)


def test_p_core_properties():
    # the exhaustive core has no p-hook, and the p-weight counts the p-hooks removed
    rng = random.Random(7)
    for _ in range(400):
        lam = from_parts(oracle.random_partition(rng, rng.randint(0, 35)))
        p = rng.choice((2, 3, 5, 7, 11))
        (core,) = oracle.exhaustive_cores(lam.parts, p)
        core = from_parts(core)
        assert runner_counts(core.runs, p) == oracle.residue_counts(
            oracle.beta_set(core.parts, len(core.parts)), p
        )
        assert weight(core, p) == 0
        assert runner_counts(lam.runs, p) == oracle.residue_counts(
            oracle.beta_set(core.parts, len(lam.parts)), p
        )
        assert lam.size == core.size + p * weight(lam, p)


def test_p_quotient_examples():
    comps = p_quotient(P(4), 3)
    assert sum(c.size for c in comps) == 1
    # (1) is the 3-core of (4)
    assert all(c.size == 0 for c in p_quotient(P(1), 3))
    assert sum(c.size for c in p_quotient(P(2, 1), 3)) == 1


def test_core_quotient_size_identity():
    rng = random.Random(3)
    for _ in range(300):
        lam = from_parts(oracle.random_partition(rng, rng.randint(0, 30)))
        p = rng.choice((2, 3, 5, 7))
        comps = p_quotient(lam, p)
        assert len(comps) == p
        (core,) = oracle.exhaustive_cores(lam.parts, p)
        assert lam.size == sum(core) + p * sum(c.size for c in comps)


def _add_one_box(quotient, r):
    # each e-quotient with one box added to component r, from its addable
    # corners: the end of row i when row i - 1 is longer, and a new last row
    parts = quotient[r].parts + (0,)
    for i, part in enumerate(parts):
        if i == 0 or parts[i - 1] > part:
            grown = from_parts(parts[:i] + (part + 1,) + parts[i + 1 : -1])
            yield quotient[:r] + (grown,) + quotient[r + 1 :]


def test_hook_lifts_add_one_box_to_the_quotient():
    # every partition of size <= 10, e-core or not: each lift on runner r adds
    # one box to component r of the e-quotient, keeps the e-core (runner
    # counts of equal-length beta-sets, bead by bead) and adds e cells, and
    # every addable box of every component is reached exactly once; with
    # first = r0 exactly the lifts on runners >= r0 remain
    cases = 0
    for e in (2, 3, 4, 5, 7, 8, 9):
        for n in range(11):
            for lam in partitions_of(n):
                quotient = p_quotient(lam, e)
                lifts = list(_hook_lifts(lam, e, 0))
                assert len({lift for lift, _ in lifts}) == len(lifts), (lam, e)
                assert sorted((p_quotient(lift, e), r) for lift, r in lifts) == sorted(
                    (grown, r) for r in range(e) for grown in _add_one_box(quotient, r)
                ), (lam, e)
                assert len(lifts) == sum(len(mu.runs) + 1 for mu in quotient), (lam, e)
                for lift, r in lifts:
                    assert lift.size == n + e, (lam, e, lift)
                    length = max(lam.length, lift.length)
                    assert oracle.residue_counts(
                        oracle.beta_set(lift.parts, length), e
                    ) == oracle.residue_counts(oracle.beta_set(lam.parts, length), e), (lam, e)
                for first in range(e):
                    kept = [(lift, r) for lift, r in lifts if r >= first]
                    assert list(_hook_lifts(lam, e, first)) == kept, (lam, e, first)
                cases += len(lifts)
    assert cases == 6022


def test_one_hook_lifts_equal_the_parts_reference():
    # the runs written member by member against the parts formulas, in order,
    # at every core (b) of every prime p < 60
    for p in primes_up_to(59):
        for b in range(p):
            # a partition is the plain tuple of its runs, size and length
            assert _one_hook_lifts(b, p) == oracle.reference_one_hook_lifts(b, p), (b, p)


def test_hook_lifts_equal_the_beta_set_reference():
    # the lifts edited on runs against a rebuild from the whole beta-set, as
    # sets of (lift, runner): the reference walks a set of beads
    cases = 0
    for n in range(13):
        for lam in partitions_of(n):
            for e in (2, 3, 4, 5, 6, 9):
                for first in range(e):
                    lifts = list(_hook_lifts(lam, e, first))
                    assert len(set(lifts)) == len(lifts), (lam, e, first)
                    assert set(lifts) == set(oracle.reference_hook_lifts(lam, e, first)), (
                        lam, e, first
                    )
                    cases += len(lifts)
    assert cases == 31270


def test_literals():
    assert P(2, 1, 1).to_literal() == "[2,1,1]"
    assert P().to_literal() == "[]"
    assert runs_literal(((10, 2), (1, 3))) == "[10,10,1,1,1]"
    # rendered per run, the literal is the per-part one, also for a spec's stored runs
    shapes = [lam.runs for n in range(0, 21) for lam in partitions_of(n)]
    for runs in shapes + [((3, 1), (1, 987))]:
        parts = Partition(runs).parts
        assert runs_literal(runs) == "[" + ",".join(map(str, parts)) + "]", runs
    lam = AscendingSpec(((1, 0), (2, 3), (5, 1), (5, 2))).to_partition()
    assert lam.to_literal() == "[5,5,5,2,2,2]"
    # the literal a partition renders parses back to it
    for lam in (P(2, 1, 1), P()):
        assert parse_partition_text(lam.to_literal(), lam.size) == lam


_DIGITS = "expected ASCII decimal digits, got "
_LITERAL_SHAPE = "partition literal must look like [a,b,...]: "

# (text, size, outcome): the parts, or the exception's exact type and message
PARSED = [
    # both notations
    ("[3,1]", 4, (3, 1)),
    ("(1^2,3)", 5, (3, 1, 1)),
    ("[]", 0, ()),
    ("(1^0,5)", 5, (5,)),
    ("(1^0)", 0, ()),
    # a malformed bracket shape of each notation
    ("(1^2,3]", 5, (ValueError, "ascending spec must look like (1^k,a,b): '(1^2,3]'")),
    ("[3,", 3, (ValueError, _LITERAL_SHAPE + "'[3,'")),
    ("x", 1, (ValueError, _LITERAL_SHAPE + "'x'")),
    ("", 0, (ValueError, _LITERAL_SHAPE + "''")),
    ("()", 0, (NonMonotoneSpec, "spec needs at least one block")),
    # zero and decreasing values
    ("[3,0]", 3, (ValueError, "parts must be positive and weakly decreasing: '[3,0]'")),
    ("[1,3]", 4, (ValueError, "parts must be positive and weakly decreasing: '[1,3]'")),
    ("(1^2,0)", 2, (NonMonotoneSpec, "block value must be >= 1, got 0")),
    ("(2^0,3)", 3, (NonMonotoneSpec, "multiplicity 0 invalid for block 2 at index 0")),
    (
        "(3,1)",
        4,
        (NonMonotoneSpec, "block values must be weakly increasing, got ((3, 1), (1, 1))"),
    ),
    # integers that int() would take but the parser must not
    ("[３,1]", 4, (ValueError, _DIGITS + "'３'")),
    ("[3,+1]", 4, (ValueError, _DIGITS + "'+1'")),
    ("[1_0]", 4, (ValueError, _DIGITS + "'1_0'")),
    ("[-1]", 4, (ValueError, _DIGITS + "'-1'")),
    ("[3,]", 4, (ValueError, _DIGITS + "''")),
    ("(1^+2,3)", 4, (ValueError, _DIGITS + "'+2'")),
    ("(1^2,３)", 4, (ValueError, _DIGITS + "'３'")),
    ("(1_0)", 4, (ValueError, _DIGITS + "'1_0'")),
    ("(1^-1,2)", 4, (ValueError, _DIGITS + "'-1'")),
    ("(1^)", 1, (ValueError, _DIGITS + "''")),
    ("(1^2^3)", 8, (ValueError, _DIGITS + "'2^3'")),
    # a space is no part of an integer, nor of the brackets
    (" [ 2 , 2 ] ", 4, (ValueError, _LITERAL_SHAPE + "' [ 2 , 2 ] '")),
    ("[3, 1]", 5, (ValueError, _DIGITS + "' 1'")),
    ("(1 ^ 2, 3)", 5, (ValueError, _DIGITS + "'1 '")),
    ("(1 ^ 2,3)", 4, (ValueError, _DIGITS + "'1 '")),
    # a size mismatch names the normalized text
    ("[2,2]", 5, (ValueError, "partition [2,2] has size 4, expected 5")),
    ("(1^1,3)", 5, (ValueError, "partition (1,3) has size 4, expected 5")),
    (
        "(1^" + "9" * 5000 + ",2)",
        4,
        (DigitLimitExceeded, "integer of 5000 digits exceeds the 4300-digit limit"),
    ),
]


@pytest.mark.parametrize(
    "text, size, outcome",
    PARSED,
    ids=[text[:20] or "empty-text" for text, _, _ in PARSED],
)
def test_partition_text_rejects_lax_integers(text, size, outcome):
    # every outcome of the one parser for outside text is pinned exactly
    if not (outcome and isinstance(outcome[0], type)):
        lam = parse_partition_text(text, size)
        assert oracle.is_canonical_runs(lam.runs, size) and lam.parts == outcome
        return
    kind, message = outcome
    with pytest.raises(kind) as info:
        parse_partition_text(text, size)
    assert (type(info.value), str(info.value)) == (kind, message)
