import random

import pytest
from hypothesis import given, settings, strategies as st

import _oracles as oracle
from blockwitness.partitions import (
    AscendingSpec,
    LengthTooSmall,
    NonMonotoneSpec,
    Partition,
    parse_partition_text,
    partitions_of,
)


def P(*parts):
    return Partition(tuple(parts))


partitions_strategy = st.lists(
    st.integers(min_value=1, max_value=12), min_size=0, max_size=12
).map(lambda xs: Partition(tuple(sorted(xs, reverse=True))))


def test_partition_validation():
    with pytest.raises(ValueError):
        P(1, 2)
    with pytest.raises(ValueError):
        P(3, 0)
    for bad in (("1_0", True), (3, True), (3.0,), ("２",)):
        with pytest.raises(TypeError):
            Partition(bad)
    assert P().size == 0
    assert P(3, 1).size == 4


def test_partitions_of_examples():
    assert [lam.parts for lam in partitions_of(0)] == [()]
    four = [lam.parts for lam in partitions_of(4)]
    assert four == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(four) == 5
    count_30 = sum(1 for _ in partitions_of(30))
    assert count_30 == oracle.partition_count_oracle(30) == 5604


def test_partitions_of_order_and_counts():
    for n in range(0, 26):
        seen = [lam.parts for lam in partitions_of(n)]
        assert seen == sorted(seen, reverse=True)
        assert len(seen) == len(set(seen)) == oracle.partition_count_oracle(n)
        assert all(sum(parts) == n for parts in seen)


def test_generator_count_spot_60():
    assert sum(1 for _ in partitions_of(60)) == oracle.partition_count_oracle(60)


def test_from_ascending_spec_examples():
    assert AscendingSpec(((1, 7), (2, 1))).to_partition().parts == (
        2, 1, 1, 1, 1, 1, 1, 1,
    )
    assert AscendingSpec(((1, 2), (3, 1), (4, 1))).to_partition().parts == (4, 3, 1, 1)
    assert AscendingSpec(((1, 0), (5, 1))).to_partition().parts == (5,)
    # built without re-validation, so it must already be canonical
    for blocks in (((1, 0), (2, 3)), ((1, 3), (1, 2), (4, 2)), ((2, 1), (2, 1), (7, 3))):
        lam = AscendingSpec(blocks).to_partition()
        assert Partition(lam.parts) == lam


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
    spec = AscendingSpec.parse("(1^7,2)")
    assert spec.blocks == ((1, 7), (2, 1))
    assert str(spec) == "(1^7,2)"
    assert spec.total == 9
    assert AscendingSpec.parse("(5)").blocks == ((5, 1),)
    assert AscendingSpec.parse("(1^0, 5)").to_partition().parts == (5,)


def test_conjugate_examples():
    assert P(3, 1).conjugate().parts == (2, 1, 1)
    assert P(2, 2).conjugate().parts == (2, 2)
    assert P().conjugate().parts == ()


def test_self_conjugate_examples():
    assert P(2, 2).is_self_conjugate()
    assert not P(2, 1, 1, 1, 1, 1, 1, 1).is_self_conjugate()
    assert P(2, 1).is_self_conjugate()


@settings(max_examples=300, derandomize=True)
@given(partitions_strategy)
def test_conjugate_involution(lam):
    assert lam.conjugate().conjugate() == lam


def test_conjugate_involution_exhaustive():
    for n in range(0, 16):
        for lam in partitions_of(n):
            assert lam.conjugate().conjugate() == lam
            assert lam.conjugate().parts == oracle.conjugate(lam.parts)
            assert lam.is_self_conjugate() == (lam.parts == oracle.conjugate(lam.parts))


@settings(max_examples=300, derandomize=True)
@given(partitions_strategy)
def test_hook_multiset_conjugation_invariant(lam):
    # the e-weights, hooks divisible by e for every e >= 1, fix the hook
    # multiset (Moebius inversion over multiples)
    conj = lam.conjugate()
    for e in range(1, lam.size + 1):
        assert lam.abacus(e)[1] == conj.abacus(e)[1]


def test_beta_set_examples():
    assert P(2, 1).beta_set(2) == (3, 1)
    assert P(2, 1).beta_set(3) == (4, 2, 0)
    assert P().beta_set(3) == (2, 1, 0)
    with pytest.raises(LengthTooSmall):
        P(2, 1).beta_set(1)


def test_beta_set_strictly_decreasing():
    rng = random.Random(5)
    for _ in range(200):
        lam = Partition(oracle.random_partition(rng, rng.randint(0, 25)))
        length = len(lam.parts) + rng.randint(0, 5)
        beta = lam.beta_set(length)
        assert all(a > b for a, b in zip(beta, beta[1:]))


def test_p_core_examples():
    # a core is fixed by its runner counts at the partition's own length
    for parts, p, core in (((4,), 3, (1,)), ((2, 1), 3, ()), ((2, 1, 1, 1, 1, 1, 1, 1), 3, ())):
        assert oracle.exhaustive_cores(parts, p) == frozenset({core})
        lam = Partition(parts)
        assert lam.abacus(p)[0] == oracle.residue_counts(Partition(core).beta_set(len(parts)), p)


def test_p_core_matches_exhaustive_stripping():
    for n in range(0, 10):
        for lam in partitions_of(n):
            for p in (2, 3, 5, 7):
                cores = oracle.exhaustive_cores(lam.parts, p)
                assert len(cores) == 1, f"order-dependent core for {lam.parts}, p={p}"
                core = Partition(next(iter(cores)))
                expected = oracle.residue_counts(core.beta_set(len(lam.parts)), p)
                assert lam.abacus(p)[0] == expected


def test_p_core_properties():
    # the exhaustive core has no p-hook, and the p-weight counts the p-hooks removed
    rng = random.Random(7)
    for _ in range(400):
        lam = Partition(oracle.random_partition(rng, rng.randint(0, 35)))
        p = rng.choice((2, 3, 5, 7, 11))
        (core,) = oracle.exhaustive_cores(lam.parts, p)
        core = Partition(core)
        counts, weight = lam.abacus(p)
        assert core.abacus(p) == (oracle.residue_counts(core.beta_set(len(core.parts)), p), 0)
        assert counts == oracle.residue_counts(core.beta_set(len(lam.parts)), p)
        assert lam.size == core.size + p * weight


def test_p_quotient_examples():
    comps = P(4).p_quotient(3)
    assert sum(c.size for c in comps) == 1
    # (1) is the 3-core of (4)
    assert all(c.size == 0 for c in P(1).p_quotient(3))
    assert sum(c.size for c in P(2, 1).p_quotient(3)) == 1


def test_core_quotient_size_identity():
    rng = random.Random(3)
    for _ in range(300):
        lam = Partition(oracle.random_partition(rng, rng.randint(0, 30)))
        p = rng.choice((2, 3, 5, 7))
        comps = lam.p_quotient(p)
        assert len(comps) == p
        (core,) = oracle.exhaustive_cores(lam.parts, p)
        assert lam.size == sum(core) + p * sum(c.size for c in comps)


def test_literals():
    assert P(2, 1, 1).to_literal() == "[2,1,1]"
    assert P().to_literal() == "[]"
    assert Partition.from_literal("[2,1,1]") == P(2, 1, 1)
    assert Partition.from_literal("[]") == P()
    with pytest.raises(ValueError):
        Partition.from_literal("2,1")
    assert parse_partition_text("[3,1]", 4) == P(3, 1)
    assert parse_partition_text("[3, 1]", 4) == P(3, 1)
    assert parse_partition_text("(1^2,3)", 5) == P(3, 1, 1)
    assert parse_partition_text("(1 ^ 2, 3)", 5) == P(3, 1, 1)
    with pytest.raises(ValueError, match=r"partition \[3,1\] has size 4, expected 5"):
        parse_partition_text("[3, 1]", 5)
    with pytest.raises(ValueError, match=r"partition \(1\^2,3\) has size 5, expected 4"):
        parse_partition_text("(1 ^ 2, 3)", 4)


@pytest.mark.parametrize(
    "text",
    ["[３,1]", "[3,+1]", "[1_0]", "[-1]", "[3,]", "(1^+2,3)", "(1^2,３)", "(1_0)", "(1^-1,2)"],
)
def test_partition_text_rejects_lax_integers(text):
    with pytest.raises(ValueError):
        parse_partition_text(text, 4)
