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
    partition_count,
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


def test_partition_count_matches_recurrence():
    for n in range(0, 61):
        assert partition_count(n) == oracle.partition_count_oracle(n)


def test_generator_count_spot_60():
    assert sum(1 for _ in partitions_of(60)) == partition_count(60)


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


def test_hook_lengths_examples():
    assert sorted(P(2, 1).hook_lengths()) == [1, 1, 3]
    assert sorted(P(2, 2).hook_lengths()) == [1, 2, 2, 3]
    for n in (1, 5, 9):
        assert sorted(Partition((n,)).hook_lengths()) == list(range(1, n + 1))


@settings(max_examples=300, derandomize=True)
@given(partitions_strategy)
def test_hook_multiset_conjugation_invariant(lam):
    assert sorted(lam.hook_lengths()) == sorted(lam.conjugate().hook_lengths())


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
    assert P(4).p_core(3).parts == (1,)
    assert P(2, 1).p_core(3).parts == ()
    assert P(2, 1, 1, 1, 1, 1, 1, 1).p_core(3).parts == ()
    cores = oracle.exhaustive_cores((2, 1, 1, 1, 1, 1, 1, 1), 3)
    assert cores == frozenset({()})


def test_p_core_matches_exhaustive_stripping():
    for n in range(0, 10):
        for lam in partitions_of(n):
            for p in (2, 3, 5, 7):
                cores = oracle.exhaustive_cores(lam.parts, p)
                assert len(cores) == 1, f"order-dependent core for {lam.parts}, p={p}"
                assert lam.p_core(p).parts == next(iter(cores))


def test_p_core_properties():
    rng = random.Random(7)
    for _ in range(400):
        lam = Partition(oracle.random_partition(rng, rng.randint(0, 35)))
        p = rng.choice((2, 3, 5, 7, 11))
        core = lam.p_core(p)
        assert core.p_core(p) == core
        assert all(h % p != 0 for h in core.hook_lengths())
        assert (lam.size - core.size) % p == 0


def test_p_core_length_independence():
    rng = random.Random(9)
    for _ in range(200):
        lam = Partition(oracle.random_partition(rng, rng.randint(0, 30)))
        p = rng.choice((2, 3, 5))
        default = lam.p_core(p)
        for extra in (0, 1, 2, p, 2 * p + 1):
            assert lam.p_core(p, length=len(lam.parts) + extra) == default


def test_p_quotient_examples():
    comps = P(4).p_quotient(3)
    assert sum(c.size for c in comps) == 1
    core = P(4).p_core(3)
    assert all(c.size == 0 for c in core.p_quotient(3))
    assert sum(c.size for c in P(2, 1).p_quotient(3)) == 1


def test_core_quotient_size_identity():
    rng = random.Random(3)
    for _ in range(300):
        lam = Partition(oracle.random_partition(rng, rng.randint(0, 30)))
        p = rng.choice((2, 3, 5, 7))
        comps = lam.p_quotient(p)
        assert len(comps) == p
        assert lam.size == lam.p_core(p).size + p * sum(c.size for c in comps)


def test_literals():
    assert P(2, 1, 1).to_literal() == "[2,1,1]"
    assert P().to_literal() == "[]"
    assert Partition.from_literal("[2,1,1]") == P(2, 1, 1)
    assert Partition.from_literal("[]") == P()
    with pytest.raises(ValueError):
        Partition.from_literal("2,1")
    assert parse_partition_text("[3,1]") == P(3, 1)
    assert parse_partition_text("[3, 1]") == P(3, 1)
    assert parse_partition_text("(1^2,3)") == P(3, 1, 1)
    assert parse_partition_text("(1 ^ 2, 3)") == P(3, 1, 1)


@pytest.mark.parametrize(
    "text",
    ["[３,1]", "[3,+1]", "[1_0]", "[-1]", "[3,]", "(1^+2,3)", "(1^2,３)", "(1_0)", "(1^-1,2)"],
)
def test_partition_text_rejects_lax_integers(text):
    with pytest.raises(ValueError):
        parse_partition_text(text)
