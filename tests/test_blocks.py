import pytest

import _oracles as oracle
from blockwitness.blocks import principal_block_contains, principal_runner_counts
from blockwitness.degrees import degree
from blockwitness.oracle import _p_prime_set
from blockwitness.partitions import LengthTooSmall, Partition, partitions_of


def P(*parts):
    return Partition(tuple(parts))


def members(n, p):
    return frozenset(lam for lam in partitions_of(n) if principal_block_contains(lam, p))


def test_principal_runner_counts_closed_form():
    # against the residues mod e of the principal core's beta-set
    for n in range(0, 41):
        for e in range(2, n + 3):
            core = P(n % e) if n % e else P()
            for length in range(len(core.parts), n + 4):
                expected = oracle.residue_counts(core.beta_set(length), e)
                assert principal_runner_counts(n, e, length) == expected, (n, e, length)
    with pytest.raises(LengthTooSmall):
        principal_runner_counts(10, 3, 0)
    with pytest.raises(LengthTooSmall):
        principal_runner_counts(9, 3, -1)


def test_principal_block_contains_examples():
    for n, p in ((5, 2), (9, 3), (20, 7), (8, 11)):
        assert principal_block_contains(Partition((n,)), p)
    assert principal_block_contains(P(2, 1, 1, 1, 1, 1, 1, 1), 3)
    assert principal_block_contains(P(1, 1, 1, 1), 3)  # column of 4, core (1)


def test_members_examples():
    assert members(4, 2) == frozenset(partitions_of(4))
    assert members(4, 5) == frozenset({P(4)})
    nine = members(9, 3)
    assert P(9) in nine and P(2, 1, 1, 1, 1, 1, 1, 1) in nine


def test_irr_examples():
    assert _p_prime_set(4, 2, "sn") == frozenset(
        {P(4), P(3, 1), P(2, 1, 1), P(1, 1, 1, 1)}
    )
    assert _p_prime_set(4, 5, "sn") == frozenset({P(4)})
    assert P(2, 1, 1, 1, 1, 1, 1, 1) in _p_prime_set(9, 3, "sn")


def test_degrees_of_s4():
    degrees = sorted(degree(lam).to_int() for lam in partitions_of(4))
    assert degrees == [1, 1, 2, 3, 3]


def test_cardinality_law_small():
    for n in range(1, 15):
        from blockwitness.factored import primes_up_to

        for p in primes_up_to(n):
            weight = (n - n % p) // p
            assert len(members(n, p)) == oracle.multipartition_count(p, weight)


def test_trivial_and_column_membership():
    for n in range(1, 13):
        from blockwitness.factored import primes_up_to

        for p in primes_up_to(n):
            assert principal_block_contains(Partition((n,)), p)
            column = Partition((1,) * n)
            cores = oracle.exhaustive_cores(column.parts, p)
            assert len(cores) == 1
            expected = next(iter(cores)) == ((n % p,) if n % p else ())
            assert principal_block_contains(column, p) == expected


def test_core_determines_membership():
    for lam in partitions_of(8):
        for p in (2, 3, 5, 7):
            (core,) = oracle.exhaustive_cores(lam.parts, p)
            assert principal_block_contains(lam, p) == (core == ((8 % p,) if 8 % p else ()))
