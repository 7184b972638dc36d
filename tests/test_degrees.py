import math

import pytest

import _oracles as oracle
from blockwitness.degrees import degree, degree_valuation
from blockwitness.partitions import Partition, partitions_of


def P(*parts):
    return Partition(tuple(parts))


def test_degree_examples():
    for n in (1, 4, 12):
        assert degree(Partition((n,))).to_decimal() == "1"
    assert degree(P(2, 1)).as_dict() == {2: 1}
    hook_partition = P(2, 1, 1, 1, 1, 1, 1, 1)
    # standard-tableau counting oracle for the n = 9 hook shape
    assert oracle.syt_count(hook_partition.parts) == 8
    assert degree(hook_partition).as_dict() == {2: 3}


def test_degree_matches_tableau_count_small():
    for n in range(0, 9):
        for lam in partitions_of(n):
            assert degree(lam).to_decimal() == str(oracle.syt_count(lam.parts))


def test_degree_valuation_examples():
    for n, p in ((5, 2), (9, 3), (20, 7)):
        assert degree_valuation(Partition((n,)), p) == 0
    hook_partition = P(2, 1, 1, 1, 1, 1, 1, 1)
    assert degree_valuation(hook_partition, 3) == 0
    assert degree_valuation(hook_partition, 2) == 3
    for p in (0, 1):
        with pytest.raises(ValueError):
            degree_valuation(hook_partition, p)


def test_degree_valuation_agrees_with_full_degree():
    for n in range(0, 16):
        for lam in partitions_of(n):
            deg = degree(lam)
            for p in (2, 3, 5, 7):
                v = degree_valuation(lam, p)
                assert v >= 0
                assert v == deg.valuation(p)


def test_degree_conjugation_invariant():
    for n in range(0, 13):
        for lam in partitions_of(n):
            assert degree(lam) == degree(lam.conjugate())


def test_sum_of_squares_identity_small():
    for n in range(0, 15):
        total = sum(degree(lam).to_int() ** 2 for lam in partitions_of(n))
        assert total == math.factorial(n)
