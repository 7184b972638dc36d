import math
import random

import pytest

import _oracles as oracle
from blockwitness.degrees import degree, degree_valuation
from blockwitness.factored import FactoredNatural, primes_up_to
from blockwitness.parameters import derive_case_parameters
from blockwitness.partitions import Partition, partitions_of
from blockwitness.witness import candidate_list


def P(*parts):
    return Partition(tuple(parts))


def test_degree_examples():
    for n in (1, 4, 12):
        assert degree(Partition((n,))).to_decimal() == "1"
    assert degree(P(2, 1)).factors == ((2, 1),)
    hook_partition = P(2, 1, 1, 1, 1, 1, 1, 1)
    # standard-tableau counting oracle for the n = 9 hook shape
    assert oracle.syt_count(hook_partition.parts) == 8
    assert degree(hook_partition).factors == ((2, 3),)


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


def test_degree_matches_hook_product_all_partitions():
    for n in range(0, 23):
        for lam in partitions_of(n):
            assert degree(lam).to_int() == oracle.hook_product_degree(lam.parts), lam


def test_degree_matches_hook_product_on_construction_grid():
    # every candidate shape the constructor may verify, n <= 128
    for n in range(9, 129):
        primes = primes_up_to(n)
        for p in primes:
            if n // p <= 1:
                continue
            for q in primes:
                if q >= p:
                    continue
                for candidate in candidate_list(derive_case_parameters(n, p, q)):
                    lam = candidate.spec.to_partition()
                    assert degree(lam).to_int() == oracle.hook_product_degree(lam.parts), lam


def test_degree_matches_hook_product_random_shapes():
    rng = random.Random(20260)
    for n in list(range(0, 301, 7)) + [300] * 20:
        parts = oracle.random_partition(rng, n)
        assert degree(Partition(parts)).to_int() == oracle.hook_product_degree(parts), parts


def test_degree_edge_shapes():
    assert degree(Partition(())) == FactoredNatural()
    for n in (1, 2, 9, 40):
        assert degree(Partition((n,))) == FactoredNatural()
        assert degree(Partition((1,) * n)) == FactoredNatural()
    for k in (1, 2, 3, 5, 8):
        square = (k,) * k
        assert degree(Partition(square)).to_int() == oracle.hook_product_degree(square)
    # the 3 x 3 square: 9! / (5 * 4^2 * 3^3 * 2^2 * 1) = 42
    assert degree(P(3, 3, 3)).factors == ((2, 1), (3, 1), (7, 1))
