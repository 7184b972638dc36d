"""The abacus kernel against the independent references in ``_oracles``.

Weights are checked against hook counts, runner-count membership against
all-orders rim-hook stripping, and the weight-based degree valuation against
the hook-length formula.
"""

import pytest

import _oracles as oracle
from blockwitness.blocks import principal_block_contains
from blockwitness.degrees import degree_valuation
from blockwitness.factored import factorial_valuation, primes_up_to
from blockwitness.partitions import Partition, partitions_of


def test_weight_counts_hooks_divisible_by_e():
    for n in range(0, 21):
        for lam in partitions_of(n):
            hooks = oracle.hooks(lam.parts)
            for e in range(2, n + 3):
                assert lam.abacus(e)[1] == sum(1 for h in hooks if h % e == 0)


def test_runner_count_membership_matches_exhaustive_cores():
    for n in range(0, 10):
        for p in (2, 3, 5, 7):
            target = (n % p,) if n % p else ()
            for lam in partitions_of(n):
                cores = oracle.exhaustive_cores(lam.parts, p)
                assert len(cores) == 1
                assert principal_block_contains(lam, p) == (next(iter(cores)) == target)


def test_weight_valuation_matches_hook_formula():
    for n in range(0, 23):
        for lam in partitions_of(n):
            hooks = oracle.hooks(lam.parts)
            for p in primes_up_to(n):
                expected = factorial_valuation(n, p) - sum(oracle.padic_valuation(h, p) for h in hooks)
                assert degree_valuation(lam, p) == expected


def test_empty_partition():
    empty = Partition(())
    for e in (1, 2, 3, 7):
        assert empty.abacus(e) == ([0] * e, 0)
    for p in (2, 3, 5):
        assert principal_block_contains(empty, p)
        assert degree_valuation(empty, p) == 0


def test_prime_above_n():
    # no hook reaches p, so each partition is its own p-core and only the
    # one-row partition (n mod p) = (n) lies in the principal block
    for n in range(1, 9):
        for p in (11, 13):
            for lam in partitions_of(n):
                assert lam.abacus(p)[1] == 0
                assert principal_block_contains(lam, p) == (lam.parts == (n,))
                assert degree_valuation(lam, p) == 0


def test_one_column_partition():
    # (1^n) has hook lengths 1..n and degree 1
    for n in range(1, 16):
        column = Partition((1,) * n)
        for e in range(2, n + 3):
            assert column.abacus(e)[1] == n // e
        for p in primes_up_to(n):
            assert degree_valuation(column, p) == 0
            assert principal_block_contains(column, p) == (n % p <= 1)


def test_abacus_example():
    # beads 6, 3, 1; hooks 6 and 3
    lam = Partition((4, 2, 1))
    assert lam.abacus(3) == ([2, 1, 0], 2)
    with pytest.raises(ValueError):
        lam.abacus(0)
