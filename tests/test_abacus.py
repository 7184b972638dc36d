"""The abacus against the independent references in ``_oracles``.

Weights are checked against hook counts and the bead-by-bead reference,
runner-count membership against all-orders rim-hook stripping, and the
weight-based degree valuation against the hook-length formula.
"""

import pytest

import _oracles as oracle
from _all_partitions import degree_valuation, partitions_of, weight
from blockwitness import partitions
from blockwitness.blocks import principal_block_contains
from blockwitness.factored import primes_up_to
from blockwitness.partitions import from_parts, runner_counts


def test_weight_counts_hooks_divisible_by_e():
    for n in range(0, 21):
        for lam in partitions_of(n):
            hooks = oracle.hooks(lam.parts)
            for e in range(2, n + 3):
                assert weight(lam, e) == sum(1 for h in hooks if h % e == 0)


def test_closed_form_weight_matches_bead_by_bead():
    # the library reads the weight off runner counts, the reference walks every bead
    for n in range(0, 23):
        for lam in partitions_of(n):
            for e in range(1, n + 3):
                assert partitions.weight(lam, e) == weight(lam, e), (lam, e)


def test_runner_count_membership_matches_exhaustive_cores():
    for n in range(0, 10):
        for p in (2, 3, 5, 7):
            target = (n % p,) if n % p else ()
            for lam in partitions_of(n):
                cores = oracle.exhaustive_cores(lam.parts, p)
                assert len(cores) == 1
                expected = next(iter(cores)) == target
                assert principal_block_contains(lam, p) == expected


def test_weight_valuation_matches_hook_formula():
    for n in range(0, 23):
        for lam in partitions_of(n):
            hooks = oracle.hooks(lam.parts)
            for p in primes_up_to(n):
                in_hooks = sum(oracle.padic_valuation(h, p) for h in hooks)
                expected = oracle.factorial_valuation(n, p) - in_hooks
                assert degree_valuation(lam, p) == expected


def test_empty_partition():
    empty = from_parts(())
    for e in (1, 2, 3, 7):
        assert runner_counts(empty.runs, e) == [0] * e
        assert weight(empty, e) == 0
    for p in (2, 3, 5):
        assert principal_block_contains(empty, p)
        assert degree_valuation(empty, p) == 0


def test_prime_above_n():
    # no hook reaches p, so each partition is its own p-core and only the
    # one-row partition (n mod p) = (n) lies in the principal block
    for n in range(1, 9):
        for p in (11, 13):
            for lam in partitions_of(n):
                assert weight(lam, p) == 0
                assert principal_block_contains(lam, p) == (lam.parts == (n,))
                assert degree_valuation(lam, p) == 0


def test_one_column_partition():
    # (1^n) has hook lengths 1..n and degree 1
    for n in range(1, 16):
        column = from_parts((1,) * n)
        for e in range(2, n + 3):
            assert weight(column, e) == n // e
        for p in primes_up_to(n):
            assert degree_valuation(column, p) == 0
            assert principal_block_contains(column, p) == (n % p <= 1)


def test_abacus_example():
    # beads 6, 3, 1; hooks 6 and 3
    lam = from_parts((4, 2, 1))
    assert runner_counts(lam.runs, 3) == [2, 1, 0]
    assert weight(lam, 3) == 2
    with pytest.raises(ValueError):
        runner_counts(lam.runs, 0)
