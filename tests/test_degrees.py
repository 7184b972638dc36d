import math
import random
import sys
from array import array

import pytest

import _oracles as oracle
from _all_partitions import conjugate, degree_valuation, partitions_of
import blockwitness.degrees as degrees_module
from blockwitness.degrees import degree, exact_degree, packed_degree, packed_exponent
from blockwitness.factored import FactoredNatural, NotDivisible, prime_index, primes_up_to
from blockwitness.parameters import derive_case_parameters
from blockwitness.partitions import from_parts
from blockwitness.witness import VerificationFailure, Witness, candidates, verify_candidate


def P(*parts):
    return from_parts(parts)


def test_degree_examples():
    for n in (1, 4, 12):
        assert degree(from_parts((n,)).runs).to_decimal() == "1"
    assert degree(P(2, 1).runs).factors == ((2, 1),)
    hook_partition = P(2, 1, 1, 1, 1, 1, 1, 1)
    # standard-tableau counting oracle for the n = 9 hook shape
    assert oracle.syt_count(hook_partition.parts) == 8
    assert degree(hook_partition.runs).factors == ((2, 3),)


def test_degree_matches_tableau_count_small():
    for n in range(0, 9):
        for lam in partitions_of(n):
            assert degree(lam.runs).to_decimal() == str(oracle.syt_count(lam.parts))


def test_degree_valuation_examples():
    for n, p in ((5, 2), (9, 3), (20, 7)):
        assert degree_valuation(from_parts((n,)), p) == 0
    hook_partition = P(2, 1, 1, 1, 1, 1, 1, 1)
    assert degree_valuation(hook_partition, 3) == 0
    assert degree_valuation(hook_partition, 2) == 3
    for p in (0, 1):
        with pytest.raises(ValueError):
            degree_valuation(hook_partition, p)


def test_degree_valuation_agrees_with_full_degree():
    for n in range(0, 16):
        for lam in partitions_of(n):
            deg = degree(lam.runs)
            for p in (2, 3, 5, 7):
                v = degree_valuation(lam, p)
                assert v >= 0
                assert v == deg.valuation(p)


def test_degree_conjugation_invariant():
    for n in range(0, 13):
        for lam in partitions_of(n):
            assert degree(lam.runs) == degree(conjugate(lam).runs)


def test_sum_of_squares_identity_small():
    for n in range(0, 15):
        total = sum(degree(lam.runs).to_int() ** 2 for lam in partitions_of(n))
        assert total == math.factorial(n)


def test_degree_matches_hook_product_all_partitions():
    shapes = 0
    for n in range(0, 26):
        for lam in partitions_of(n):
            hook_degree = oracle.hook_product_degree(lam.parts)
            assert degree(lam.runs).to_int() == hook_degree, lam
            assert exact_degree(lam.runs, n) == hook_degree, lam
            shapes += 1
    assert shapes == 9_296


def test_rectangles_tile_the_diagram_with_its_hooks():
    # the empty partition and every partition with n <= 18: the rectangles'
    # cells number n, and their hooks c + i + j are the diagram's, cell by cell
    assert list(degrees_module._rectangles(())) == []
    shapes = 0
    for n in range(0, 19):
        for lam in partitions_of(n):
            rectangles = list(degrees_module._rectangles(lam.runs))
            assert sum(rows * cols for _, rows, cols in rectangles) == n, lam
            hooks = [
                corner + i + j
                for corner, rows, cols in rectangles
                for i in range(rows)
                for j in range(cols)
            ]
            assert sorted(hooks) == sorted(oracle.hooks(lam.parts)), lam
            shapes += 1
    assert shapes == 1_597


def _fields(packed, count):
    # the 64-bit fields of a packed value, lowest first
    return list(array("q", packed.to_bytes(8 * count, sys.byteorder, signed=True)))


def test_packed_fields_match_hook_product_all_partitions():
    # every partition with n <= 25, every prime <= n: each field of the checked
    # sum is the exponent of the hook-product degree, and no field lies beyond
    for n in range(0, 26):
        primes = primes_up_to(n)
        for lam in partitions_of(n):
            packed = packed_degree(lam.runs, n)
            hook_degree = oracle.hook_product_degree(lam.parts)
            for prime in primes:
                assert packed_exponent(packed, prime) == oracle.padic_valuation(hook_degree, prime)
            assert packed >> 64 * len(primes) == 0
            assert _fields(packed, len(primes)) == [packed_exponent(packed, p) for p in primes]


def test_prime_index_is_the_position_in_the_prime_table():
    primes = primes_up_to(1000)
    assert [prime_index(p) for p in primes] == list(range(len(primes)))


def test_superfactorial_valuations_match_factorial_sums():
    # Q_p(m) = nu_p(1! 2! ... m!) for every prime p <= m, one field per prime
    sf = degrees_module._superfactorial_valuations
    assert sf(-1) == sf(0) == sf(1) == 0
    for m in range(0, 301):
        primes = primes_up_to(m)
        expected = [sum(oracle.factorial_valuation(i, p) for i in range(1, m + 1)) for p in primes]
        assert _fields(sf(m), len(primes)) == expected, m
        assert sf(m) < 1 << (64 * len(primes)), m


def test_superfactorial_cache_is_bounded():
    # a process that asks for m = 0..2100 keeps at most 1024 packed values,
    # and an evicted one comes back equal
    sf = degrees_module._superfactorial_valuations
    first = sf(7)
    for m in range(0, 2101):
        sf(m)
    info = sf.cache_info()
    assert info.maxsize == 1024
    assert info.currsize <= 1024
    assert sf(7) == first
    assert sf.cache_info().misses == info.misses + 1


def _planted(monkeypatch, n, delta):
    # superfactorial valuations with ``delta`` added to the packed value at m = n
    real = degrees_module._superfactorial_valuations
    monkeypatch.setattr(
        degrees_module,
        "_superfactorial_valuations",
        lambda m: real(m) + delta if m == n else real(m),
    )


def test_planted_negative_exponent_names_its_prime(monkeypatch):
    # 9! / hooks of [3,3,3] = 2 * 3 * 7; pull nu_5, then nu_7, down to -1: each
    # fault names the prime it was planted at, as the primes below it keep theirs
    lam = P(3, 3, 3)
    assert degree(lam.runs).factors == ((2, 1), (3, 1), (7, 1))
    for index, prime, drop in ((2, 5, 1), (3, 7, 2)):
        with monkeypatch.context() as patch:
            _planted(patch, 9, -(drop << (64 * index)))
            with pytest.raises(NotDivisible) as caught:
                degree(lam.runs)
        assert str(caught.value) == (
            f"prime {prime} divides the hook product of [3,3,3] more often than 9!"
        )
    # two negative fields: the lower prime is named
    with monkeypatch.context() as patch:
        _planted(patch, 9, -(2 << 64) - (2 << 192))
        with pytest.raises(NotDivisible, match="^prime 3 divides"):
            degree(lam.runs)
    # a sum too wide for pi(9) = 4 fields is the same fault
    with monkeypatch.context() as patch:
        _planted(patch, 9, 1 << (64 * 4))
        with pytest.raises(NotDivisible, match=r"hook product of \[3,3,3\] is out of range"):
            degree(lam.runs)
    assert degree(lam.runs).factors == ((2, 1), (3, 1), (7, 1))


def _expected_verdict(parts, n, host, divisor, hook_degree):
    # the four witness conditions by the independent routes, in verification order
    # beta-sets of the common length len(parts): part i (from 0) is bead a + len - 1 - i
    core = (n % host,) if n % host else ()
    padded_core = core + (0,) * (len(parts) - len(core))
    beads, core_beads = ([a - i for i, a in enumerate(x, 1 - len(parts))] for x in (parts, padded_core))
    if oracle.residue_counts(beads, host) != oracle.residue_counts(core_beads, host):
        return f"outside the principal {host}-block"
    if oracle.padic_valuation(hook_degree, host) != 0:
        return f"degree divisible by host prime {host}"
    if oracle.padic_valuation(hook_degree, divisor) < 1:
        return f"degree not divisible by {divisor}"
    if oracle.conjugate(parts) == parts:
        return "self-conjugate"
    return None


def test_degree_matches_hook_product_on_construction_grid():
    # every candidate shape the constructor may verify, n <= 128, tried or not;
    # the runs-based verdict must be the one the built partition gets from the
    # independent routes of _oracles
    for n in range(9, 129):
        primes = primes_up_to(n)
        for p in primes:
            if n // p <= 1:
                continue
            for q in primes:
                if q >= p:
                    continue
                for candidate in candidates(derive_case_parameters(n, p, q)):
                    lam = candidate.spec.to_partition()
                    assert conjugate(lam).parts == oracle.conjugate(lam.parts), lam
                    hook_degree = oracle.hook_product_degree(lam.parts)
                    assert degree(lam.runs).to_int() == hook_degree, lam
                    packed = packed_degree(lam.runs, n)
                    for prime in primes:
                        assert packed_exponent(packed, prime) == oracle.padic_valuation(
                            hook_degree, prime
                        ), (lam, prime)
                    outcome = verify_candidate(candidate, n)
                    assert outcome.partition == lam
                    expected = _expected_verdict(
                        lam.parts, n, candidate.host_prime, candidate.divisor_prime, hook_degree
                    )
                    if expected is None:
                        assert isinstance(outcome, Witness), (n, p, q, candidate)
                        assert outcome.degree.to_int() == hook_degree
                    else:
                        assert outcome.reason == expected, (n, p, q, candidate)


def test_degree_matches_hook_product_random_shapes():
    rng = random.Random(20260)
    for n in list(range(0, 301, 7)) + [300] * 20:
        parts = oracle.random_partition(rng, n)
        runs = from_parts(parts).runs
        hook_degree = oracle.hook_product_degree(parts)
        assert degree(runs).to_int() == hook_degree, parts
        assert exact_degree(runs, n) == hook_degree, parts


def test_degree_edge_shapes():
    assert degree(from_parts(()).runs) == FactoredNatural()
    assert exact_degree(from_parts(()).runs, 0) == 1
    for n in (1, 2, 9, 40):
        for parts in ((n,), (1,) * n):
            assert degree(from_parts(parts).runs) == FactoredNatural()
            assert exact_degree(from_parts(parts).runs, n) == 1
    for k in (1, 2, 3, 5, 8):
        square = (k,) * k
        hook_degree = oracle.hook_product_degree(square)
        assert degree(from_parts(square).runs).to_int() == hook_degree
        assert exact_degree(from_parts(square).runs, k * k) == hook_degree
    # the 3 x 3 square: 9! / (5 * 4^2 * 3^3 * 2^2 * 1) = 42
    assert degree(P(3, 3, 3).runs).factors == ((2, 1), (3, 1), (7, 1))
    assert exact_degree(P(3, 3, 3).runs, 9) == 42


def test_degree_of_runs_summing_to_another_n_raises():
    # [3] is no partition of 2: its hook product 6 does not divide 2!, and
    # neither the exact nor the packed degree returns a value
    for compute in (exact_degree, packed_degree):
        with pytest.raises(NotDivisible):
            compute(((3, 1),), 2)


def test_planted_negative_sum_fails_the_sign_check(monkeypatch):
    # a negative sum shifts to -1 past the fields: it fits pi(9) = 4 signed
    # fields with the top one negative, or it does not fit at all
    lam = P(3, 3, 3)
    with monkeypatch.context() as patch:
        _planted(patch, 9, -(1 << 255))
        with pytest.raises(NotDivisible) as caught:
            degree(lam.runs)
    assert str(caught.value) == "prime 7 divides the hook product of [3,3,3] more often than 9!"
    with monkeypatch.context() as patch:
        _planted(patch, 9, -(1 << 256))
        with pytest.raises(NotDivisible, match=r"hook product of \[3,3,3\] is out of range"):
            degree(lam.runs)


def test_planted_fault_below_the_divisor_raises_in_verification(monkeypatch):
    # I.b at (17, 7, 3) is (1^11, 3, 3) and fails only its divisor check; its
    # 3-field is 0, so its 2-field set to -1 borrows that to all ones: a reader
    # of fields without the sign check would pass the divisor, and the checked
    # sum must raise instead of returning either verdict
    first = next(candidates(derive_case_parameters(17, 7, 3)))
    assert (first.case_id, first.divisor_prime) == ("I.b", 3)
    outcome = verify_candidate(first, 17)
    assert isinstance(outcome, VerificationFailure)
    assert outcome.reason == "degree not divisible by 3"
    packed = packed_degree(outcome.partition.runs, 17)
    assert (packed_exponent(packed, 2), packed_exponent(packed, 3)) == (4, 0)
    with monkeypatch.context() as patch:
        _planted(patch, 17, -5)
        with pytest.raises(NotDivisible) as caught:
            verify_candidate(first, 17)
    assert str(caught.value) == (
        "prime 2 divides the hook product of [3,3,1,1,1,1,1,1,1,1,1,1,1] more often than 17!"
    )
