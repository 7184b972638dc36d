import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

import _oracles as oracle
from _all_partitions import partitions_of
from blockwitness.degrees import degree
from blockwitness.factored import (
    DECIMAL_MAX_DIGITS,
    DigitLimitExceeded,
    FactoredNatural,
    factor,
    is_prime,
    parse_decimal,
    prime_index,
    primes_up_to,
)


def fn(mapping):
    return FactoredNatural(tuple(sorted(mapping.items())))


def test_factor_examples():
    assert factor(12).factors == ((2, 2), (3, 1))
    assert factor(1).factors == ()
    # big-product oracle: multiply 1..6 in plain integers, then factor
    value = math.prod(range(1, 7))
    assert value == 720
    assert factor(value).factors == ((2, 4), (3, 2), (5, 1))


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor(0)


def test_valuation_examples():
    assert fn({2: 3, 5: 1}).valuation(2) == 3
    assert fn({}).valuation(7) == 0
    assert factor(100).valuation(5) == 2


def test_factorial_examples():
    assert FactoredNatural(oracle.factorial_factors(0)) == fn({})
    assert FactoredNatural(oracle.factorial_factors(4)) == fn({2: 3, 3: 1})
    # direct product oracle 1..10
    assert FactoredNatural(oracle.factorial_factors(10)) == factor(math.prod(range(1, 11)))
    assert oracle.factorial_factors(10) == ((2, 8), (3, 4), (5, 2), (7, 1))


def test_to_decimal_examples():
    assert fn({}).to_decimal() == "1"
    assert fn({2: 2, 3: 1}).to_decimal() == "12"
    assert FactoredNatural(oracle.factorial_factors(12)).to_decimal() == str(math.prod(range(1, 13)))
    assert FactoredNatural(oracle.factorial_factors(12)).to_decimal() == "479001600"
    # beyond the interpreter's 4300-digit int/str limit
    assert fn({2: 5000, 5: 5000}).to_decimal() == "1" + "0" * 5000
    limit = sys.get_int_max_str_digits()
    try:
        # CPython's default limit, and one lowered below it by a library caller
        for interpreter_limit in (4300, 640):
            sys.set_int_max_str_digits(interpreter_limit)
            assert fn({2: 4400, 3: 1, 5: 4400}).to_decimal() == "3" + "0" * 4400
    finally:
        sys.set_int_max_str_digits(limit)


def test_parse_decimal_bound_is_the_packages_own():
    assert DECIMAL_MAX_DIGITS == 4300
    limit = sys.get_int_max_str_digits()
    try:
        # CPython's default limit, none at all, as in a CLI call, and one
        # lowered below the package's bound by a library caller
        for interpreter_limit in (4300, 0, 640):
            sys.set_int_max_str_digits(interpreter_limit)
            assert parse_decimal("9" * 4300) == 10**4300 - 1
            with pytest.raises(DigitLimitExceeded) as info:
                parse_decimal("1" * 4301)
            assert str(info.value) == "integer of 4301 digits exceeds the 4300-digit limit"
    finally:
        sys.set_int_max_str_digits(limit)


def test_factored_str():
    assert fn({}).factored_str() == "1"
    assert fn({2: 3}).factored_str() == "2^3"
    assert fn({2: 2, 3: 2}).factored_str() == "2^2*3^2"
    assert fn({5: 1}).factored_str() == "5"


def test_is_prime_beyond_trial_division():
    assert is_prime(2**61 - 1)
    assert is_prime(1000000000039) and is_prime(100000000000031)
    # strong pseudoprimes to bases 2..7 and to bases 2..23
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert not is_prime(1000000000039 * 1000003)
    sieve = set(primes_up_to(5000))
    assert [k for k in range(-2, 5000) if is_prime(k)] == sorted(sieve)
    with pytest.raises(ValueError):
        is_prime(3317044064679887385961981)  # least strong pseudoprime to bases 2..41


def test_internal_results_are_canonical():
    # the constructor checks nothing, so every producer's output is checked here
    values = [factor(k) for k in range(1, 400)]
    values += [degree(lam.runs) for n in range(0, 13) for lam in partitions_of(n)]
    for value in values:
        assert oracle.is_canonical_factorization(value.factors), value
    assert not oracle.is_canonical_factorization(((4, 1),))
    assert not oracle.is_canonical_factorization(((2, 0),))
    assert not oracle.is_canonical_factorization(((3, 1), (2, 1)))
    assert not oracle.is_canonical_factorization(((2, True),))


def test_equality_is_map_equality():
    assert factor(12) == fn({2: 2, 3: 1})
    assert factor(12) != factor(18)
    assert hash(factor(12)) == hash(fn({3: 1, 2: 2}))


def test_roundtrip_sample():
    rng = random.Random(11)
    for _ in range(2000):
        k = rng.randint(1, 10**6)
        assert factor(k).to_decimal() == str(k)


def test_legendre_consistency_up_to_200():
    running = 1
    for k in range(1, 201):
        running *= k
        assert math.prod(p ** oracle.factorial_valuation(k, p) for p in primes_up_to(k)) == running


def test_factorial_valuation_matches_factorization():
    for k in (0, 1, 7, 30, 97):
        reference = FactoredNatural(oracle.factorial_factors(k))
        for p in (2, 3, 5, 13):
            assert oracle.factorial_valuation(k, p) == reference.valuation(p)


def test_one_prime_table(monkeypatch):
    # every call slices one table, re-sieved to 2k when k reaches its last prime;
    # the list returned is the caller's own, and 9000 reads the part of the
    # table that the sieve for 5000 laid down past 5000
    import blockwitness.factored as factored_module

    monkeypatch.setattr(factored_module, "_PRIMES", [2])

    def trial_division(k):
        return [d for d in range(2, k + 1) if all(d % f for f in range(2, math.isqrt(d) + 1))]

    for k in (1000, 10, 0, 1, 2, 5000, 997, 9000):
        expected = trial_division(k)
        primes = primes_up_to(k)
        assert primes == expected, k
        primes.append(4)
        assert primes_up_to(k) == expected, k
    assert factored_module._PRIMES[-1] > 5000
    # degrees take their field order from the same table, grown past 5000 now
    for n in range(0, 13):
        for lam in partitions_of(n):
            assert degree(lam.runs).to_int() == oracle.hook_product_degree(lam.parts), lam


def test_prime_index_grows_the_table(monkeypatch):
    # a prime past the table's last one sieves further before it is looked up;
    # 7919 and 104729 are the 1,000th and 10,000th primes
    import blockwitness.factored as factored_module

    for p, index in ((7919, 999), (104729, 9999)):
        monkeypatch.setattr(factored_module, "_PRIMES", [2])
        assert prime_index(p) == index
        assert primes_up_to(p).index(p) == index


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert all(is_prime(p) for p in primes_up_to(200))
    assert not any(is_prime(k) for k in (0, 1, 4, 9, 100))


@settings(max_examples=300, derandomize=True)
@given(
    st.integers(min_value=1, max_value=10**5),
    st.integers(min_value=1, max_value=10**5),
    st.sampled_from([2, 3, 5, 7, 11]),
)
def test_valuation_additive(a, b, p):
    fa, fb = factor(a), factor(b)
    assert factor(a * b).valuation(p) == fa.valuation(p) + fb.valuation(p)
    assert fa.valuation(p) == oracle.padic_valuation(a, p)
