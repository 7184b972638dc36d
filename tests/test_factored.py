import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import _oracles as oracle
from blockwitness.degrees import degree
from blockwitness.factored import (
    FactoredNatural,
    factor,
    factorial_factored,
    factorial_valuation,
    is_prime,
    primes_up_to,
)
from blockwitness.partitions import partitions_of


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
    assert factorial_factored(0) == fn({})
    assert factorial_factored(4) == fn({2: 3, 3: 1})
    # direct product oracle 1..10
    assert factorial_factored(10) == factor(math.prod(range(1, 11)))
    assert factorial_factored(10).factors == ((2, 8), (3, 4), (5, 2), (7, 1))


def test_to_decimal_examples():
    assert fn({}).to_decimal() == "1"
    assert fn({2: 2, 3: 1}).to_decimal() == "12"
    assert factorial_factored(12).to_decimal() == str(math.prod(range(1, 13)))
    assert factorial_factored(12).to_decimal() == "479001600"


def test_factored_str():
    assert fn({}).factored_str() == "1"
    assert fn({2: 3}).factored_str() == "2^3"
    assert fn({2: 2, 3: 2}).factored_str() == "2^2*3^2"
    assert fn({5: 1}).factored_str() == "5"


def test_validation():
    with pytest.raises(ValueError):
        FactoredNatural(((4, 1),))  # not prime
    with pytest.raises(ValueError):
        FactoredNatural(((2, 0),))  # zero exponent
    with pytest.raises(ValueError):
        FactoredNatural(((3, 1), (2, 1)))  # out of order
    with pytest.raises(ValueError):
        fn({2: -1})  # negative exponent
    for bad in ((("2", True),), ((2, True),), ((2.0, 1),), ((True, 1),)):
        with pytest.raises(TypeError):
            FactoredNatural(bad)


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
    # results built without re-validation must pass the public constructor
    values = [factor(k) for k in range(1, 400)]
    values += [factorial_factored(k) for k in range(0, 60)]
    values += [degree(lam) for n in range(0, 13) for lam in partitions_of(n)]
    for value in values:
        assert FactoredNatural(value.factors) == value


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
        assert factorial_factored(k).to_int() == running


def test_factorial_valuation_matches_factorization():
    for k in (0, 1, 7, 30, 97):
        for p in (2, 3, 5, 13):
            assert factorial_valuation(k, p) == factorial_factored(k).valuation(p)


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
