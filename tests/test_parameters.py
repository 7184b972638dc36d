import pytest

from blockwitness.oracle import prime_pairs
from blockwitness.parameters import CaseParameters, derive_case_parameters


def _nonzero_digits(x, base):
    # (digit, position) of every nonzero base-`base` digit of x, lowest first,
    # by repeated divmod; independent of the library's lowest-summand search
    digits, position = [], 0
    while x:
        x, d = divmod(x, base)
        if d:
            digits.append((d, position))
        position += 1
    return digits


def test_spot_records():
    params = derive_case_parameters(9, 3, 2)
    assert (params.m, params.b, params.w, params.r) == (3, 0, 4, 1)
    assert params.n == 9 and params.p == 3 and params.q == 2


def test_normalization_swap():
    assert derive_case_parameters(9, 2, 3) == derive_case_parameters(9, 3, 2)


def test_digit_expansions():
    params = derive_case_parameters(10, 5, 2)
    assert (params.m, params.b, params.w, params.r) == (2, 0, 5, 0)
    assert params.mp == 10
    assert params.low_q_part == 2
    assert params.low_p_part == 10
    assert params.deferral is None


def test_expansions_reconstruct():
    for n in range(2, 301):
        for p, q in prime_pairs(n):
            params = derive_case_parameters(n, p, q)
            m, b = n // p, n % p
            mp = m * p
            assert (params.m, params.b, params.mp) == (m, b, mp)
            assert (params.w, params.r) == (mp // q, mp % q)
            q_digits = _nonzero_digits(mp, q)
            p_digits = _nonzero_digits(mp, p)
            assert sum(d * q**t for d, t in q_digits) == mp
            assert sum(d * p**s for d, s in p_digits) == mp
            (a1, t1), (b1, s1) = q_digits[0], p_digits[0]
            assert params.low_q_part == a1 * q**t1
            assert params.low_p_part == b1 * p**s1
            assert params.low_p_part % p == 0
            assert (params.low_q_part % q == 0) == (params.r == 0)


def test_error_cases():
    with pytest.raises(ValueError, match=r"^4 is not prime$"):
        derive_case_parameters(10, 4, 2)
    with pytest.raises(ValueError, match=r"^6 is not prime$"):
        derive_case_parameters(10, 5, 6)
    with pytest.raises(ValueError, match=r"^prime 11 exceeds n = 10$"):
        derive_case_parameters(10, 11, 2)
    with pytest.raises(ValueError, match=r"^prime 5 exceeds n = 4$"):
        derive_case_parameters(4, 3, 5)
    with pytest.raises(ValueError, match=r"^primes must be distinct, got \(5, 5\)$"):
        derive_case_parameters(10, 5, 5)
    with pytest.raises(ValueError, match=r"^n must be >= 1, got 0$"):
        derive_case_parameters(0, 3, 2)


def test_record_validation():
    # the record holds (n, p, q) only; anything outside 2 <= q < p <= n is
    # refused before the digit search could loop on a base below 2 or m*p = 0
    for n, p, q in ((9, 2, 3), (9, 3, 3), (3, 5, 2), (9, 3, 1)):
        with pytest.raises(ValueError):
            CaseParameters(n, p, q)
