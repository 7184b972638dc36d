import pytest

from blockwitness.blocks import principal_block_contains
from blockwitness.degrees import degree
from blockwitness.oracle import prime_pairs
from blockwitness.parameters import derive_case_parameters
from blockwitness.partitions import AscendingSpec
from blockwitness.witness import (
    CaseTreeFalsified,
    SpecSumMismatch,
    VerificationFailure,
    Witness,
    WitnessCandidate,
    WitnessDeferred,
    candidate_list,
    construct_witness,
    verify_candidate,
)

# every case id the witness module docstring's table names, in its order
CASE_IDS = (
    "I.a",
    "I.b",
    "I.b-fallback",
    "I.c",
    "I.c-fallback1",
    "I.c-fallback2-r1",
    "I.c-fallback2-q2",
    "II.a",
    "II.b",
    "II.b-fallback",
    "II.c",
    "II.c-alt",
    "II.c-alt-q2",
    "III.a",
    "III.b",
    "III.b-alt1",
    "III.b-alt2",
    "III.b-final",
)


def test_first_candidates():
    params = derive_case_parameters(9, 3, 2)
    first = candidate_list(params)[0]
    assert first.case_id == "I.a"
    assert first.spec.blocks == ((1, 7), (2, 1))
    assert (first.host_prime, first.divisor_prime) == (3, 2)

    params10 = derive_case_parameters(10, 5, 2)
    first10 = candidate_list(params10)[0]
    assert first10.case_id == "II.a"
    assert first10.spec.blocks == ((1, 7), (3, 1))


def test_guards():
    with pytest.raises(WitnessDeferred) as info:
        candidate_list(derive_case_parameters(11, 7, 5))
    assert info.value.regime == "abelian-sylow"
    with pytest.raises(WitnessDeferred) as info:
        candidate_list(derive_case_parameters(8, 3, 2))
    assert info.value.regime == "small-n"
    with pytest.raises(WitnessDeferred) as info:
        construct_witness(8, 3, 2)
    assert info.value.regime == "small-n"


def test_spot_witnesses():
    w = construct_witness(9, 3, 2)
    assert w.candidate.case_id == "I.a"
    assert w.partition.parts == (2, 1, 1, 1, 1, 1, 1, 1)
    assert w.degree.to_decimal() == "8"
    assert (w.candidate.host_prime, w.candidate.divisor_prime) == (3, 2)

    w10 = construct_witness(10, 5, 2)
    assert w10.candidate.case_id == "II.a"
    assert w10.partition.parts == (3, 1, 1, 1, 1, 1, 1, 1)
    assert w10.degree.to_decimal() == "36"


def test_prime_order_irrelevant():
    assert construct_witness(9, 2, 3) == construct_witness(9, 3, 2)


def test_corrupted_specs():
    with pytest.raises(SpecSumMismatch):
        verify_candidate(
            WitnessCandidate("I.a", AscendingSpec(((1, 5), (3, 1))), 3, 2), 9
        )
    # degree 1 cannot carry the divisor prime
    trivial = WitnessCandidate("I.a", AscendingSpec(((1, 0), (9, 1))), 3, 2)
    outcome = verify_candidate(trivial, 9)
    assert isinstance(outcome, VerificationFailure)
    assert "not divisible" in outcome.reason
    # swapped host/divisor roles fail the host-coprimality check
    swapped = WitnessCandidate("I.a", AscendingSpec(((1, 7), (2, 1))), 2, 3)
    outcome = verify_candidate(swapped, 9)
    assert isinstance(outcome, VerificationFailure)
    # the shape (3, 1^6) happens to be another valid witness at (9, 3, 2):
    # a perturbed spec is accepted exactly when it satisfies all four facts
    perturbed = WitnessCandidate("I.a", AscendingSpec(((1, 6), (3, 1))), 3, 2)
    accepted = verify_candidate(perturbed, 9)
    assert isinstance(accepted, Witness)
    assert accepted.degree.to_decimal() == "28"


def test_witness_facts_recompute():
    for n, p, q in ((9, 3, 2), (17, 3, 2), (22, 3, 2), (23, 11, 3), (30, 7, 5)):
        w = construct_witness(n, p, q)
        host, divisor = w.candidate.host_prime, w.candidate.divisor_prime
        assert {host, divisor} == {p, q}
        lam = w.partition
        assert lam.size == n
        assert principal_block_contains(lam, host)
        deg = degree(lam)
        assert deg == w.degree
        assert deg.valuation(host) == 0
        assert deg.valuation(divisor) == w.divisor_valuation >= 1
        assert not lam.is_self_conjugate()


def test_case_ids_closed():
    for n in range(9, 61):
        for p, q in prime_pairs(n):
            if n // p <= 1:
                continue
            for candidate in candidate_list(derive_case_parameters(n, p, q)):
                assert candidate.case_id in CASE_IDS
                assert {candidate.host_prime, candidate.divisor_prime} == {p, q}
                assert candidate.spec.total == n


def test_routing_is_total_and_deterministic():
    for n in range(9, 61):
        for p, q in prime_pairs(n):
            if n // p <= 1:
                continue
            params = derive_case_parameters(n, p, q)
            in_case_1 = params.r > 0
            in_case_2 = params.r == 0 and params.low_q_part < params.low_p_part
            in_case_3 = params.r == 0 and params.low_q_part > params.low_p_part
            assert in_case_1 + in_case_2 + in_case_3 == 1
            prefix = candidate_list(params)[0].case_id.split(".")[0]
            assert prefix == ("I", "II", "III")[in_case_2 + 2 * in_case_3]


def test_totality_on_grid():
    # construction only (no oracle); well beyond the acceptance ceiling
    for n in range(9, 81):
        for p, q in prime_pairs(n):
            if n // p <= 1:
                continue
            assert isinstance(construct_witness(n, p, q), Witness)


def test_rare_branch_regressions():
    # prose-gap regime: q odd, r = b = 1, q does not divide w
    for n, p, q in ((23, 11, 3), (26, 5, 3)):
        w = construct_witness(n, p, q)
        assert w.candidate.case_id == "I.c-fallback2-r1"
        assert w.partition.parts == (2,) + (1,) * (n - 2)
        assert w.candidate.host_prime == q and w.candidate.divisor_prime == p
    # q = 2 tail of case I.c
    w22 = construct_witness(22, 3, 2)
    assert w22.candidate.case_id == "I.c-fallback2-q2"
    assert w22.partition.parts == (2,) + (1,) * 20
    assert w22.degree.to_decimal() == "21"
    # doubly-exceptional I.c regime: the first fallback already verifies
    w82 = construct_witness(82, 5, 3)
    assert w82.candidate.case_id == "I.c-fallback1"


def test_proved_candidates_verify_on_grid():
    # the two proofs in the witness docstring, checked for n <= 300: with
    # r >= 2 every I.c record's I.c-fallback1 verifies, and with q = 2 every
    # II.c record's II.c-alt-q2 verifies
    proved = {"I.c-fallback1": 0, "II.c-alt-q2": 0}
    for n in range(9, 301):
        for p, q in prime_pairs(n):
            if n // p <= 1:
                continue
            params = derive_case_parameters(n, p, q)
            candidates = candidate_list(params)
            ids = [c.case_id for c in candidates]
            if ids[0] == "I.c" and params.r >= 2:
                assert ids == ["I.c", "I.c-fallback1"]
            elif ids[0] == "II.c" and q == 2:
                assert ids[-1] == "II.c-alt-q2"
            else:
                continue
            assert isinstance(verify_candidate(candidates[-1], n), Witness), (n, p, q)
            proved[ids[-1]] += 1
    assert proved == {"I.c-fallback1": 1237, "II.c-alt-q2": 152}


def test_deep_case_three_chain():
    # b = p-1 = (q-a1)q^t1 with p | m-1 exercises the entire III.b fallback
    # order; smallest instance found for (p, q) = (11, 5)
    params = derive_case_parameters(2925, 11, 5)
    ids = [c.case_id for c in candidate_list(params)]
    assert ids == ["III.b", "III.b-alt1", "III.b-alt2", "III.b-final"]
    w = construct_witness(2925, 11, 5)
    assert w.candidate.case_id == "III.b-final"
    assert w.candidate.host_prime == 5 and w.candidate.divisor_prime == 11


def test_alt_branches_regressions():
    w = construct_witness(68, 3, 2)
    assert w.candidate.case_id == "II.c-alt"
    w2 = construct_witness(32, 3, 2)
    assert w2.candidate.case_id == "II.c-alt-q2"
    assert w2.candidate.host_prime == 2
    w3 = construct_witness(108, 5, 3)
    assert w3.candidate.case_id == "III.b-alt1"
    w4 = construct_witness(109, 5, 3)
    assert w4.candidate.case_id == "III.b-alt2"


def test_falsification_message_lists_each_failure():
    params = derive_case_parameters(9, 3, 2)
    candidate = candidate_list(params)[0]
    failure = VerificationFailure(
        candidate, candidate.spec.to_partition(), "degree not divisible by 2"
    )
    exc = CaseTreeFalsified(params, [failure])
    assert exc.failures == [failure]
    assert str(exc) == (
        "no candidate verified for n=9 p=3 q=2"
        " (tried: I.a [2,1,1,1,1,1,1,1]: degree not divisible by 2)"
    )
