from collections import Counter

import pytest

import _oracles as oracle
from blockwitness.blocks import principal_block_contains
from blockwitness.cli import run
from blockwitness.degrees import degree
from blockwitness.factored import InternalInvariantError
from blockwitness.oracle import prime_pairs
from blockwitness.parameters import CaseParameters, derive_case_parameters
from blockwitness.partitions import AscendingSpec, from_parts
from blockwitness.witness import (
    CaseTreeFalsified,
    SpecSumMismatch,
    VerificationFailure,
    Witness,
    WitnessCandidate,
    _construct,
    candidates,
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
    first = next(candidates(params))
    assert first.case_id == "I.a"
    assert first.spec.blocks == ((1, 7), (2, 1))
    assert (first.host_prime, first.divisor_prime) == (3, 2)

    params10 = derive_case_parameters(10, 5, 2)
    first10 = next(candidates(params10))
    assert first10.case_id == "II.a"
    assert first10.spec.blocks == ((1, 7), (3, 1))


def test_guards():
    # a deferral is data: no candidates and no witness, the record says why
    for (n, p, q), regime in (((11, 7, 5), "abelian-sylow"), ((8, 3, 2), "small-n")):
        params = derive_case_parameters(n, p, q)
        assert params.deferral == regime
        assert tuple(candidates(params)) == ()
        assert construct_witness(n, p, q) is None


def test_every_candidate_failing_falsifies(monkeypatch):
    import blockwitness.witness as witness_module

    # the trivial character has degree 1, so it cannot carry the divisor prime
    def trivial_only(params):
        return (WitnessCandidate("I.a", AscendingSpec(((1, 0), (params.n, 1))), 3, 2),)

    monkeypatch.setattr(witness_module, "candidates", trivial_only)
    with pytest.raises(CaseTreeFalsified) as info:
        construct_witness(9, 3, 2)
    assert [f.reason for f in info.value.failures] == ["degree not divisible by 2"]
    assert construct_witness(8, 3, 2) is None


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


def test_violated_ic_bound_is_a_program_fault():
    # m > 1 gives r + 1 < wq in case I.c; with the bound broken by hand, the
    # first I.c spec (1^r, r+1, wq-1) decreases and its check is the fault
    params = derive_case_parameters(82, 5, 3)
    assert params.b == params.r == 2
    params = params._replace(w=1)
    with pytest.raises(InternalInvariantError) as info:
        _construct(params)
    assert "malformed candidate spec" in str(info.value)
    assert "weakly increasing" in str(info.value)


def test_violated_ii_c_alt_invariant_is_a_program_fault(monkeypatch, capsys):
    # (68, 3, 2): b = a1q = 2 and p = b + 1 divides m - 1 = 21, so II.c-alt is
    # listed, and the lowest base-p summand of mp = 66 is p = 3
    params = derive_case_parameters(68, 3, 2)
    assert [c.case_id for c in candidates(params)] == ["II.c", "II.c-alt", "II.c-alt-q2"]
    assert _construct(params).candidate.case_id == "II.c-alt"
    low_p_part = CaseParameters.low_p_part.fget

    def broken(record):
        return 9 if (record.n, record.p, record.q) == (68, 3, 2) else low_p_part(record)

    monkeypatch.setattr(CaseParameters, "low_p_part", property(broken))
    message = (
        "p = b+1 and p | m-1 must force the lowest base-p summand to be p"
        " at n=68, p=3, q=2"
    )
    with pytest.raises(InternalInvariantError) as info:
        next(candidates(params))
    assert str(info.value) == message
    assert run(["scan", "--n-min", "68", "--n-max", "68"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"internal-error: InternalInvariantError: {message}"
    # every other pair of n = 68 still prints its row, and the fault is counted
    assert len(lines) == len(list(prime_pairs(68))) + 1
    assert all(line.startswith("result n=68 ") for line in lines[1:-1])
    assert lines[-1].endswith(" falsified=1")


def test_witness_facts_recompute():
    for n, p, q in ((9, 3, 2), (17, 3, 2), (22, 3, 2), (23, 11, 3), (30, 7, 5)):
        w = construct_witness(n, p, q)
        host, divisor = w.candidate.host_prime, w.candidate.divisor_prime
        assert {host, divisor} == {p, q}
        lam = w.partition
        assert lam.size == n
        assert principal_block_contains(lam, host)
        deg = degree(lam.runs)
        assert deg == w.degree
        assert deg.valuation(host) == 0
        assert deg.valuation(divisor) >= 1
        assert not lam.is_self_conjugate()


def test_case_ids_closed():
    for n in range(9, 61):
        for p, q in prime_pairs(n):
            if n // p <= 1:
                continue
            for candidate in candidates(derive_case_parameters(n, p, q)):
                assert candidate.case_id in CASE_IDS
                assert {candidate.host_prime, candidate.divisor_prime} == {p, q}
                assert candidate.spec.to_partition().size == n


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
            prefix = next(candidates(params)).case_id.split(".")[0]
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
            listed = tuple(candidates(params))
            ids = [c.case_id for c in listed]
            if ids[0] == "I.c" and params.r >= 2:
                assert ids == ["I.c", "I.c-fallback1"]
            elif ids[0] == "II.c" and q == 2:
                assert ids[-1] == "II.c-alt-q2"
            else:
                continue
            assert isinstance(verify_candidate(listed[-1], n), Witness), (n, p, q)
            proved[ids[-1]] += 1
    assert proved == {"I.c-fallback1": 1237, "II.c-alt-q2": 152}


# the verifier's four checks, each named by how its failure reason begins
FAILED_CHECKS = (
    ("outside the principal", "block"),
    ("degree divisible by host prime", "host"),
    ("degree not divisible by", "divisor"),
    ("self-conjugate", "self-conjugate"),
)


def test_failure_tally_on_grid():
    # every candidate tried, in construct_witness's order, for every in-regime
    # tuple with 9 <= n <= 200: only the two valuation checks ever fail, and
    # III.b-final is never reached
    failed, tried = Counter(), set()
    for n in range(9, 201):
        for p, q in prime_pairs(n):
            params = derive_case_parameters(n, p, q)
            if params.deferral is not None:
                continue
            for candidate in candidates(params):
                tried.add(candidate.case_id)
                outcome = verify_candidate(candidate, n)
                if isinstance(outcome, Witness):
                    break
                check = next(
                    name for prefix, name in FAILED_CHECKS if outcome.reason.startswith(prefix)
                )
                failed[candidate.case_id, check] += 1
            else:
                pytest.fail(f"no candidate verified for n={n} p={p} q={q}")
    assert dict(failed) == {
        ("I.b", "divisor"): 1216,
        ("I.c", "divisor"): 91,
        ("I.c-fallback1", "divisor"): 41,
        ("II.b", "divisor"): 145,
        ("II.c-alt", "divisor"): 3,
        ("I.c", "host"): 13,
        ("II.c", "host"): 7,
        ("III.b", "host"): 2,
        ("III.b-alt1", "host"): 1,
    }
    assert tried == set(CASE_IDS) - {"III.b-final"}


def test_deep_case_three_chain():
    # b = p-1 = (q-a1)q^t1 with p | m-1 exercises the entire III.b fallback
    # order; smallest instance found for (p, q) = (11, 5)
    params = derive_case_parameters(2925, 11, 5)
    ids = [c.case_id for c in candidates(params)]
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
    candidate = next(candidates(params))
    failure = VerificationFailure(
        candidate, candidate.spec.to_partition(), "degree not divisible by 2"
    )
    exc = CaseTreeFalsified(params, [failure])
    assert exc.failures == [failure]
    assert str(exc) == (
        "no candidate verified for n=9 p=3 q=2"
        " (tried: I.a [2,1,1,1,1,1,1,1]: degree not divisible by 2)"
    )


def _generic_outcome(candidate, n):
    # the four conditions on the built partition, through the Partition-taking
    # membership test that tables and the oracle use
    lam = candidate.spec.to_partition()
    host, divisor = candidate.host_prime, candidate.divisor_prime
    deg = degree(lam.runs)
    if not principal_block_contains(lam, host):
        return VerificationFailure(candidate, lam, f"outside the principal {host}-block")
    if deg.valuation(host) != 0:
        return VerificationFailure(candidate, lam, f"degree divisible by host prime {host}")
    if deg.valuation(divisor) < 1:
        return VerificationFailure(candidate, lam, f"degree not divisible by {divisor}")
    if lam.is_self_conjugate():
        return VerificationFailure(candidate, lam, "self-conjugate")
    return Witness(candidate=candidate, partition=lam, degree=deg)


def _candidate(n, p, q, case_id):
    (found,) = [c for c in candidates(derive_case_parameters(n, p, q)) if c.case_id == case_id]
    return found


def test_runs_merge_equal_values():
    # (1^(wq-2), 1+r, 1+r): the two top parts form one run of length 2
    fallback = _candidate(82, 5, 3, "I.c-fallback1")
    assert fallback.spec.runs == ((3, 2), (1, 76))
    outcome = verify_candidate(fallback, 82)
    assert isinstance(outcome, Witness)
    assert outcome == _generic_outcome(fallback, 82) == construct_witness(82, 5, 3)
    # II.c's (b+1, b+1) at (12, 5, 2) and (24, 5, 2)
    for n, runs in ((12, ((3, 2), (1, 6))), (24, ((5, 2), (1, 14)))):
        record = _candidate(n, 5, 2, "II.c")
        assert record.spec.runs == runs
        assert verify_candidate(record, n) == _generic_outcome(record, n)


def test_runs_drop_the_empty_ones_block():
    # III.b-alt1 is (1^0, b+1, mp-1); at (108, 5, 3) it is the witness
    alt1 = _candidate(108, 5, 3, "III.b-alt1")
    assert alt1.spec.blocks[0] == (1, 0)
    assert alt1.spec.runs == ((104, 1), (4, 1))
    outcome = verify_candidate(alt1, 108)
    assert isinstance(outcome, Witness)
    assert outcome.partition.parts == (104, 4)
    assert outcome == _generic_outcome(alt1, 108) == construct_witness(108, 5, 3)


def test_candidate_partitions_are_canonical_on_grid():
    # every candidate the constructor may verify, n <= 128, tried or not: its
    # partition is built unchecked from the spec's runs, so they must be canonical
    for n in range(9, 129):
        for p, q in prime_pairs(n):
            if n // p <= 1:
                continue
            for candidate in candidates(derive_case_parameters(n, p, q)):
                lam = candidate.spec.to_partition()
                assert oracle.is_canonical_runs(lam.runs, n), candidate
                assert oracle.is_canonical_partition(lam.parts, n), candidate
                assert lam == from_parts(lam.parts), candidate


def test_runs_longer_than_p_and_p_above_length():
    # every (1^k, a, b) shape of n <= 16 against every prime up to n + 3,
    # which gives runs of ones far longer than p and hosts above the length
    primes = (2, 3, 5, 7, 11, 13, 17, 19)
    seen = {"run longer than p": 0, "p above length": 0}
    for n in range(1, 17):
        for a in range(1, n + 1):
            for b in range(a, n - a + 1):
                spec = AscendingSpec(((1, n - a - b), (a, 1), (b, 1)))
                parts = spec.to_partition().parts
                distinct = sorted(set(parts), reverse=True)
                assert spec.runs == tuple((v, parts.count(v)) for v in distinct)
                length, longest = len(parts), max(map(parts.count, distinct))
                for host in (x for x in primes if x <= n + 3):
                    for divisor in (2, 3):
                        if divisor == host:
                            continue
                        candidate = WitnessCandidate("I.a", spec, host, divisor)
                        assert verify_candidate(candidate, n) == _generic_outcome(candidate, n)
                    seen["run longer than p"] += longest > host
                    seen["p above length"] += host > length
    assert all(seen.values()), seen


def test_self_conjugate_candidate_is_refused():
    # (3, 1, 1) has length 3 = its first part, so the conjugate is built;
    # it is a 5-hook of degree 6, so only self-conjugacy fails
    candidate = WitnessCandidate("I.a", AscendingSpec(((1, 2), (3, 1))), 5, 3)
    outcome = verify_candidate(candidate, 5)
    assert isinstance(outcome, VerificationFailure)
    assert outcome.reason == "self-conjugate"
    assert outcome.partition.parts == (3, 1, 1)
    assert outcome == _generic_outcome(candidate, 5)
