"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
The randomized suites use a fixed default seed, overridable through the
BLOCKWITNESS_TEST_SEED environment variable.
"""

import math
import os
import random
from functools import lru_cache

import _oracles as oracle_helpers
from _all_partitions import conjugate, degree_valuation, p_quotient, partitions_of, weight
from blockwitness.blocks import principal_block_contains
from blockwitness.degrees import degree
from blockwitness.factored import factor, primes_up_to
from blockwitness.oracle import (
    _multipartition_count,
    _prime_view,
    check_conjC,
    cross_validate,
    prime_pairs,
)
from blockwitness.partitions import from_parts, runner_counts
from blockwitness.tables import audit, build_sn_summary, parse_table, serialize_table
from blockwitness.witness import construct_witness

DEFAULT_SEED = 20260810
SEED = int(os.environ.get("BLOCKWITNESS_TEST_SEED", DEFAULT_SEED))
CASES = 10_000
# criterion 2 builds both principal sets of every tuple; criterion 3 audits
# each witness alone, so it reaches much further for the same time
CRITERION_2_MAX_N = 34
CRITERION_3_MAX_N = 120
# criterion 4 compares the principal sets themselves up to its first bound,
# then only their certified sizes, which need no set built
CRITERION_4_SET_MAX_N = 24
CRITERION_4_COUNT_MAX_N = 1000


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n{criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion} failed: {detail}"


def _construction_grid(n_max: int):
    for n in range(9, n_max + 1):
        for p, q in prime_pairs(n):
            if n // p > 1:
                yield n, p, q


def test_criterion_1_witness_totality():
    failures = []
    tuples = 0
    for n, p, q in _construction_grid(30):
        tuples += 1
        try:
            construct_witness(n, p, q)
        except Exception as exc:  # noqa: BLE001 - every escape is a defect here
            failures.append((n, p, q, repr(exc)))
    _report(
        "criterion-1 witness-totality",
        not failures,
        f"{tuples} tuples over n=9..30, failures={failures}",
    )


def test_criterion_2_oracle_existence():
    missing = []
    tuples = 0
    for n in range(9, CRITERION_2_MAX_N + 1):
        for p, q in prime_pairs(n):
            tuples += 1
            for group in ("sn", "an"):
                if not check_conjC(n, p, q, group).condition_holds:
                    missing.append((n, p, q, group))
    _report(
        "criterion-2 oracle-existence",
        not missing,
        f"{tuples} tuples x 2 groups over n=9..{CRITERION_2_MAX_N}, empty={missing}",
    )


def test_criterion_3_constructor_oracle_agreement():
    disagreements = []
    checked = 0
    for n, p, q in _construction_grid(CRITERION_3_MAX_N):
        result = cross_validate(n, p, q)
        assert result.deferral is None
        checked += 1
        if not result.oracle_agrees:
            disagreements.append((n, p, q, result.case_id))
    _report(
        "criterion-3 constructor-oracle-agreement",
        not disagreements,
        f"{checked} constructed witnesses over n=9..{CRITERION_3_MAX_N} all audited,"
        f" disagreements={disagreements}",
    )


_memoised_multipartition_count = lru_cache(maxsize=None)(_multipartition_count)


def _principal_count(n: int, p: int) -> int:
    # |Irr_p'(B_0(S_n))| = prod_{k >= 1} m(p^k, a_k) with n = sum a_k p^k in
    # base p (Macdonald), the count the digit lift certifies its set against
    count, rest, e = 1, n // p, p
    while rest:
        rest, a = divmod(rest, p)
        count *= _memoised_multipartition_count(e, a)
        e *= p
    return count


def test_criterion_4_conjecture_b_non_violation():
    violations = []
    pairs = 0
    for n in range(2, CRITERION_4_SET_MAX_N + 1):
        for p, q in prime_pairs(n):
            pairs += 1
            set_p, set_q = _prime_view(n, p), _prime_view(n, q)
            generated = len(set_p), len(set_q)
            assert generated == (_principal_count(n, p), _principal_count(n, q)), (n, p, q)
            if set_p == set_q:
                violations.append((n, p, q))
    # sets of different sizes differ, so pairwise distinct sizes at n rule
    # out every coinciding pair there
    counted = 0
    for n in range(CRITERION_4_SET_MAX_N + 1, CRITERION_4_COUNT_MAX_N + 1):
        sizes = [_principal_count(n, p) for p in primes_up_to(n)]
        counted += len(sizes) * (len(sizes) - 1) // 2
        if len(set(sizes)) != len(sizes):
            violations.append((n, "equal sizes"))
    _report(
        "criterion-4 conjecture-b-non-violation",
        not violations,
        f"{pairs} prime pairs over n=2..{CRITERION_4_SET_MAX_N} by sets and {counted}"
        f" over n={CRITERION_4_SET_MAX_N + 1}..{CRITERION_4_COUNT_MAX_N} by certified sizes,"
        f" violations={violations}",
    )


def test_criterion_5_spot_values():
    w9 = construct_witness(9, 3, 2)
    w10 = construct_witness(10, 5, 2)
    side_p_9 = check_conjC(9, 3, 2, "sn").witnesses_p_block
    side_p_10 = check_conjC(10, 5, 2, "sn").witnesses_p_block
    expected_9 = from_parts((2, 1, 1, 1, 1, 1, 1, 1))
    expected_10 = from_parts((3, 1, 1, 1, 1, 1, 1, 1))
    ok = (
        w9.candidate.case_id == "I.a"
        and w9.partition == expected_9
        and w9.degree.to_decimal() == "8"
        and expected_9 in side_p_9
        and oracle_helpers.syt_count(expected_9.parts) == 8
        and w10.candidate.case_id == "II.a"
        and w10.partition == expected_10
        and w10.degree.to_decimal() == "36"
        and expected_10 in side_p_10
        and oracle_helpers.syt_count(expected_10.parts) == 36
    )
    _report(
        "criterion-5 spot-values",
        ok,
        f"(9,3,2)->{w9.candidate.case_id} {w9.partition.to_literal()} deg {w9.degree.to_decimal()};"
        f" (10,5,2)->{w10.candidate.case_id} {w10.partition.to_literal()} deg {w10.degree.to_decimal()}",
    )


def test_criterion_6_representation_identities():
    bad_square_sums = [
        n
        for n in range(0, 21)
        if sum(degree(lam.runs).to_int() ** 2 for lam in partitions_of(n)) != math.factorial(n)
    ]

    bad_block_counts = []
    for n in range(1, 21):
        for p in primes_up_to(n):
            weight = (n - n % p) // p
            expected = oracle_helpers.multipartition_count(p, weight)
            members = sum(1 for lam in partitions_of(n) if principal_block_contains(lam, p))
            if members != expected:
                bad_block_counts.append((n, p))

    bad_cores = []
    for n in range(0, 13):
        for lam in partitions_of(n):
            for p in (2, 3, 5, 7):
                cores = oracle_helpers.exhaustive_cores(lam.parts, p)
                if len(cores) != 1 or runner_counts(lam.runs, p) != oracle_helpers.residue_counts(
                    oracle_helpers.beta_set(next(iter(cores)), lam.length), p
                ):
                    bad_cores.append((lam.parts, p))

    ok = not (bad_square_sums or bad_block_counts or bad_cores)
    _report(
        "criterion-6 representation-identities",
        ok,
        "sum-of-squares n<=20, block sizes vs multipartition counts n<=20,"
        f" abacus vs stripping n<=12; failures={bad_square_sums + bad_block_counts + bad_cores}",
    )


def test_criterion_7_table_audit():
    round_trip_failures = []
    for n in range(1, 13):
        primes = tuple(p for p in (2, 3, 5) if p <= n)
        summary = build_sn_summary(n, primes)
        if parse_table(serialize_table(summary)) != summary:
            round_trip_failures.append(n)

    audit_mismatches = []
    for n in range(9, 21):
        primes = tuple(primes_up_to(n))
        summary = build_sn_summary(n, primes)
        for finding in audit(summary, "C"):
            oracle_holds = check_conjC(n, finding.p, finding.q, "sn").condition_holds
            # exported tables carry non-commuting facts, so the verdict is
            # consistent exactly when a cross-divisible witness exists
            if (finding.verdict == "consistent") != oracle_holds:
                audit_mismatches.append((n, finding.p, finding.q, "C"))
        for finding in audit(summary, "B"):
            equal = _prime_view(n, finding.p) == _prime_view(n, finding.q)
            if (finding.verdict == "violation") != equal:
                audit_mismatches.append((n, finding.p, finding.q, "B"))
            if finding.verdict == "violation":
                audit_mismatches.append((n, finding.p, finding.q, "B-violation"))

    mutation_caught = False
    text = serialize_table(build_sn_summary(8, (2, 3, 5))).decode("utf-8")
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("char [6,2]"):
            tokens = line.split()
            tokens[2] = str(int(tokens[2]) + 6)
            lines[i] = " ".join(tokens)
    try:
        parse_table("\n".join(lines))
    except Exception:
        mutation_caught = True

    ok = not round_trip_failures and not audit_mismatches and mutation_caught
    _report(
        "criterion-7 table-audit",
        ok,
        f"round-trip n<=12 failures={round_trip_failures};"
        f" audit-vs-oracle n=9..20 mismatches={audit_mismatches};"
        f" degree mutation caught={mutation_caught}",
    )


def test_criterion_8_property_suites():
    rng = random.Random(SEED)
    failures = []

    for _ in range(CASES):
        lam = from_parts(oracle_helpers.random_partition(rng, rng.randint(0, 40)))
        conj = conjugate(lam)
        if conjugate(conj) != lam or conj.parts != oracle_helpers.conjugate(lam.parts):
            failures.append(("conjugation-involution", lam.parts))
            break

    for _ in range(CASES):
        lam = from_parts(oracle_helpers.random_partition(rng, rng.randint(0, 40)))
        hooks = sorted(oracle_helpers.hooks(lam.parts))
        if hooks != sorted(oracle_helpers.hooks(conjugate(lam).parts)):
            failures.append(("hook-multiset-invariance", lam.parts))
            break

    for _ in range(CASES):
        lam = from_parts(oracle_helpers.random_partition(rng, rng.randint(0, 40)))
        p = rng.choice((2, 3, 5, 7, 11))
        found = weight(lam, p)
        divisible = sum(1 for h in oracle_helpers.hooks(lam.parts) if h % p == 0)
        if found != divisible or found != sum(c.size for c in p_quotient(lam, p)):
            failures.append(("weight-quotient-hooks", lam.parts, p))
            break

    for _ in range(CASES):
        k = rng.randint(1, 10**6)
        if factor(k).to_decimal() != str(k):
            failures.append(("factor-round-trip", k))
            break
        a, b = rng.randint(1, 10**4), rng.randint(1, 10**4)
        if factor(a * b).valuation(2) != factor(a).valuation(2) + factor(b).valuation(2):
            failures.append(("valuation-additive", a, b))
            break

    _report(
        "criterion-8 property-suites",
        not failures,
        f"4 suites x {CASES} cases, seed={SEED}, failures={failures}",
    )


def test_constructed_witnesses_recheck_from_scratch():
    # every witness in the acceptance range satisfies all four facts under
    # recomputation through the public combinatorics API
    for n, p, q in _construction_grid(30):
        w = construct_witness(n, p, q)
        lam = w.partition
        host, divisor = w.candidate.host_prime, w.candidate.divisor_prime
        assert lam.size == n
        assert principal_block_contains(lam, host)
        assert degree_valuation(lam, host) == 0
        assert degree_valuation(lam, divisor) >= 1
        assert not lam.is_self_conjugate()
