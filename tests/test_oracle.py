from functools import lru_cache

import pytest

import _all_partitions as every
import _oracles as ref
from blockwitness.blocks import principal_block_contains
from blockwitness.factored import primes_up_to
from blockwitness.oracle import (
    CrossValidation,
    _prime_view,
    check_conjC,
    cross_validate,
    divides,
    in_principal_block,
    prime_pairs,
)
from blockwitness.parameters import derive_case_parameters
from blockwitness.partitions import AscendingSpec, from_parts
from blockwitness.witness import WitnessCandidate, _construct, construct_witness


def P(*parts):
    return from_parts(parts)


def test_witness_sets_examples():
    assert P(2, 1, 1, 1, 1, 1, 1, 1) in check_conjC(9, 3, 2, "sn").witnesses_p_block
    assert P(2, 1, 1, 1, 1, 1, 1, 1) in check_conjC(9, 3, 2, "an").witnesses_p_block
    # n < 9 computes without any existence claim
    small = check_conjC(4, 3, 2, "sn")
    assert isinstance(small.witnesses_p_block, frozenset)
    assert isinstance(small.witnesses_q_block, frozenset)


def test_witness_sets_an_excludes_self_conjugate():
    sn, an = check_conjC(9, 3, 2, "sn"), check_conjC(9, 3, 2, "an")
    side_p, side_q = sn.witnesses_p_block, sn.witnesses_q_block
    side_p_an, side_q_an = an.witnesses_p_block, an.witnesses_q_block
    assert side_p_an <= side_p and side_q_an <= side_q
    for lam in (side_p - side_p_an) | (side_q - side_q_an):
        assert lam.is_self_conjugate()


def test_witness_set_members_verify():
    report = check_conjC(12, 3, 2, "sn")
    side_p, side_q = report.witnesses_p_block, report.witnesses_q_block
    for lam in side_p:
        assert principal_block_contains(lam, 3)
        assert every.degree_valuation(lam, 3) == 0
        assert every.degree_valuation(lam, 2) >= 1
    for lam in side_q:
        assert principal_block_contains(lam, 2)
        assert every.degree_valuation(lam, 2) == 0
        assert every.degree_valuation(lam, 3) >= 1


def test_group_kind_validation():
    with pytest.raises(ValueError):
        check_conjC(9, 3, 2, "gl")
    with pytest.raises(ValueError):
        check_conjC(9, 3, 2, "SN")  # group kinds are not case-folded
    with pytest.raises(ValueError):
        check_conjC(9, 3, 3, "sn")
    with pytest.raises(ValueError):
        check_conjC(10, 1, 3, "sn")  # once looped forever in the valuation
    for group in ("sn", "an"):
        with pytest.raises(ValueError, match=r"^4 is not prime$"):
            check_conjC(10, 4, 3, group)  # once reported witnesses for 4
    with pytest.raises(ValueError, match=r"^prime 11 exceeds n = 9$"):
        check_conjC(9, 11, 2, "sn")


def test_check_conjC_examples():
    assert check_conjC(9, 3, 2, "sn").condition_holds
    assert check_conjC(9, 3, 2, "an").condition_holds
    assert check_conjC(30, 7, 5, "sn").condition_holds
    # only the q-side filter finds witnesses here
    q_only = check_conjC(13, 13, 7, "an")
    assert q_only.condition_holds and q_only.witnesses_p_block == frozenset()
    assert len(q_only.witnesses_q_block) == 5


def test_check_conjC_validation_and_sets():
    # conjecture B compares the two cached sets, as verify-b does
    assert _prime_view(9, 3) != _prime_view(9, 2)
    assert _prime_view(12, 3) != _prime_view(12, 2)
    with pytest.raises(ValueError):
        check_conjC(9, 3, 3, "sn")
    with pytest.raises(ValueError, match=r"^prime 11 exceeds n = 9$"):
        check_conjC(9, 11, 2, "sn")
    with pytest.raises(ValueError, match=r"^prime 11 exceeds n = 10$"):
        check_conjC(10, 2, 11, "an")
    for group in ("sn", "an"):
        with pytest.raises(ValueError, match=r"^4 is not prime$"):
            check_conjC(10, 4, 3, group)
        with pytest.raises(ValueError, match=r"^1 is not prime$"):
            check_conjC(10, 3, 1, group)
    with pytest.raises(ValueError, match=r"^4 is not prime$"):
        cross_validate(10, 4, 3)


def test_report_set_consistency():
    for kind in ("sn", "an"):
        report = check_conjC(10, 5, 2, kind)
        assert report.witnesses_p_block <= _prime_view(10, 5)
        assert report.witnesses_q_block <= _prime_view(10, 2)


def test_oracle_and_blocks_agree_on_sets():
    # every B_p and both witness sets of every report against independent
    # references: degree valuations of plain hook-product degrees, principal
    # blocks by exhaustive rim-hook stripping, self-conjugacy by the plain
    # transpose
    for n in range(1, 14):
        shapes = list(ref.enumerate_partitions(n))
        primes = primes_up_to(n)
        val = {
            p: {s: ref.padic_valuation(ref.hook_product_degree(s), p) for s in shapes}
            for p in primes
        }
        principal = {
            p: {
                s
                for s in shapes
                if val[p][s] == 0
                and ref.exhaustive_cores(s, p) == {(n % p,) if n % p else ()}
            }
            for p in primes
        }
        for p in primes:
            assert {lam.parts for lam in _prime_view(n, p)} == principal[p], (n, p)
        for kind in ("sn", "an"):
            for p in primes:
                for q in primes:
                    if p == q:
                        continue
                    expected = [
                        {s for s in principal[p] if val[q][s] >= 1},
                        {s for s in principal[q] if val[p][s] >= 1},
                    ]
                    if kind == "an":
                        expected = [{s for s in e if ref.conjugate(s) != s} for e in expected]
                    report = check_conjC(n, p, q, kind)
                    got = [report.witnesses_p_block, report.witnesses_q_block]
                    assert [{lam.parts for lam in s} for s in got] == expected, (n, p, q, kind)


def test_every_witness_certifies_conjecture_C():
    # a witness lies in B_0 of its host, has degree prime to the host and
    # divisible by the other prime, and is not self-conjugate, so check_conjC
    # lists it on the host's side for S_n and for A_n
    tuples = 0
    for n in range(9, 41):
        for p, q in prime_pairs(n):
            w = construct_witness(n, p, q)
            if w is None:
                continue
            tuples += 1
            for kind in ("sn", "an"):
                report = check_conjC(n, p, q, kind)
                assert report.condition_holds, (n, p, q, kind)
                side = (
                    report.witnesses_p_block
                    if w.candidate.host_prime == p
                    else report.witnesses_q_block
                )
                assert w.partition in side, (n, p, q, kind)
    assert tuples == 389


def test_cross_validate_validates_once(monkeypatch):
    import blockwitness.oracle as oracle_module
    import blockwitness.parameters as parameters_module

    calls = []
    check = parameters_module.check_primes

    def counting(n, primes):
        calls.append((n, primes))
        check(n, primes)

    monkeypatch.setattr(parameters_module, "check_primes", counting)
    monkeypatch.setattr(oracle_module, "check_primes", counting)
    for n, p, q in ((12, 3, 2), (11, 7, 5)):
        calls.clear()
        cross_validate(n, p, q)
        assert calls == [(n, (p, q))]
    calls.clear()
    check_conjC(12, 3, 2)
    assert calls == [(12, (3, 2))]


def test_cross_validate_examples():
    cv = cross_validate(9, 3, 2)
    assert cv.oracle_agrees and cv.case_id == "I.a"
    cv10 = cross_validate(10, 5, 2)
    assert cv10.oracle_agrees and cv10.case_id == "II.a"
    deferred = cross_validate(11, 7, 5)
    assert deferred.witness is None
    assert deferred.deferral == "abelian-sylow"
    assert deferred.oracle_condition_holds is True
    small = cross_validate(8, 3, 2)
    assert small.deferral == "small-n"


def test_prime_pairs():
    assert prime_pairs(5) == [(3, 2), (5, 2), (5, 3)]
    assert prime_pairs(2) == []
    assert all(q < p for p, q in prime_pairs(30))


def test_conjB_no_violation_through_28():
    # extends the acceptance range (n <= 24) to the oracle's scan ceiling
    for n in range(25, 29):
        for p, q in prime_pairs(n):
            assert _prime_view(n, p) != _prime_view(n, q)


def test_principal_view_matches_all_partitions():
    # the principal digit-lift generation against the all-partitions reference
    for n in range(1, 29):
        for p in primes_up_to(n):
            assert _prime_view(n, p) == every.prime_view(n, p)[1], (n, p)


def test_divides_matches_references():
    # the oracle's early-stopping predicate against the bead-by-bead abacus
    # valuation and against plain hook-product degrees
    for n in range(0, 21):
        primes = primes_up_to(n)
        for lam in every.partitions_of(n):
            degree = ref.hook_product_degree(lam.parts)
            for s in primes:
                got = divides(lam, s)
                assert got == (every.degree_valuation(lam, s) > 0), (lam.parts, s)
                assert got == (ref.padic_valuation(degree, s) > 0), (lam.parts, s)
    with pytest.raises(ValueError):
        divides(P(3, 1), 1)


def _content_tally(parts, e):
    # (column - row) mod e of every cell, counted cell by cell
    counts = [0] * e
    for row, length in enumerate(parts):
        for column in range(length):
            counts[(column - row) % e] += 1
    return counts


def test_residue_membership_matches_cores_and_cell_tally(monkeypatch):
    # against rim-hook stripping for small n (composite e too, where the
    # residue form holds as well), and against a cell-by-cell content tally
    # at every prime up to n + 3, which puts runs longer than p and p above
    # the length; no abacus kernel is read
    import blockwitness.blocks as blocks_module
    import blockwitness.partitions as partitions_module

    def no_abacus(runs, e):
        raise AssertionError("the residue test read an abacus kernel")

    for module in (partitions_module, blocks_module):
        monkeypatch.setattr(module, "runner_steps", no_abacus)
    for n in range(0, 11):
        for lam in every.partitions_of(n):
            for e in (2, 3, 4, 5, 6, 7):
                (core,) = ref.exhaustive_cores(lam.parts, e)
                expected = core == ((n % e,) if n % e else ())
                assert in_principal_block(lam, e) == expected, (lam.parts, e)
    verdicts = {True: 0, False: 0}
    for n in range(0, 21):
        for lam in every.partitions_of(n):
            for p in primes_up_to(n + 3):
                w, b = divmod(n, p)
                expected = _content_tally(lam.parts, p) == [w + (t < b) for t in range(p)]
                assert in_principal_block(lam, p) == expected, (lam.parts, p)
                verdicts[expected] += 1
    assert verdicts == {True: 4467, False: 16664}
    # a run's trapezoid reaches the last third of the length-3p tally only
    # when its lowest row start, its rows mod p and its cells mod p sum to at
    # least 2p + 2: never at p < 5, and first at n = 31, in (5^3, 4^4) at
    # p = 5; so every shape of two runs with values and multiplicities below
    # 2p, at p = 5
    p, verdicts = 5, {True: 0, False: 0}
    for low in range(1, 2 * p):
        for high in range(low + 1, 2 * p):
            for above in range(1, 2 * p):
                for below in range(1, 2 * p):
                    parts = (high,) * above + (low,) * below
                    w, b = divmod(sum(parts), p)
                    expected = _content_tally(parts, p) == [w + (t < b) for t in range(p)]
                    assert in_principal_block(P(*parts), p) == expected, (parts, p)
                    verdicts[expected] += 1
    assert verdicts == {True: 920, False: 1996}


def test_audit_refuses_a_witness_outside_the_host_block(monkeypatch):
    # a constructor whose membership test admits everything, and a case branch
    # offering (10, 1) at (11, 3, 2): its degree 10 is prime to 3 and even,
    # but its 3-core is not (2), so only the audit's own test can refuse it
    import blockwitness.witness as witness_module

    lam = P(10, 1)
    offered = WitnessCandidate("I.a", AscendingSpec(((1, 1), (10, 1))), 3, 2)
    monkeypatch.setattr(witness_module, "principal_block_contains", lambda lam, p: True)
    monkeypatch.setattr(witness_module, "candidates", lambda params: (offered,))
    assert witness_module.principal_block_contains(lam, 3)
    assert not principal_block_contains(lam, 3) and not in_principal_block(lam, 3)
    assert not divides(lam, 3) and divides(lam, 2)
    cv = cross_validate(11, 3, 2)
    assert cv.witness.partition == lam
    assert cv.oracle_agrees is False


def test_existence_search_reads_the_q_side(monkeypatch):
    # (11, 7, 5) is deferred, so cross_validate searches; with B_7(S_11) cut
    # to its 3 members whose degree 5 does not divide, only B_5(S_11), where
    # 11 of 20 members have a degree 7 divides, can hold a witness
    import blockwitness.oracle as oracle_module

    full = {r: _prime_view(11, r) for r in (5, 7)}
    kept = {
        7: frozenset(lam for lam in full[7] if every.degree_valuation(lam, 5) == 0),
        5: frozenset(lam for lam in full[5] if every.degree_valuation(lam, 7) == 0),
    }
    assert (len(kept[7]), len(full[5]), len(full[5]) - len(kept[5])) == (3, 20, 11)
    views = {7: kept[7], 5: full[5]}
    monkeypatch.setattr(oracle_module, "_prime_view", lambda n, r: views[r])
    # a private cache for the per-block searches, so none read or keep the real views
    scan = lru_cache(maxsize=32)(oracle_module._scan.__wrapped__)
    monkeypatch.setattr(oracle_module, "_scan", scan)
    assert cross_validate(11, 7, 5).oracle_condition_holds is True
    views[5] = kept[5]
    scan.cache_clear()
    assert cross_validate(11, 7, 5).oracle_condition_holds is False


def test_cross_validate_matches_set_differences():
    # every field of cross_validate against the record built from the
    # all-partitions sets: a witness agrees when it lies in B_host outside
    # Irr_divisor'(S_n), and the condition holds when either side is nonempty
    for n in range(1, 25):
        views = {p: every.prime_view(n, p) for p in primes_up_to(n)}
        for p, q in prime_pairs(n):
            side = {p: views[p][1] - views[q][0], q: views[q][1] - views[p][0]}
            params = derive_case_parameters(n, p, q)
            found = _construct(params)
            expected = CrossValidation(
                found,
                params.deferral,
                found and found.partition in side[found.candidate.host_prime],
                bool(side[p] or side[q]),
            )
            assert cross_validate(n, p, q) == expected, (n, p, q)
