from functools import lru_cache
import pytest

import _oracles as oracle
import blockwitness.blocks as blocks
import blockwitness.oracle as digit_lift
from _all_partitions import (
    base_digits,
    p_prime_degree_partitions,
    p_quotient,
    partitions_of,
    prime_view,
)
from blockwitness.blocks import principal_block_contains, principal_flag_pairs
from blockwitness.degrees import degree
from blockwitness.factored import InternalInvariantError, primes_up_to
from blockwitness.oracle import (
    _prime_view,
    divides,
    in_principal_block,
    prime_pairs,
    principal_p_prime_partitions,
)
from blockwitness.parameters import derive_case_parameters
from blockwitness.partitions import from_parts
from blockwitness.tables import build_sn_summary
from blockwitness.witness import candidates


def P(*parts):
    return from_parts(parts)


def members(n, p):
    return frozenset(lam for lam in partitions_of(n) if principal_block_contains(lam, p))


def test_principal_core_closed_form_on_every_hook():
    # the hooks (n - L + 1, 1^(L-1)) take every length L = 1 .. n, so the
    # core's steps, from its runs padded to the shape's length, are met at
    # each; the verdict is a tally of residues mod e of the hook's beta-set
    # against the core's at that length
    verdicts = {True: 0, False: 0}
    for n in range(0, 41):
        for e in range(2, n + 3):
            core = (n % e,) if n % e else ()
            for length in range(1, n + 1):
                hook = (n - length + 1,) + (1,) * (length - 1)
                expected = oracle.residue_counts(
                    oracle.beta_set(hook, length), e
                ) == oracle.residue_counts(oracle.beta_set(core, length), e)
                assert principal_block_contains(P(*hook), e) == expected, (n, e, length)
                verdicts[expected] += 1
    assert min(verdicts.values()) > 0, verdicts


def test_membership_of_every_candidate_at_n_1000():
    # primes up to 499, far above the n <= 128 grid's: every candidate of every
    # in-regime tuple, at its host prime, where each is a member, and at its
    # divisor prime, where most are not, against a bead-by-bead tally of its
    # beta-set and the principal core's; shapes repeat across tuples
    n = 1000
    primes = {}
    for p, q in prime_pairs(n):
        if n // p <= 1:
            continue
        for candidate in candidates(derive_case_parameters(n, p, q)):
            lam = candidate.spec.to_partition()
            primes.setdefault(lam, set()).update((candidate.host_prime, candidate.divisor_prime))

    @lru_cache(maxsize=None)
    def core_tally(r, length):
        return oracle.residue_counts(oracle.beta_set((n % r,) if n % r else (), length), r)

    verdicts = {True: 0, False: 0}
    for lam, rs in primes.items():
        beads = oracle.beta_set(lam.parts, lam.length)
        for r in sorted(rs):
            expected = oracle.residue_counts(beads, r) == core_tally(r, lam.length)
            assert principal_block_contains(lam, r) == expected, (lam.runs, r)
            verdicts[expected] += 1
    assert verdicts == {True: 4532, False: 8213}


def test_flag_pairs_equal_membership_of_both_conjugates():
    # at most one runner-step pass per prime decides a shape and its
    # conjugate, and none is taken where neither S nor -S, for the shape's
    # content sum S, is n(n - 1)/2 mod p; the conjugate is decided through
    # the core (1^b) of the shape, which a shape of fewer than b parts
    # lacks; primes above n, where every shape is a core, included
    shorter = 0
    for n in range(0, 31):
        primes = primes_up_to(n + 2)
        decide = principal_flag_pairs(n, primes)
        for lam in partitions_of(n):
            conjugate = from_parts(oracle.conjugate(lam.parts))
            flags, partner = decide(lam.runs)
            assert flags == tuple(principal_block_contains(lam, p) for p in primes), lam.parts
            expected = tuple(principal_block_contains(conjugate, p) for p in primes)
            assert partner == expected, lam.parts
            shorter += sum(lam.length < n % p for p in primes)
    assert shorter > 0


def cell_contents(parts):
    return sum(j - i for i, row in enumerate(parts) for j in range(row))


def test_content_sum_closed_form_equals_cell_by_cell_sum():
    for n in range(0, 21):
        for lam in partitions_of(n):
            expected = cell_contents(lam.parts), lam.length
            assert blocks._content_sum(lam.runs) == expected, lam.parts


def test_principal_members_satisfy_the_content_congruence():
    # cell contents mod p are constant on a block, so every member's sum is
    # that of (n), n(n - 1)/2; the filter has bite only if non-members fail it
    ruled_out = 0
    for n in range(0, 31):
        primes = primes_up_to(n + 2)
        for lam in partitions_of(n):
            content = cell_contents(lam.parts)
            for p in primes:
                congruent = (content - n * (n - 1) // 2) % p == 0
                if principal_block_contains(lam, p):
                    assert congruent, (lam.parts, p)
                ruled_out += not congruent
    assert ruled_out > 0


def test_flag_pairs_skip_the_kernel_off_the_congruence(monkeypatch):
    # the S_22 table at every prime up to 22: 161 passes build the cores and
    # 1,213 decide the shapes whose content sum passes, where one pass per
    # prime and conjugate pair would be 4,040
    calls = 0
    kernel = blocks.runner_steps

    def counted(runs, e):
        nonlocal calls
        calls += 1
        return kernel(runs, e)

    monkeypatch.setattr(blocks, "runner_steps", counted)
    build_sn_summary(22, primes_up_to(22))
    assert calls == 161 + 1213


def test_principal_block_contains_examples():
    for n, p in ((5, 2), (9, 3), (20, 7), (8, 11)):
        assert principal_block_contains(P(n), p)
    assert principal_block_contains(P(2, 1, 1, 1, 1, 1, 1, 1), 3)
    assert principal_block_contains(P(1, 1, 1, 1), 3)  # column of 4, core (1)


def test_members_examples():
    assert members(4, 2) == frozenset(partitions_of(4))
    assert members(4, 5) == frozenset({P(4)})
    nine = members(9, 3)
    assert P(9) in nine and P(2, 1, 1, 1, 1, 1, 1, 1) in nine


def test_irr_examples():
    # the oracle's Irr_p'(B_0) and the all-cores Irr_p'(S_n) against literal
    # sets; the S_4 degrees are 1, 3, 2, 3, 1, and for p = 5 > n every degree
    # is prime to p while only the trivial character keeps the core (4)
    odd = frozenset({P(4), P(3, 1), P(2, 1, 1), P(1, 1, 1, 1)})
    assert {s for s in oracle.enumerate_partitions(4) if oracle.hook_product_degree(s) % 2} == {
        lam.parts for lam in odd
    }

    def every_core(n, p):
        return {lam for members in p_prime_degree_partitions(n, p).values() for lam in members}

    assert _prime_view(4, 2) == odd and every_core(4, 2) == odd
    assert _prime_view(4, 5) == frozenset({P(4)})
    assert every_core(4, 5) == set(partitions_of(4))
    assert P(2, 1, 1, 1, 1, 1, 1, 1) in _prime_view(9, 3)


def test_degrees_of_s4():
    degrees = sorted(degree(lam.runs).to_int() for lam in partitions_of(4))
    assert degrees == [1, 1, 2, 3, 3]


def test_cardinality_law_small():
    for n in range(1, 15):
        from blockwitness.factored import primes_up_to

        for p in primes_up_to(n):
            weight = (n - n % p) // p
            assert len(members(n, p)) == oracle.multipartition_count(p, weight)


def test_trivial_and_column_membership():
    for n in range(1, 13):
        from blockwitness.factored import primes_up_to

        for p in primes_up_to(n):
            assert principal_block_contains(P(n), p)
            column = P(*(1,) * n)
            cores = oracle.exhaustive_cores(column.parts, p)
            assert len(cores) == 1
            expected = next(iter(cores)) == ((n % p,) if n % p else ())
            assert principal_block_contains(column, p) == expected


def test_core_determines_membership():
    for lam in partitions_of(8):
        for p in (2, 3, 5, 7):
            (core,) = oracle.exhaustive_cores(lam.parts, p)
            assert principal_block_contains(lam, p) == (core == ((8 % p,) if 8 % p else ()))


def test_tower_counts_certified_through_40():
    # |Irr_p'(S_n)| = p(a_0) prod_{k >= 1} m(p^k, a_k) and |Irr_p'(B_0)| the
    # product alone, m(c, a) counting c-tuples of partitions of total a
    # (Macdonald), against the independent multipartition count; through 28
    # the lift of every core is Irr_p'(S_n) from all partitions
    for n in range(1, 41):
        for p in primes_up_to(n):
            digits = base_digits(n, p)
            per_core = 1
            for k, a in enumerate(digits[1:], start=1):
                count = oracle.multipartition_count(p**k, a)
                # the count both generations certify themselves against
                assert digit_lift._multipartition_count(p**k, a) == count, (p**k, a)
                per_core *= count
            groups = p_prime_degree_partitions(n, p)
            block = groups[P(n % p) if n % p else P()]
            shapes = {lam.parts for members in groups.values() for lam in members}
            assert len(block) == per_core, (n, p)
            assert len(shapes) == per_core * oracle.partition_count_oracle(digits[0]), (n, p)
            assert all(sum(parts) == n for parts in shapes)
            if n <= 28:
                assert shapes == {lam.parts for lam in prime_view(n, p)[0]}, (n, p)


def test_tower_generation_small_cases():
    # for p > n every partition is its own p-core and has p'-degree
    groups = p_prime_degree_partitions(4, 5)
    assert set(groups) == set(partitions_of(4))
    assert all(members == [core] for core, members in groups.items())
    assert p_prime_degree_partitions(0, 3) == {P(): [P()]}
    assert principal_p_prime_partitions(0, 3) == frozenset({P()})
    assert principal_p_prime_partitions(4, 5) == frozenset({P(4)})
    # a rounds of the hook kernel, each on a runner no lower than the last,
    # take an e-core to each e-quotient of total size a once, against the
    # reference generator
    for e in range(2, 6):
        for core in (lam for m in range(e) for lam in partitions_of(m)):
            lifts = {core: 0}
            for a in range(5):
                quotients = [tuple(mu.parts for mu in p_quotient(lam, e)) for lam in lifts]
                assert sorted(quotients) == sorted(oracle.multipartitions(e, a)), (core, e, a)
                lifts = {
                    lift: r
                    for lam, first in lifts.items()
                    for lift, r in digit_lift._hook_lifts(lam, e, first)
                }
    for generate in (p_prime_degree_partitions, principal_p_prime_partitions):
        with pytest.raises(ValueError):
            generate(4, 1)
        with pytest.raises(ValueError):
            generate(-1, 3)


def test_first_digit_one_lift_equals_general_lift():
    # the closed-form step for a_1 = 1 against one round of the hook kernel on
    # the core (b), and each of its members is a principal p'-degree partition
    # by cell contents and abacus weights
    steps = {(n % p, p) for n in range(101) for p in primes_up_to(n) if (n // p) % p == 1}
    for b, p in sorted(steps):
        core = P(b) if b else P()
        lifted = digit_lift._one_hook_lifts(b, p)
        assert len(lifted) == len(set(lifted)) == p, (b, p)
        general = dict(digit_lift._hook_lifts(core, p, 0))
        assert set(lifted) == set(general), (b, p)
        assert sorted(general.values()) == list(range(p)), (b, p)
        for lam in lifted:
            assert in_principal_block(lam, p) and not divides(lam, p), (lam.parts, p)


def _corrupt_count(monkeypatch):
    count = digit_lift._multipartition_count
    monkeypatch.setattr(digit_lift, "_multipartition_count", lambda c, a: count(c, a) + (c == 9))


def _lossy_kernel(monkeypatch):
    # a hook kernel that drops its last lift leaves too few partitions
    lifts = digit_lift._hook_lifts
    monkeypatch.setattr(
        digit_lift, "_hook_lifts", lambda lam, e, first: list(lifts(lam, e, first))[:-1]
    )


def test_tower_count_mismatch_is_a_fault(monkeypatch):
    with monkeypatch.context() as patch:
        _corrupt_count(patch)
        with pytest.raises(InternalInvariantError, match="p=3"):
            p_prime_degree_partitions(20, 3)  # 20 = 2*9 + 0*3 + 2
    _lossy_kernel(monkeypatch)
    with pytest.raises(InternalInvariantError, match="p=2"):
        p_prime_degree_partitions(6, 2)


def test_principal_count_mismatch_is_a_fault(monkeypatch):
    # the certificate of the generation the oracle uses
    with monkeypatch.context() as patch:
        _corrupt_count(patch)
        with pytest.raises(InternalInvariantError, match="p=3"):
            principal_p_prime_partitions(20, 3)
    with monkeypatch.context() as patch:
        # a closed-form first-digit step that repeats one member
        lift = digit_lift._one_hook_lifts
        patch.setattr(digit_lift, "_one_hook_lifts", lambda b, p: lift(b, p)[:-1] + lift(b, p)[:1])
        with pytest.raises(InternalInvariantError, match="p=11"):
            principal_p_prime_partitions(20, 11)  # 20 = 1*11 + 9
    _lossy_kernel(monkeypatch)
    with pytest.raises(InternalInvariantError, match="p=2"):
        principal_p_prime_partitions(6, 2)
