"""No Sylow subgroups for two distinct primes commute in S_n or A_n, by brute force.

``tables.build_sn_summary`` records ``sylow_commute p q false`` for every
pair of primes, and audits A and C read that fact.  Here it is checked on
permutations for 3 <= n <= 6, with nothing taken from the library's proof:
a Sylow subgroup is grown greedily as a maximal p-subgroup (every maximal
p-subgroup is a Sylow subgroup), and since all Sylow q-subgroups are
conjugate, P is tested against every conjugate of one Sylow q-subgroup Q.
Two subgroups commute elementwise exactly when their generators do.
"""

from __future__ import annotations

from itertools import combinations, permutations

from blockwitness.tables import build_sn_summary


def _compose(a, b):
    # the permutation "b, then a"
    return tuple(a[i] for i in b)


def _inverse(a):
    inverse = [0] * len(a)
    for i, image in enumerate(a):
        inverse[image] = i
    return tuple(inverse)


def _generated(generators, identity, bound):
    # the subgroup the generators span, or None once it has more than `bound`
    # elements; closing the identity under left multiplication by the
    # generators gives the whole subgroup of a finite group
    group, frontier = {identity}, [identity]
    while frontier:
        grown = []
        for g in frontier:
            for s in generators:
                h = _compose(s, g)
                if h not in group:
                    group.add(h)
                    grown.append(h)
        if len(group) > bound:
            return None
        frontier = grown
    return group


def _p_part(order, p):
    part = 1
    while order % (part * p) == 0:
        part *= p
    return part


def _sylow_generators(group, p, identity):
    # greedy: keep every element that leaves the span a p-group; the span it
    # ends with is a maximal p-subgroup, so it must reach the Sylow order
    target = _p_part(len(group), p)
    generators, span = [], {identity}
    for g in sorted(group):
        if g in span:
            continue
        grown = _generated(generators + [g], identity, target)
        if grown is not None and _p_part(len(grown), p) == len(grown):
            generators.append(g)
            span = grown
    assert len(span) == target, (len(group), p, len(span))
    return generators


def _commutes_with_a_conjugate(group, first, second):
    # whether the span of `first` commutes elementwise with some conjugate,
    # by an element of `group`, of the span of `second`
    for g in group:
        g_inverse = _inverse(g)
        conjugate = [_compose(g, _compose(y, g_inverse)) for y in second]
        if all(_compose(x, y) == _compose(y, x) for x in first for y in conjugate):
            return True
    return False


def _commuting_sylows_exist(group, p, q):
    identity = tuple(range(len(next(iter(group)))))
    return _commutes_with_a_conjugate(
        group, _sylow_generators(group, p, identity), _sylow_generators(group, q, identity)
    )


def _is_even(a):
    return sum(1 for i, j in combinations(range(len(a)), 2) if a[i] > a[j]) % 2 == 0


def test_sylow_subgroups_of_distinct_primes_never_commute():
    checked = 0
    for n in range(3, 7):
        symmetric = list(permutations(range(n)))
        alternating = [g for g in symmetric if _is_even(g)]
        for group in (symmetric, alternating):
            primes = [p for p in (2, 3, 5) if len(group) % p == 0]
            for p, q in combinations(primes, 2):
                assert not _commuting_sylows_exist(group, p, q), (n, len(group), p, q)
                checked += 1
        # the export records exactly these facts for S_n
        primes = (2, 3, 5)[: 2 if n < 5 else 3]
        facts = build_sn_summary(n, primes).sylow_commute
        assert facts == {pair: False for pair in combinations(primes, 2)}, n
    # S_3, S_4 and A_4 one pair each; S_5, A_5, S_6 and A_6 three each; A_3 none
    assert checked == 15


def test_the_brute_force_sees_commuting_sylows():
    # in the cyclic group of order 6 spanned by (0 1)(2 3 4) every two
    # subgroups commute; in S_3 x C_5 on 0..7 the Sylow 2- and 5-subgroups
    # commute and the Sylow 2- and 3-subgroups, those of S_3, do not
    cyclic = _generated([(1, 0, 3, 4, 2)], tuple(range(5)), 6)
    assert len(cyclic) == 6 and _commuting_sylows_exist(cyclic, 2, 3)
    product = _generated(
        [(1, 0, 2, 3, 4, 5, 6, 7), (1, 2, 0, 3, 4, 5, 6, 7), (0, 1, 2, 4, 5, 6, 7, 3)],
        tuple(range(8)),
        30,
    )
    assert len(product) == 30 and _commuting_sylows_exist(product, 2, 5)
    assert not _commuting_sylows_exist(product, 2, 3)
    # (0 1) commutes with no conjugate of (0 1 2) in S_3, and with (2 3 4) in S_5
    transposition, three_cycle = (1, 0, 2), (1, 2, 0)
    symmetric_3 = list(permutations(range(3)))
    assert not _commutes_with_a_conjugate(symmetric_3, [transposition], [three_cycle])
    assert _commutes_with_a_conjugate(
        list(permutations(range(5))), [transposition + (3, 4)], [three_cycle + (3, 4)]
    )
