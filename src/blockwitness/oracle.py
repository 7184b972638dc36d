"""Brute-force ground truth for the witness conditions.

Everything here is computed by exhausting the partitions of n with cores
and degree valuations taken directly from the combinatorics modules; the
candidate construction in :mod:`blockwitness.witness` is never consulted,
which is exactly what makes :func:`cross_validate` meaningful.

The alternating-group mode keeps only non-self-conjugate partitions, whose
characters restrict irreducibly, so a symmetric-group witness survives
restriction verbatim; no alternating-group block theory is computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import witness as witness_engine
from .blocks import principal_runner_counts
from .degrees import valuation_from_weight
from .factored import primes_up_to
from .parameters import check_primes, derive_case_parameters
from .partitions import Partition, partitions_of

GROUP_KINDS = ("sn", "an")


def _normalize_group(group_kind: str) -> str:
    kind = group_kind.lower()
    if kind not in GROUP_KINDS:
        raise ValueError(f"group kind must be one of {GROUP_KINDS}, got {group_kind!r}")
    return kind


@lru_cache(maxsize=1)
def _scan(n: int) -> tuple[tuple[Partition, bool], ...]:
    # partition and self-conjugacy, enumerated once per n; a scan visits
    # each n once, so only the latest n is kept
    return tuple((lam, lam.is_self_conjugate()) for lam in partitions_of(n))


@lru_cache(maxsize=32)
def _prime_view(n: int, p: int) -> tuple[tuple[bool, int], ...]:
    # (principal-block membership, degree valuation) aligned with _scan(n);
    # one p-abacus pass per partition gives both the membership bit and the
    # p-weight the valuation starts from; 32 entries hold every prime <= n
    # for any n small enough to enumerate
    principal: dict[int, list[int]] = {}
    out = []
    for lam, _ in _scan(n):
        counts, weight = lam.abacus(p)
        length = len(lam.parts)
        target = principal.get(length)
        if target is None:
            target = principal[length] = principal_runner_counts(n, p, length)
        out.append((counts == target, valuation_from_weight(lam, p, weight)))
    return tuple(out)


def witness_sets(
    n: int, p: int, q: int, group_kind: str = "sn"
) -> tuple[frozenset[Partition], frozenset[Partition]]:
    """Exhaustive witness sets (p-block side, q-block side).

    The p-block side collects partitions in the principal p-block whose
    degree is coprime to p and divisible by q; the q-block side is the
    mirror image.  In alternating-group mode self-conjugate partitions are
    excluded up front.  The arguments are validated by :func:`check_primes`.
    """
    kind = _normalize_group(group_kind)
    check_primes(n, (p, q))
    return _witness_sets(n, p, q, kind)


def _witness_sets(
    n: int, p: int, q: int, kind: str
) -> tuple[frozenset[Partition], frozenset[Partition]]:
    # witness_sets for arguments already validated and a normalized kind
    data = _scan(n)
    view_p = _prime_view(n, p)
    view_q = _prime_view(n, q)
    side_p = []
    side_q = []
    for i, (lam, self_conj) in enumerate(data):
        if kind == "an" and self_conj:
            continue
        principal_p, val_p = view_p[i]
        principal_q, val_q = view_q[i]
        if principal_p and val_p == 0 and val_q >= 1:
            side_p.append(lam)
        if principal_q and val_q == 0 and val_p >= 1:
            side_q.append(lam)
    return frozenset(side_p), frozenset(side_q)


@dataclass(frozen=True)
class ConjectureReport:
    """Outcome of one exhaustive check for a triple (n, p, q)."""

    group_kind: str
    n: int
    p: int
    q: int
    condition_holds: bool
    witnesses_p_block: frozenset[Partition]
    witnesses_q_block: frozenset[Partition]
    set_B_p: frozenset[Partition]
    set_B_q: frozenset[Partition]
    sets_equal: bool

    @property
    def violates_equality_check(self) -> bool:
        """True when the two prime-to-p principal sets coincide for p != q."""
        return self.sets_equal and self.p != self.q


def check_conjC(n: int, p: int, q: int, group_kind: str = "sn") -> ConjectureReport:
    """Exhaustive check of conjectures B and C for (n, p, q) in one report.

    C holds when either exhaustive witness set is nonempty.  B forbids equal
    prime-to-p and prime-to-q principal sets (``sets_equal``) for p != q.
    The arguments are validated by :func:`witness_sets`.
    """
    kind = _normalize_group(group_kind)
    side_p, side_q = witness_sets(n, p, q, kind)
    set_p = _p_prime_set(n, p, kind)
    set_q = _p_prime_set(n, q, kind)
    return ConjectureReport(
        group_kind=kind,
        n=n,
        p=p,
        q=q,
        condition_holds=bool(side_p or side_q),
        witnesses_p_block=side_p,
        witnesses_q_block=side_q,
        set_B_p=set_p,
        set_B_q=set_q,
        sets_equal=set_p == set_q,
    )


def _p_prime_set(n: int, p: int, kind: str) -> frozenset[Partition]:
    # principal p-block members of degree prime to p, read off the prime view
    view = _prime_view(n, p)
    return frozenset(
        lam
        for i, (lam, self_conj) in enumerate(_scan(n))
        if view[i][0] and view[i][1] == 0 and not (kind == "an" and self_conj)
    )


@dataclass(frozen=True)
class CrossValidation:
    """Constructor output for one triple, checked against the exhaustive scan."""

    n: int
    p: int
    q: int
    witness: witness_engine.Witness | None
    case_id: str | None
    deferral: str | None
    oracle_agrees: bool | None
    oracle_condition_holds: bool


def cross_validate(n: int, p: int, q: int) -> CrossValidation:
    """Run the constructor and test its witness against the exhaustive sets.

    Deferred regimes (n < 9, abelian Sylow) carry no constructed witness;
    the exhaustive verdict is attached so the caller still learns whether a
    witness exists at all.  The arguments are validated once, by
    :func:`derive_case_parameters`.
    """
    params = derive_case_parameters(n, p, q)
    side_p, side_q = _witness_sets(n, p, q, "sn")
    condition = bool(side_p or side_q)
    if params.deferral is not None:
        return CrossValidation(n, p, q, None, None, params.deferral, None, condition)
    found = witness_engine._construct(params)
    matching = side_p if found.candidate.host_prime == p else side_q
    return CrossValidation(
        n=n,
        p=p,
        q=q,
        witness=found,
        case_id=found.candidate.case_id,
        deferral=None,
        oracle_agrees=found.partition in matching,
        oracle_condition_holds=condition,
    )


def prime_pairs(n: int) -> list[tuple[int, int]]:
    """All (p, q) with q < p <= n, ordered by (p, q) ascending."""
    primes = primes_up_to(n)
    return [(p, q) for p in primes for q in primes if q < p]
