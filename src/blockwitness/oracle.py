"""Brute-force ground truth for the witness conditions.

For each prime p the oracle exhausts the partitions of n once and keeps two
sets: Irr_p'(S_n), the partitions whose degree p does not divide (by
:func:`degree_valuation`), and Irr_p'(B_0), those of them in the principal
p-block.  Everything else is set difference: a p-block witness is a member of
Irr_p'(B_0) outside Irr_q'(S_n), and conjecture B compares Irr_p'(B_0) with
Irr_q'(B_0).  The candidate construction in :mod:`blockwitness.witness` is
never consulted, which is exactly what makes :func:`cross_validate`
meaningful.

The alternating-group mode drops the self-conjugate partitions from those
finished sets.  What it proves is one-sided.  A nonempty ``an`` witness set is
a real A_n witness: the restriction is irreducible, of the same degree, and in
B_0(A_n).  An empty set, or ``sets_equal``, is no verdict on A_n: the split
constituents of degree f/2 of a self-conjugate partition are not modelled, and
a partition and its conjugate restrict to the same character.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import witness as witness_engine
from .blocks import principal_block_contains
from .degrees import degree_valuation
from .factored import primes_up_to
from .parameters import check_primes, derive_case_parameters
from .partitions import Partition, partitions_of

GROUP_KINDS = ("sn", "an")


@lru_cache(maxsize=1)
def _scan(n: int) -> tuple[Partition, ...]:
    # the partitions of n, enumerated once per n; a scan visits each n once,
    # so only the latest n is kept
    return tuple(partitions_of(n))


@lru_cache(maxsize=32)
def _prime_view(n: int, p: int) -> tuple[frozenset[Partition], frozenset[Partition]]:
    # (Irr_p'(S_n), Irr_p'(B_0)); block membership is tested only on the
    # partitions of p'-degree, a small share of all; 32 entries hold every
    # prime <= n for any n small enough to enumerate
    p_prime = frozenset(lam for lam in _scan(n) if degree_valuation(lam, p) == 0)
    return p_prime, frozenset(lam for lam in p_prime if principal_block_contains(lam, p))


def _conjecture_sets(n: int, p: int, q: int, kind: str) -> tuple[frozenset[Partition], ...]:
    # (B_p, B_q, B_p - Irr_q'(S_n), B_q - Irr_p'(S_n)) with B_r = Irr_r'(B_0),
    # for arguments already validated
    p_prime, set_p = _prime_view(n, p)
    q_prime, set_q = _prime_view(n, q)
    sets = (set_p, set_q, set_p - q_prime, set_q - p_prime)
    if kind == "an":
        return tuple(frozenset(lam for lam in s if not lam.is_self_conjugate()) for s in sets)
    return sets


@dataclass(frozen=True)
class ConjectureReport:
    """Outcome of one exhaustive check for a triple (n, p, q)."""

    condition_holds: bool
    witnesses_p_block: frozenset[Partition]
    witnesses_q_block: frozenset[Partition]
    set_B_p: frozenset[Partition]
    set_B_q: frozenset[Partition]
    sets_equal: bool


def check_conjC(n: int, p: int, q: int, group_kind: str = "sn") -> ConjectureReport:
    """Exhaustive check of conjectures B and C for (n, p, q) in one report.

    ``witnesses_p_block`` holds the partitions in the principal p-block
    whose degree is coprime to p and divisible by q; ``witnesses_q_block`` is
    the mirror image.  C holds when either is nonempty.  B forbids equal
    prime-to-p and prime-to-q principal sets (``sets_equal``).  In ``an``
    mode only a nonempty witness set is a verdict on A_n; a false C or
    ``sets_equal`` is not (see the module docstring).  The primes are
    validated by :func:`check_primes`, and ``group_kind`` must be exactly
    one of :data:`GROUP_KINDS`.
    """
    if group_kind not in GROUP_KINDS:
        raise ValueError(f"group kind must be one of {GROUP_KINDS}, got {group_kind!r}")
    check_primes(n, (p, q))
    set_p, set_q, side_p, side_q = _conjecture_sets(n, p, q, group_kind)
    return ConjectureReport(
        condition_holds=bool(side_p or side_q),
        witnesses_p_block=side_p,
        witnesses_q_block=side_q,
        set_B_p=set_p,
        set_B_q=set_q,
        sets_equal=set_p == set_q,
    )


@dataclass(frozen=True)
class CrossValidation:
    """Constructor output for one triple, checked against the exhaustive scan."""

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
    side_p, side_q = _conjecture_sets(n, p, q, "sn")[2:]
    condition = bool(side_p or side_q)
    if params.deferral is not None:
        return CrossValidation(None, None, params.deferral, None, condition)
    found = witness_engine._construct(params)
    matching = side_p if found.candidate.host_prime == p else side_q
    return CrossValidation(
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
