"""Ground truth for the witness conditions, independent of the case tree.

For each prime p the oracle holds two sets: Irr_p'(S_n), the partitions of
n whose degree p does not divide, and Irr_p'(B_0), those of them in the
principal p-block.  Both are generated from p-core towers by Macdonald's
theorem (I. G. Macdonald, "On the degrees of the irreducible
representations of symmetric groups", Bull. London Math. Soc. 3, 1971; see
:func:`blockwitness.blocks.p_prime_degree_partitions`): the degree is prime
to p exactly when level k of the tower has total size a_k, the k-th base-p
digit of n, and B_0 is the share whose level 0 is the core (n mod p).  No
partition outside these sets is visited.  Each generated set is certified
by its size, a product of multipartition counts; a mismatch is a program
fault.  Everything else is set difference: a p-block witness is a member of
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
from .blocks import p_prime_degree_partitions
from .factored import primes_up_to
from .parameters import check_primes, derive_case_parameters
from .partitions import Partition

GROUP_KINDS = ("sn", "an")


@lru_cache(maxsize=1)
def _scan(n: int) -> dict[tuple[int, ...], Partition]:
    # one Partition per shape of n, shared by the prime views of n, so the
    # set differences across primes match members by identity; a scan
    # visits each n once, so only the latest n is kept
    return {}


@lru_cache(maxsize=32)
def _prime_view(n: int, p: int) -> tuple[frozenset[Partition], frozenset[Partition]]:
    # (Irr_p'(S_n), Irr_p'(B_0)); 32 entries hold every prime <= n for n < 137
    shapes = _scan(n)
    view = {
        core: frozenset(shapes.setdefault(lam.parts, lam) for lam in members)
        for core, members in p_prime_degree_partitions(n, p).items()
    }
    return frozenset().union(*view.values()), view[Partition((n % p,) if n % p else ())]


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

    In a deferred regime (n < 9, abelian Sylow) the constructor gives
    ``None``, so ``witness``, ``case_id`` and ``oracle_agrees`` are ``None``
    and ``deferral`` names the regime; the exhaustive verdict is attached so
    the caller still learns whether a witness exists at all.  The arguments
    are validated once, by :func:`derive_case_parameters`.
    """
    params = derive_case_parameters(n, p, q)
    side_p, side_q = _conjecture_sets(n, p, q, "sn")[2:]
    condition = bool(side_p or side_q)
    found = witness_engine._construct(params)
    if found is None:
        return CrossValidation(None, None, params.deferral, None, condition)
    matching = side_p if found.candidate.host_prime == p else side_q
    return CrossValidation(
        found, found.candidate.case_id, None, found.partition in matching, condition
    )


def prime_pairs(n: int) -> list[tuple[int, int]]:
    """All (p, q) with q < p <= n, ordered by (p, q) ascending."""
    primes = primes_up_to(n)
    return [(p, q) for p in primes for q in primes if q < p]
