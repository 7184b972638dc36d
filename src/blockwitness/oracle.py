"""Ground truth for the witness conditions, independent of the case tree.

For each prime r the oracle generates B_r = Irr_r'(B_0(S_n)), the partitions
in the principal r-block whose degree r does not divide, one base-r digit of
n at a time by Macdonald's theorem (see
:func:`blockwitness.blocks.principal_p_prime_partitions`).  Only the core
(n mod r) is lifted, a first digit of 1 by r shapes in closed form, and
each set is certified by its size, which must match a count of
multipartitions.  :func:`divides`, the one predicate on degrees, says
whether a prime divides one, off abacus weights, with no hook lengths
and without :mod:`blockwitness.degrees`.  Its weights come from
:func:`blockwitness.partitions.weight`, on abacus runner counts that the
tests pin against exhaustive rim-hook stripping.  The witness audit reads
block membership from cell contents instead (:func:`in_principal_block`), so
the verifier's membership kernel decides no audited fact.

A p-block witness is a member of B_p whose degree q divides, so
:func:`check_conjC` reads the members of B_p and B_q that pass that
predicate, and checks conjecture C alone; conjecture B is the CLI's
``verify-b``, a comparison of the two cached sets B_p and B_q.
:func:`audit_witness` checks the constructor's witness alone, and only when
there is no witness or the audit fails asks whether either side has a
witness, through one search per prime that stops at its first hit, run once
per block.  The candidate construction in
:mod:`blockwitness.witness` is called only by :func:`cross_validate`, to
build the witness to be audited; :func:`audit_witness`'s searches and
:func:`check_conjC` never consult it, which is exactly what makes the audit
meaningful.

The alternating-group mode drops the self-conjugate partitions from the
witness sets.  What it proves is one-sided.  A nonempty ``an`` witness set is
a real A_n witness: the restriction is irreducible, of the same degree, and in
B_0(A_n).  An empty set is no verdict on A_n: the split constituents of
degree f/2 of a self-conjugate partition are not modelled, and a partition
and its conjugate restrict to the same character.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from .blocks import principal_p_prime_partitions
from .factored import primes_up_to
from .parameters import CaseParameters, check_primes, derive_case_parameters
from .partitions import Partition, weight
from .witness import Witness, _construct

GROUP_KINDS = ("sn", "an")


def divides(lam: Partition, s: int) -> bool:
    """Whether the prime ``s`` divides the degree of ``lam``, from abacus weights.

    The hooks of length divisible by e number w_e, the e-weight
    (:func:`blockwitness.partitions.weight`), so
    nu_s(f) = sum_{e = s^k <= n} (floor(n/e) - w_e), and every term is >= 0
    because the e-core has n - e w_e cells.  The first shortfall decides.
    """
    if s < 2:
        raise ValueError(f"divisibility by s requires a prime s >= 2, got {s}")
    size = lam.size
    largest_hook = lam.runs[0][0] + lam.length - 1 if lam.runs else 0
    e = s
    while e <= largest_hook:
        if weight(lam, e) < size // e:
            return True
        e *= s
    # no hook is as long as e, so w_e = 0 falls short of floor(n/e) when e <= n
    return e <= size


def in_principal_block(lam: Partition, p: int) -> bool:
    """Whether ``lam`` lies in the principal p-block, from cell contents mod p.

    Partitions of n share a p-core exactly when their cells have the same
    multiset of contents (column - row) mod p (James and Kerber 1981, 2.7),
    and the core (b) of n = wp + b has one cell of each residue t < b, so
    the test is that residue t counts w + [t < b].  Row r of length v has
    v // p cells of every residue and its first v mod p cells at contents
    -r, .., v mod p - r - 1.  In a run of m rows, m // p full turns of the
    row starts add v mod p more to every residue, and the first cells of
    its top m mod p rows form a cyclic trapezoid: four +-1 entries in a
    second-difference array of length 3p, folded mod p after two running
    sums.  No abacus is read, so the verifier's kernel decides nothing here.
    """
    w, b = divmod(lam.size, p)
    flat = row = 0
    second = [0] * (3 * p)
    for value, mult in lam.runs:
        full, cells = divmod(value, p)
        turns, rows = divmod(mult, p)
        flat += mult * full + turns * cells
        start = (1 - row - rows) % p  # the lowest row start, -(row + rows - 1)
        for offset, sign in ((0, 1), (rows, -1), (cells, -1), (rows + cells, 1)):
            second[start + offset] += sign
        row += mult
    tally = list(accumulate(accumulate(second)))
    return [flat + sum(tally[t::p]) for t in range(p)] == [w + (t < b) for t in range(p)]


@lru_cache(maxsize=32)
def _prime_view(n: int, r: int) -> frozenset[Partition]:
    # B_r = Irr_r'(B_0(S_n)); 32 entries hold every prime <= n for n < 137
    return principal_p_prime_partitions(n, r)


@lru_cache(maxsize=32)
def _divided(n: int, r: int, s: int) -> frozenset[Partition]:
    # the members of B_r whose degree s divides, shared by both group kinds
    return frozenset(lam for lam in _prime_view(n, r) if divides(lam, s))


@lru_cache(maxsize=32)
def _scan(n: int, r: int) -> frozenset[int]:
    # the primes s != r that divide the degree of some member of B_r, each
    # searched for until its first hit; every triple (n, r, .) reads this one
    # entry, where a search per triple would put its cost on each of them
    members = _prime_view(n, r)
    return frozenset(
        s for s in primes_up_to(n) if s != r and any(divides(lam, s) for lam in members)
    )


@dataclass(frozen=True)
class ConjectureReport:
    """Outcome of one exhaustive check for a triple (n, p, q)."""

    condition_holds: bool
    witnesses_p_block: frozenset[Partition]
    witnesses_q_block: frozenset[Partition]


def check_conjC(n: int, p: int, q: int, group_kind: str = "sn") -> ConjectureReport:
    """Exhaustive check of conjecture C for (n, p, q).

    ``witnesses_p_block`` is the members of B_p, the partitions in the
    principal p-block whose degree is coprime to p, whose degree q divides;
    ``witnesses_q_block`` is the mirror image.  C holds when either witness
    set is nonempty.  In ``an`` mode only a nonempty witness set is a
    verdict on A_n (see the module docstring).  The primes are validated
    by :func:`check_primes`, and ``group_kind`` must be exactly one of
    :data:`GROUP_KINDS`.
    """
    if group_kind not in GROUP_KINDS:
        raise ValueError(f"group kind must be one of {GROUP_KINDS}, got {group_kind!r}")
    check_primes(n, (p, q))
    side_p, side_q = _divided(n, p, q), _divided(n, q, p)
    if group_kind == "an":
        side_p, side_q = (
            frozenset(lam for lam in side if not lam.is_self_conjugate())
            for side in (side_p, side_q)
        )
    return ConjectureReport(bool(side_p or side_q), side_p, side_q)


@dataclass(frozen=True)
class CrossValidation:
    """Constructor output for one triple, audited and, where needed, searched."""

    witness: Witness | None
    case_id: str | None
    deferral: str | None
    oracle_agrees: bool | None
    oracle_condition_holds: bool


def audit_witness(params: CaseParameters, found: Witness | None) -> tuple[bool | None, bool]:
    """Audit the constructor's result for ``params``: ``(agrees, holds)``.

    ``agrees`` (``None`` with no witness) says the witness lies in the
    principal block of its host prime (by :func:`in_principal_block`), the
    host prime does not divide its degree, and the divisor prime does.
    ``holds`` says whether B_p or B_q has a witness at all, read from the
    per-block searches only when there is no agreeing witness.
    """
    agrees = None
    if found is not None:
        lam, candidate = found.partition, found.candidate
        agrees = (
            in_principal_block(lam, candidate.host_prime)
            and not divides(lam, candidate.host_prime)
            and divides(lam, candidate.divisor_prime)
        )
    n, p, q = params.n, params.p, params.q
    # otherwise a member of B_p whose degree q divides, or one of B_q that p divides
    return agrees, bool(agrees) or q in _scan(n, p) or p in _scan(n, q)


def cross_validate(n: int, p: int, q: int) -> CrossValidation:
    """:func:`audit_witness` on the witness constructed for (n, p, q).

    The arguments are validated once, by :func:`derive_case_parameters`.  A
    deferred regime (n < 9, abelian Sylow) gives no witness, so ``witness``,
    ``case_id`` and ``oracle_agrees`` are ``None`` and ``deferral`` names it.
    """
    params = derive_case_parameters(n, p, q)
    found = _construct(params)
    agrees, holds = audit_witness(params, found)
    return CrossValidation(found, found and found.candidate.case_id, params.deferral, agrees, holds)


def prime_pairs(n: int) -> list[tuple[int, int]]:
    """All (p, q) with q < p <= n, ordered by (p, q) ascending."""
    primes = primes_up_to(n)
    return [(p, q) for p in primes for q in primes if q < p]
