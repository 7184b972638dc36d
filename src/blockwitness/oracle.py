"""Ground truth for the witness conditions, independent of the case tree.

For each prime p the oracle generates B_p = Irr_p'(B_0(S_n)), the partitions
in the principal p-block whose degree p does not divide
(:func:`principal_p_prime_partitions`); it does not search for them.  With
n = sum a_k p^k in base p, Macdonald's theorem (I. G. Macdonald, "On the
degrees of the irreducible representations of symmetric groups", Bull.
London Math. Soc. 3, 1971) says the degree is prime to p exactly when
level k of the p-core tower has total size a_k for every k.  Write
n = a p^k + m with a = a_k > 0 the top digit, so m < p^k.  Levels k and
up of the tower are the towers of the p^k-quotient components, and a
component of at most a < p boxes is a p-core, so a partition of n has
p'-degree exactly when its p^k-weight is a and its p^k-core, a partition
of m, has p'-degree.  Removing p^k-hooks keeps the p-core, so B_p is the
core (a_0) lifted one digit at a time, each digit a_k adding a_k hooks of
length p^k in every way (:func:`principal_p_prime_partitions`).  Every lift
is written as runs: a first digit 1 gives its p members in closed form, and
any other hook is an edit of the runs it changes, so no member is rebuilt
from its list of parts or its beta-set.

:func:`divides`, the one predicate on degrees, says whether a prime
divides one, off abacus weights, with no hook lengths and without
:mod:`blockwitness.degrees`.  Its weights come from
:func:`blockwitness.partitions.weight`, on abacus runner counts that the
tests pin against exhaustive rim-hook stripping.  The witness audit reads
block membership from cell contents instead (:func:`in_principal_block`, a
tally of length 3p folded mod p in one pass over its three slices), so the
verifier's membership kernel decides no audited fact.

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
meaningful.  Their reports, :class:`ConjectureReport` and
:class:`CrossValidation`, are named tuples: immutable, hashable, positional,
and equal to the plain tuple of their fields.

The alternating-group mode drops the self-conjugate partitions from the
witness sets.  What it proves is one-sided.  A nonempty ``an`` witness set is
a real A_n witness: the restriction is irreducible, of the same degree, and in
B_0(A_n).  An empty set is no verdict on A_n: the split constituents of
degree f/2 of a self-conjugate partition are not modelled, and a partition
and its conjugate restrict to the same character.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import Iterator, NamedTuple

from .factored import InternalInvariantError, primes_up_to
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
    second-difference array of length 3p.  After two running sums the tally
    is folded mod p in one pass that adds its three slices of length p.  No
    abacus is read, so the verifier's kernel decides nothing here.
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
    folded = [flat + x + y + z for x, y, z in zip(tally[:p], tally[p : 2 * p], tally[2 * p :])]
    return folded == [w + (t < b) for t in range(p)]


def principal_p_prime_partitions(n: int, p: int) -> frozenset[Partition]:
    """The partitions of n in the principal p-block whose degree p does not divide.

    With n = sum a_k p^k in base p, the set starts as the principal core
    (a_0), and each digit a_k > 0 adds a_k hooks of length e = p^k to every
    member in every way (see the module docstring) and multiplies the
    expected count by m(e, a_k), the number of e-tuples of partitions of
    total size a_k.  A set of any other size, or with a repeated member, is
    a program fault.

    The hooks are added in a_k rounds of :func:`_hook_lifts`, each on a
    runner no lower than the one before (James and Kerber 1981, 2.7):

    - an e-hook added on runner r is one box added to component r of the
      e-quotient;
    - the previous level's members are partitions of m < e, so they are
      e-cores, and lifts of different members differ;
    - adding boxes in non-decreasing runner order reaches every
      multipartition, and the last runner of such a path is the highest
      nonempty component, so each lift of a round is one dict key with one
      value;
    - a bead count that is a multiple of e keeps the runner labels fixed as
      the length changes, and ``length + e`` beads let one hook add up to e
      rows.

    Each lift is a local edit.  Number the beads beta_k = lambda_k + top - k
    in descending order.  Moving beta_i = x to a free x + e lands it at index
    j, the number of beads above x + e, so the lift's parts are lambda_0 ..
    lambda_{j-1}, then x + e - top + j, then lambda_j + 1 .. lambda_{i-1} + 1
    (the at most e - 1 parts it passes), then lambda_{i+1} .. with trailing
    zeros dropped.  The beads of a run form an interval, so
    :func:`_hook_lifts` reads the free targets off the gaps between runs and
    edits only the runs from j to i.

    A first digit a_1 = 1 lifts the core (b), b = a_0, by one p-hook, and
    m(p, 1) = p.  At beta-set length p + 1 the core's beads are 0 .. p - 1,
    one packed bead on every runner, and b + p, a second one on runner b.
    Every runner of a p-core is packed, so adding a p-hook moves the top
    bead of one runner up by p, and the p runners give exactly p shapes
    (:func:`_one_hook_lifts`): runner b gives (b + p), runner b + j gives
    (b + j, b + 1, 1^(p - b - 1 - j)) for 1 <= j <= p - b - 1, and runner
    c - 1 gives (b, c, 1^(p - c)) for 1 <= c <= b.  Each member's runs are
    written directly, equal values in one run (j = 1, c = b, c = 1, b = 0),
    with no beta-set and no list of parts.
    """
    if p < 2:
        raise ValueError(f"p'-degree sets require p >= 2, got {p}")
    if n < 0:
        raise ValueError(f"cannot partition {n}")
    rest, b = divmod(n, p)
    members = [Partition(((b, 1),) if b else ())]
    expected, e = 1, p
    while rest:
        rest, a = divmod(rest, p)
        if e == p and a == 1:
            members = _one_hook_lifts(b, p)
            expected *= p
        elif a:
            lifts = dict.fromkeys(members, 0)
            for _ in range(a):
                lifts = {
                    lift: r for lam, first in lifts.items() for lift, r in _hook_lifts(lam, e, first)
                }
            members = list(lifts)
            expected *= _multipartition_count(e, a)
        e *= p
    certified = frozenset(members)
    if len(members) != expected or len(certified) != expected:
        raise InternalInvariantError(
            f"digit lift for n={n}, p={p}: {len(members)} principal members,"
            f" {len(certified)} distinct, expected {expected}"
        )
    return certified


def _one_hook_lifts(b: int, p: int) -> list[Partition]:
    # the p partitions with p-core (b) and p-weight 1, one per runner (see
    # principal_p_prime_partitions), each written as its runs
    lifts = [Partition(((b + p, 1),))]
    if not b:
        # (j, 1^(p - j)) for 1 <= j < p, all ones at j = 1
        lifts.append(Partition(((1, p),)))
        lifts += [Partition(((j, 1), (1, p - j))) for j in range(2, p)]
        return lifts
    for j in range(1, p - b):
        # (b + j, b + 1, 1^(p - b - 1 - j)), one run of b + 1 at j = 1
        head = ((b + 1, 2),) if j == 1 else ((b + j, 1), (b + 1, 1))
        lifts.append(Partition(head + ((1, p - b - 1 - j),) if j < p - b - 1 else head))
    for c in range(1, b + 1):
        # (b, c, 1^(p - c)), one run of b at c = b and of ones at c = 1
        if c == 1:
            runs = ((1, p + 1),) if b == 1 else ((b, 1), (1, p))
        else:
            runs = ((b, 2), (1, p - b)) if c == b else ((b, 1), (c, 1), (1, p - c))
        lifts.append(Partition(runs))
    return lifts


def _hook_lifts(lam: Partition, e: int, first: int) -> Iterator[tuple[Partition, int]]:
    # (lift, r) for each lift of lam by one e-hook on a runner r >= first: a
    # bead x moved to a free x + e, on a beta-set whose bead count is a
    # multiple of e and at least lam.length + e, edited on the runs (see
    # principal_p_prime_partitions).  A run of m parts is an interval of
    # beads, so only its top min(m, e) beads can move, and the free beads
    # above it are the gaps between the runs, v' - v under a run of v'.
    top = -(-(lam.length + e) // e) * e - 1
    runs = lam.runs + ((0, top + 1 - lam.length),)
    above = 0
    for a, (v, m) in enumerate(runs):
        hi = v + top - above  # the bead of the run's first part
        above += m
        tail = lam.runs[a + 1 :]
        # targets hi + s for max(1, e - m + 1) <= s <= e, from the gap above
        # this run upwards, each run on the way passed by the moved bead
        low, start, b, passed, shifted = max(1, e - m + 1), 1, a, 0, ()
        while start <= e:
            end = start + (runs[b - 1][0] - runs[b][0] if b else e)  # past the gap
            head = lam.runs[:b]
            for s in range(max(start, low), min(end, e + 1)):
                x = hi + s - e
                if x % e >= first:
                    # x is the run's part d below its first; it becomes u above
                    # the d parts over it and the passed runs, each one larger
                    d, u = e - s, v + s - passed
                    lead, k = head, 1
                    if head and head[-1][0] == u:
                        lead, k = head[:-1], head[-1][1] + 1
                    grown = shifted + ((v + 1, d),) if d else shifted
                    if grown and grown[0][0] == u:
                        grown, k = grown[1:], k + grown[0][1]
                    rest = ((v, m - d - 1),) + tail if v and m - d - 1 else tail
                    yield Partition(lead + ((u, k),) + grown + rest), x % e
            if not b:
                break
            b -= 1
            value, mult = runs[b]
            passed += mult
            shifted = ((value + 1, mult),) + shifted
            start = end + mult


def _multipartition_count(c: int, a: int) -> int:
    # c-tuples of partitions of total size a: the x^a coefficient of
    # prod_{j >= 1} (1 - x^j)^(-c), one factor 1 / (1 - x^j) at a time
    coeffs = [1] + [0] * a
    for j in range(1, a + 1):
        for _ in range(c):
            for i in range(j, a + 1):
                coeffs[i] += coeffs[i - j]
    return coeffs[a]


# An lru_cache under this name, because perfbench/tracing.py reads its cache_info.
@lru_cache(maxsize=32)
def _prime_view(n: int, r: int) -> frozenset[Partition]:
    # B_r = Irr_r'(B_0(S_n)); 32 entries hold every prime <= n for n < 137
    return principal_p_prime_partitions(n, r)


@lru_cache(maxsize=32)
def _divided(n: int, r: int, s: int) -> frozenset[Partition]:
    # the members of B_r whose degree s divides, shared by both group kinds
    return frozenset(lam for lam in _prime_view(n, r) if divides(lam, s))


# An lru_cache under this name, because perfbench/tracing.py reads its cache_info.
@lru_cache(maxsize=32)
def _scan(n: int, r: int) -> frozenset[int]:
    # the primes s != r that divide the degree of some member of B_r, each
    # searched for until its first hit; every triple (n, r, .) reads this one
    # entry, where a search per triple would put its cost on each of them
    members = _prime_view(n, r)
    return frozenset(
        s for s in primes_up_to(n) if s != r and any(divides(lam, s) for lam in members)
    )


class ConjectureReport(NamedTuple):
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


class CrossValidation(NamedTuple):
    """Constructor output for one triple, audited and, where needed, searched."""

    witness: Witness | None
    deferral: str | None
    oracle_agrees: bool | None
    oracle_condition_holds: bool

    @property
    def case_id(self) -> str | None:
        """The case-tree branch that built :attr:`witness`; ``None`` without one."""
        return self.witness and self.witness.candidate.case_id


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
    return CrossValidation(found, params.deferral, agrees, holds)


def prime_pairs(n: int) -> list[tuple[int, int]]:
    """All (p, q) with q < p <= n, ordered by (p, q) ascending."""
    primes = primes_up_to(n)
    return [(p, q) for p in primes for q in primes if q < p]
