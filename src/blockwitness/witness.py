"""Candidate construction and verification of principal-block witnesses.

Given n >= 9 and distinct primes q < p <= n with n // p > 1, the engine
produces a partition whose character sits in the principal block of one of
the two primes (the host), has degree coprime to the host, degree divisible
by the other prime (the divisor), and is not self-conjugate, so the same
character witnesses the alternating group by restriction.

Each witness certifies conjectures B and C (as :mod:`blockwitness.tables`
labels them) for S_n and for A_n at its tuple.  B: it lies in
Irr_h'(B_0), h the host, and the divisor divides its degree, so the two
primes' sets differ.  C: its degree is cross-divisible, and no Sylow p- and
q-subgroups of S_n or A_n commute, by the proof in
:func:`blockwitness.tables.build_sn_summary`.  Its restriction to A_n has
the same degree and lies in B_0(A_n), the one block that B_0(S_n) covers.

The construction is a case split on the parameter record; a fallback row
names a tuple (n, p, q) at which the tests see it win:

    case I    r > 0
      I.a               b = 0:        (1^(mp-r-1), 1+r)          host p
      I.b               0 < r != b:   (1^(mp-r-1), 1+min, max)   host p
      I.b-fallback                    (1^mp, b)                  host p
      I.c               b = r > 0:    (1^r, r+1, wq-1)           host p
      I.c-fallback1                   (1^(wq-2), 1+r, 1+r)       host p  (82, 5, 3)
      I.c-fallback2-r1  q odd, r = 1: (1^(n-2), 2)               host q  (23, 11, 3)
      I.c-fallback2-q2  q = 2:        (1^(n-2), 2)               host q  (22, 3, 2)
    case II   r = 0 and A1 < B1   (A1, B1 the lowest base-q / base-p
                                   summands of mp)
      II.a              b = 0:        (1^(mp-A1-1), 1+A1)        host p
      II.b              b != A1:      (1^(mp-A1-1), 1+min, max)  host p
      II.b-fallback                   (1^mp, b)                  host p
      II.c              b = A1:       (1^(mp-b-2), b+1, b+1)     host p
      II.c-alt          p = b+1, p | m-1:  (1^(mp-p), b+p)       host p  (68, 3, 2)
      II.c-alt-q2       q = 2:        (1^(mp-1), b+1)            host q  (32, 3, 2)
    case III  r = 0 and A1 > B1
      III.a             b = 0:        (1^(mp-B1-1), 1+B1)        host q
      III.b             b > 0:        (1^(mp-B1-1), b+1, B1)     host q
      III.b-alt1                      (b+1, mp-1)                host p  (108, 5, 3)
      III.b-alt2                      (1^mp, b)                  host p  (109, 5, 3)
      III.b-final                     (1^(mp-1), 1+b)            host q  (2925, 11, 5)

Candidates are built and tried in this order and each one is verified from
scratch: block membership, both degree valuations, and self-conjugacy are
recomputed rather than predicted by side conditions.  The partition, the
spec's runs of equal parts (at most three here), is built once, since every
outcome records it, and no check lists its n parts: each run is
an interval of beads of the beta-set, which gives its share of the abacus
runner counts in O(1) steps; the degree comes from the rectangles
between the runs, as one packed exponent sum whose sign-mask check is
O(1) and from which :func:`blockwitness.degrees.packed_exponent` reads
the host and divisor exponents, decoded into factored form only for the
candidate that wins; and a shape whose length differs from its first
part is not self-conjugate.
A parameter record for which no candidate verifies raises
:class:`CaseTreeFalsified`, which is the whole point of running the engine.

Three proved facts keep the lists short.  By proof 1 the I.c list ends at
I.c-fallback1 when r >= 2; by proof 2 II.c-alt-q2 needs no condition beyond
q = 2, so every q = 2 record of case II.c ends in a verified candidate; by
proof 3 I.a, the one candidate of case I with b = 0, needs no fallback.

Proof 1 (I.c with r >= 2: I.c-fallback1 verifies).  Take
mu = (r+1, r+1, 1^(wq-2)), a partition of wq + 2r = n.

- Block: mu's beta-set with wq beads is that of the principal core (b) = (r)
  with bead 0 moved to r + wq = mp, a multiple of p, so mu is in B_0(p).
- Hook product: mp * (mp-1) * (r+1)! * r! * (wq-2)!, so the degree is
  (wq-1) wq ... n / (mp (mp-1) (r+1)! r!).
- p-part 0: r+1 <= q < p, and mp is the only multiple of p in [wq-1, n]
  (mp - p < wq - 1 = mp - r - 1, and the next multiple exceeds n = mp + b).
- q-part >= 1: q | wq, and q divides neither wq+r nor wq+r-1 since
  2 <= r < q.  When r = q-1 the factor q of (r+1)! is matched by the second
  multiple (w+1)q <= wq + 2r = n.
- Not self-conjugate: mu has wq parts, more than its first part r+1 <= q,
  since m >= 2 gives wq = mp - r > 2p - q > q.

Proof 2 (II.c with q = 2: II.c-alt-q2 verifies).  Here b = A1 = 2^t with
t >= 1, the lowest set bit of mp; take the hook (b+1, 1^(mp-1)).

- Block: the hook has even size n = mp + 2^t, so its 2-core is empty,
  which is the principal core.
- Host: the degree is C(n-1, b), odd by Lucas, because bit t of
  n-1 = mp + (2^t - 1) is the lowest set bit of mp.
- Divisor: p | C(n-1, b) by Lucas, because the last base-p digit of n-1 is
  b-1 < b.
- Not self-conjugate: b+1 is odd and mp is even, so arm and leg differ.

Proof 3 (I.a, n = mp: the hook (1+r, 1^(mp-r-1)) verifies).

- Block: its beta-set with mp - r beads is the empty partition's with bead 0
  moved to mp, a multiple of p, so its p-core is empty, the principal core.
- Host: the degree is C(mp-1, r), prime to p by Lucas, because the last
  base-p digit of mp-1 is p-1 >= r and r < q < p is one base-p digit.
- Divisor: q | C(mp-1, r) by Lucas, because mp = r (mod q) with 0 < r < q,
  so the last base-q digit of mp-1 is r-1 < r.
- Not self-conjugate: the arm r differs from the leg mp-r-1, since
  mp >= 2p > 2r+1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .blocks import principal_block_contains
from .degrees import packed_degree, packed_exponent, unpack_degree
from .factored import FactoredNatural, InternalInvariantError
from .parameters import CaseParameters, derive_case_parameters
from .partitions import AscendingSpec, NonMonotoneSpec, Partition


class SpecSumMismatch(InternalInvariantError):
    """A candidate spec does not sum to n; a case branch is mistranscribed."""


class CaseTreeFalsified(InternalInvariantError):
    """No candidate verified for a parameter record inside the case tree."""

    def __init__(self, params: CaseParameters, failures: list["VerificationFailure"]):
        self.failures = failures
        attempted = "; ".join(
            f"{f.candidate.case_id} {f.partition.to_literal()}: {f.reason}"
            for f in failures
        )
        super().__init__(
            f"no candidate verified for n={params.n} p={params.p} q={params.q}"
            f" (tried: {attempted})"
        )


@dataclass(frozen=True)
class WitnessCandidate:
    """One candidate shape with its intended host and divisor primes."""

    case_id: str
    spec: AscendingSpec
    host_prime: int
    divisor_prime: int


@dataclass(frozen=True)
class Witness:
    """A verified candidate; every recorded fact was recomputed, not trusted."""

    candidate: WitnessCandidate
    partition: Partition
    degree: FactoredNatural


@dataclass(frozen=True)
class VerificationFailure:
    """A candidate that failed verification, with the violated condition."""

    candidate: WitnessCandidate
    partition: Partition
    reason: str


def _ones_then(ones: int, *tail: int) -> AscendingSpec:
    # the case tree builds every spec, so a malformed one is a program fault
    try:
        return AscendingSpec(((1, ones),) + tuple((value, 1) for value in tail))
    except NonMonotoneSpec as exc:
        raise InternalInvariantError(f"malformed candidate spec: {exc}") from exc


def candidates(params: CaseParameters) -> Iterator[WitnessCandidate]:
    """The ordered candidates for the record's active case, built one at a time.

    A record with a deferral (n < 9 or m <= 1) yields none; those regimes
    are covered by other means and carry no candidates.
    """
    if params.deferral is not None:
        return
    p, q = params.p, params.q
    n, mp, b, w, r = params.n, params.mp, params.b, params.w, params.r
    if r > 0:
        if b == 0:
            yield WitnessCandidate("I.a", _ones_then(mp - r - 1, 1 + r), p, q)
        elif r != b:
            low, high = (r, b) if r < b else (b, r)
            yield WitnessCandidate("I.b", _ones_then(mp - r - 1, 1 + low, high), p, q)
            yield WitnessCandidate("I.b-fallback", _ones_then(mp, b), p, q)
        else:
            # b = r > 0; m > 1 gives r + 1 < wq, which is exactly what keeps the
            # first spec weakly increasing, so _ones_then faults on a violation
            yield WitnessCandidate("I.c", _ones_then(r, r + 1, w * q - 1), p, q)
            yield WitnessCandidate("I.c-fallback1", _ones_then(w * q - 2, 1 + r, 1 + r), p, q)
            if r == 1:
                # the two candidates above both lose their q-part at r = 1 (for
                # r >= 2 the first fallback verifies, proof 1); the width-2 hook
                # has degree n - 1 = mp and lies in the principal q-block of
                # n = wq + 2, so it hosts at q.  q = 2 forces r = 1.
                case_id = "I.c-fallback2-q2" if q == 2 else "I.c-fallback2-r1"
                yield WitnessCandidate(case_id, _ones_then(n - 2, 2), q, p)
    else:
        a1q, b1p = params.low_q_part, params.low_p_part
        if a1q == b1p:
            # impossible: a1 < q and b1 < p make the lowest summands distinct
            raise InternalInvariantError(
                f"lowest base-q and base-p summands coincide at n={n}, p={p}, q={q}"
            )
        if a1q < b1p:
            if b == 0:
                yield WitnessCandidate("II.a", _ones_then(mp - a1q - 1, 1 + a1q), p, q)
            elif b != a1q:
                low, high = (a1q, b) if a1q < b else (b, a1q)
                yield WitnessCandidate("II.b", _ones_then(mp - a1q - 1, 1 + low, high), p, q)
                yield WitnessCandidate("II.b-fallback", _ones_then(mp, b), p, q)
            else:
                # checked before the first candidate, so it holds whichever one wins
                alt = p == b + 1 and (params.m - 1) % p == 0
                if alt and b1p != p:
                    raise InternalInvariantError(
                        f"p = b+1 and p | m-1 must force the lowest base-p"
                        f" summand to be p at n={n}, p={p}, q={q}"
                    )
                yield WitnessCandidate("II.c", _ones_then(mp - b - 2, b + 1, b + 1), p, q)
                if alt:
                    yield WitnessCandidate("II.c-alt", _ones_then(mp - p, b + p), p, q)
                if q == 2:
                    yield WitnessCandidate("II.c-alt-q2", _ones_then(mp - 1, b + 1), q, p)
        else:
            if b == 0:
                yield WitnessCandidate("III.a", _ones_then(mp - b1p - 1, 1 + b1p), q, p)
            else:
                yield WitnessCandidate("III.b", _ones_then(mp - b1p - 1, b + 1, b1p), q, p)
                yield WitnessCandidate("III.b-alt1", _ones_then(0, b + 1, mp - 1), p, q)
                yield WitnessCandidate("III.b-alt2", _ones_then(mp, b), p, q)
                yield WitnessCandidate("III.b-final", _ones_then(mp - 1, 1 + b), q, p)


def verify_candidate(candidate: WitnessCandidate, n: int) -> Witness | VerificationFailure:
    """Recheck all four witness facts on the candidate's partition.

    Every outcome records the partition, the spec's runs, so it is built
    first; its size, membership, the degree and self-conjugacy are all
    computed from those runs.  The degree is one checked packed sum
    (:func:`blockwitness.degrees.packed_degree`): the host and divisor
    exponents are its fields at those primes, read by
    :func:`blockwitness.degrees.packed_exponent`, and the sum is decoded
    into a :class:`FactoredNatural` once, after all four checks pass, for
    the witness.
    """
    lam = candidate.spec.to_partition()
    if lam.size != n:
        raise SpecSumMismatch(
            f"candidate {candidate.case_id} spec {candidate.spec} sums to"
            f" {lam.size}, expected {n}"
        )
    host, divisor = candidate.host_prime, candidate.divisor_prime
    if not principal_block_contains(lam, host):
        return VerificationFailure(candidate, lam, f"outside the principal {host}-block")
    packed = packed_degree(lam.runs, n)
    if packed_exponent(packed, host):
        return VerificationFailure(candidate, lam, f"degree divisible by host prime {host}")
    if not packed_exponent(packed, divisor):
        return VerificationFailure(candidate, lam, f"degree not divisible by {divisor}")
    if lam.is_self_conjugate():
        return VerificationFailure(candidate, lam, "self-conjugate")
    return Witness(candidate=candidate, partition=lam, degree=unpack_degree(packed, n))


def construct_witness(n: int, p: int, q: int) -> Witness | None:
    """First verifying candidate for (n, p, q); primes may come either way.

    Returns ``None`` outside the construction's regime (the record's
    ``deferral`` says why) and raises :class:`CaseTreeFalsified` if every
    candidate fails verification, which must never happen.
    """
    return _construct(derive_case_parameters(n, p, q))


def _construct(params: CaseParameters) -> Witness | None:
    # construct_witness for a record already derived (and so validated)
    if params.deferral is not None:
        return None
    failures: list[VerificationFailure] = []
    for candidate in candidates(params):
        outcome = verify_candidate(candidate, params.n)
        if isinstance(outcome, Witness):
            return outcome
        failures.append(outcome)
    raise CaseTreeFalsified(params, failures)
