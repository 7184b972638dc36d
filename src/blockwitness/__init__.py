"""Exact-arithmetic witnesses for principal blocks of symmetric groups.

The package constructs, for a degree n and distinct primes p and q, a
partition whose symmetric-group character lies in the principal block of one
prime, has degree coprime to that prime and divisible by the other, and
restricts irreducibly to the alternating group.  A brute-force oracle checks
the same conditions by exhausting all partitions, and a table auditor
evaluates the corresponding block-theoretic properties on externally
supplied character-table summaries.
"""

from .factored import (
    FactoredNatural,
    NotDivisible,
    factor,
    factorial_factored,
    is_prime,
    primes_up_to,
)
from .partitions import (
    AscendingSpec,
    NonMonotoneSpec,
    LengthTooSmall,
    Partition,
    partitions_of,
)
from .parameters import CaseParameters, NotPrime, PrimeExceedsN, derive_case_parameters
from .degrees import degree, degree_valuation
from .blocks import principal_block_contains
from .witness import (
    CaseTreeFalsified,
    SpecSumMismatch,
    VerificationFailure,
    Witness,
    WitnessCandidate,
    WitnessDeferred,
    candidate_list,
    construct_witness,
    verify_candidate,
)
from .oracle import (
    ConjectureReport,
    CrossValidation,
    check_conjC,
    cross_validate,
    prime_pairs,
)
from .tables import (
    AuditFinding,
    CharacterRow,
    CharacterTableSummary,
    ParseError,
    audit,
    build_sn_summary,
    parse_table,
    serialize_table,
)

__all__ = [
    "AscendingSpec",
    "AuditFinding",
    "CaseParameters",
    "CaseTreeFalsified",
    "CharacterRow",
    "CharacterTableSummary",
    "ConjectureReport",
    "CrossValidation",
    "FactoredNatural",
    "LengthTooSmall",
    "NonMonotoneSpec",
    "NotDivisible",
    "NotPrime",
    "ParseError",
    "Partition",
    "PrimeExceedsN",
    "SpecSumMismatch",
    "VerificationFailure",
    "Witness",
    "WitnessCandidate",
    "WitnessDeferred",
    "audit",
    "build_sn_summary",
    "candidate_list",
    "check_conjC",
    "construct_witness",
    "cross_validate",
    "degree",
    "degree_valuation",
    "derive_case_parameters",
    "factor",
    "factorial_factored",
    "is_prime",
    "parse_table",
    "partitions_of",
    "prime_pairs",
    "primes_up_to",
    "principal_block_contains",
    "serialize_table",
    "verify_candidate",
]
