"""Exact-arithmetic witnesses for principal blocks of symmetric groups.

The package constructs, for a degree n and distinct primes p and q, a
partition whose symmetric-group character lies in the principal block of one
prime, has degree coprime to that prime and divisible by the other, and
restricts irreducibly to the alternating group.  An oracle checks the same
conditions on the principal p'-degree sets it generates, and a table
auditor evaluates the corresponding block-theoretic properties on
externally supplied character-table summaries.  Each object is imported
from the module that defines it, e.g. ``from blockwitness.witness import
construct_witness``.
"""
