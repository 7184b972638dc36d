"""Abacus runner counts, weights, quotients, and principal-block membership.

A partition's beta-set is laid out on p runners; sliding a bead one notch
down its runner removes one rim hook of length p.  The packed configuration
is the p-core, so the number of beads on each runner decides the core, and
the number of notches slid is the p-weight.  The per-runner bead patterns
form the p-quotient.  The principal p-block of S_n collects the partitions
whose p-core is (n mod p); membership compares the first differences of the
runner counts (the runner steps) with that core's, and no core is built.
"""

from blockwitness.blocks import principal_block_contains
from blockwitness.oracle import principal_p_prime_partitions
from blockwitness.partitions import Partition, from_parts, partition_runs, runner_counts


def show_abacus(lam: Partition, p: int) -> None:
    length = -(-lam.length // p) * p
    # bead i is part i plus the number of parts below it, zeros padding to `length`
    padded = lam.parts + (0,) * (length - lam.length)
    beta = tuple(a + length - 1 - i for i, a in enumerate(padded))
    print(f"  partition {lam.to_literal()}, p = {p}")
    print(f"  beta-set (length {length}): {beta}")
    quotient = []
    for runner in range(p):
        rows = sorted((b // p for b in beta if b % p == runner), reverse=True)
        print(f"    runner {runner}: beads at rows {rows}")
        # the rows are the beta-set of this runner's quotient component
        parts = [row - (len(rows) - 1 - i) for i, row in enumerate(rows)]
        quotient.append(from_parts(a for a in parts if a > 0))
    counts = runner_counts(lam.runs, p)
    # the principal core (n mod p) at the same length, through the same kernel
    principal = runner_counts(((lam.size % p, 1), (0, lam.length - 1)), p)
    print(f"  runner counts (length {lam.length}): {counts},"
          f" principal core's: {principal}")
    # sliding a bead one notch down its runner removes one p-hook and one
    # box of that runner's component, so the weight is the quotient's size
    weight = sum(c.size for c in quotient)
    print(f"  {p}-weight: {weight}   {p}-quotient: {[c.to_literal() for c in quotient]}")
    print(f"  size check: {lam.size} = {lam.size - p * weight} + {p} * "
          f"{sum(c.size for c in quotient)}")


def main():
    print("== the abacus in action ==")
    show_abacus(from_parts((4,)), 3)
    print()
    show_abacus(from_parts((2, 1, 1, 1, 1, 1, 1, 1)), 3)

    n, p = 9, 3
    print(f"\n== principal {p}-block of S_{n} ==")
    print(f"  block core: {f'[{n % p}]' if n % p else '[]'} (the one-row partition n mod p)")
    members = [lam for lam in map(Partition, partition_runs(n)) if principal_block_contains(lam, p)]
    # B_p, the principal members of degree prime to p, by the digit lift
    coprime = principal_p_prime_partitions(n, p)
    for lam in members:
        mark = "degree coprime to 3" if lam in coprime else ""
        print(f"  {lam.to_literal():>22} {mark}")
    print(f"  {len(members)} members, {len(coprime)} of degree coprime to {p}")


if __name__ == "__main__":
    main()
