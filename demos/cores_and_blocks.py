"""Abacus cores, quotients, and principal-block membership.

A partition's beta-set is laid out on p runners; sliding a bead one notch
down its runner removes one rim hook of length p.  The packed configuration
is the p-core, and the per-runner bead patterns form the p-quotient.  The
principal p-block of S_n collects the partitions whose p-core is (n mod p).
"""

from blockwitness.blocks import principal_block_contains, principal_core
from blockwitness.oracle import check_conjC
from blockwitness.partitions import Partition, partitions_of


def show_abacus(lam: Partition, p: int) -> None:
    length = -(-len(lam.parts) // p) * p
    beta = lam.beta_set(length)
    print(f"  partition {lam.to_literal()}, p = {p}")
    print(f"  beta-set (length {length}): {beta}")
    for runner in range(p):
        rows = sorted((b // p for b in beta if b % p == runner), reverse=True)
        print(f"    runner {runner}: beads at rows {rows}")
    core = lam.p_core(p)
    quotient = [c.to_literal() for c in lam.p_quotient(p)]
    print(f"  {p}-core: {core.to_literal()}   {p}-quotient: {quotient}")
    print(f"  size check: {lam.size} = {core.size} + {p} * "
          f"{(lam.size - core.size) // p}")


def main():
    print("== the abacus in action ==")
    show_abacus(Partition((4,)), 3)
    print()
    show_abacus(Partition((2, 1, 1, 1, 1, 1, 1, 1)), 3)

    n, p = 9, 3
    print(f"\n== principal {p}-block of S_{n} ==")
    print(f"  block core: {principal_core(n, p).to_literal()}")
    members = [lam for lam in partitions_of(n) if principal_block_contains(lam, p)]
    # the prime-to-p principal set is part of the exhaustive conjecture report
    coprime = check_conjC(n, p, 2).set_B_p
    for lam in members:
        mark = "degree coprime to 3" if lam in coprime else ""
        print(f"  {lam.to_literal():>22} {mark}")
    print(f"  {len(members)} members, {len(coprime)} of degree coprime to {p}")


if __name__ == "__main__":
    main()
