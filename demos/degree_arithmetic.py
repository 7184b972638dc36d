"""Tour of factored arithmetic and hook-length degrees.

Every degree in this package is an exact prime factorization; decimals only
appear when printing.  This script prints a full degree table for S_6,
checks the regular-representation identity for S_12, and shows the degree
of the staircase partition of 91, whose decimal form has 68 digits but
whose prime parts are read off instantly.
"""

import math

from blockwitness.degrees import degree
from blockwitness.factored import FactoredNatural, primes_up_to
from blockwitness.partitions import Partition, from_parts, partition_runs


def factorial_factored(k):
    """k! in factored form: each prime p <= k to the power floor(k/p) + floor(k/p^2) + ...

    p^i > k once i reaches the bit length of k, so later terms are 0.
    """
    return FactoredNatural(
        tuple((p, sum(k // p**i for i in range(1, k.bit_length()))) for p in primes_up_to(k))
    )


def main():
    print("== degrees of S_6, by hook lengths ==")
    for lam in map(Partition, partition_runs(6)):
        deg = degree(lam.runs)
        print(f"  {lam.to_literal():>15}  degree {deg.to_decimal():>2} = {deg.factored_str()}")

    n = 12
    total = sum(degree(lam.runs).to_int() ** 2 for lam in map(Partition, partition_runs(n)))
    print(f"\n== sum of squared degrees for S_{n} ==")
    print(f"  sum = {total}")
    print(f"  {n}! = {math.factorial(n)}  (equal: {total == math.factorial(n)})")

    print("\n== the one exact quotient, n! / hooks, never leaves factored form ==")
    lam = from_parts((4, 2, 1))  # hooks 6,4,2,1 / 3,1 / 1, product 144
    print(f"  7!   = {factorial_factored(7).factored_str()}")
    print(f"  7! / 144 = {degree(lam.runs).factored_str()} = {degree(lam.runs).to_decimal()}"
          f"  (degree of {lam.to_literal()})")
    print(f"  12!  = {factorial_factored(12).factored_str()}")

    staircase = from_parts(range(13, 0, -1))  # (13,12,...,1), n = 91
    deg = degree(staircase.runs)
    print("\n== a large-degree example: staircase partition of 91 ==")
    print(f"  partition {staircase.to_literal()}")
    print(f"  degree, factored: {deg.factored_str()}")
    decimal = deg.to_decimal()
    print(f"  degree, decimal ({len(decimal)} digits): {decimal}")
    print(f"  2-part exponent: {deg.valuation(2)}, 7-part exponent: {deg.valuation(7)}")


if __name__ == "__main__":
    main()
