"""Tour of factored arithmetic and hook-length degrees.

Every degree in this package is an exact prime factorization; decimals only
appear when printing.  This script prints a full degree table for S_6,
checks the regular-representation identity for S_12, and shows a degree of
S_100 whose decimal form has over 100 digits but whose prime parts are read
off instantly.
"""

import math

from blockwitness.degrees import degree
from blockwitness.factored import factorial_factored
from blockwitness.partitions import Partition, partitions_of


def main():
    print("== degrees of S_6, by hook lengths ==")
    for lam in partitions_of(6):
        deg = degree(lam)
        print(f"  {lam.to_literal():>15}  degree {deg.to_decimal():>2} = {deg.factored_str()}")

    n = 12
    total = sum(degree(lam).to_int() ** 2 for lam in partitions_of(n))
    print(f"\n== sum of squared degrees for S_{n} ==")
    print(f"  sum = {total}")
    print(f"  {n}! = {math.factorial(n)}  (equal: {total == math.factorial(n)})")

    print("\n== the one exact quotient, n! / hooks, never leaves factored form ==")
    lam = Partition((4, 2, 1))  # hooks 6,4,2,1 / 3,1 / 1, product 144
    print(f"  7!   = {factorial_factored(7).factored_str()}")
    print(f"  7! / 144 = {degree(lam).factored_str()} = {degree(lam).to_decimal()}"
          f"  (degree of {lam.to_literal()})")
    print(f"  12!  = {factorial_factored(12).factored_str()}")

    staircase = Partition(tuple(range(13, 0, -1)))  # (13,12,...,1), n = 91
    deg = degree(staircase)
    print("\n== a large-degree example: staircase partition of 91 ==")
    print(f"  partition {staircase.to_literal()}")
    print(f"  degree, factored: {deg.factored_str()}")
    decimal = deg.to_decimal()
    print(f"  degree, decimal ({len(decimal)} digits): {decimal}")
    print(f"  2-part exponent: {deg.valuation(2)}, 7-part exponent: {deg.valuation(7)}")


if __name__ == "__main__":
    main()
