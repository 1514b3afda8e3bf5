#!/usr/bin/env python3
"""The closed-form series catalog, and why it can be trusted.

Every counting sequence in the catalog can be computed three ways: brute
force over S_n, a recursion or partition sum, and coefficient extraction
from a truncated multivariate exponential series whose x^n coefficients,
times n!, are integers.  This script builds the catalog at a small order
and shows the routes agreeing entry by entry, then prints a small series in
full.
"""

from ballotperm import counts, oracle, series

ORDER = 8
cat = counts.build_catalog(ORDER)
print(f"catalog built at truncation order {ORDER}")
for name in counts.CATALOG_SERIES:
    print(f"  {name:18s} {len(getattr(cat, name).terms):5d} stored monomials")

print("\nEulerian numbers refined by first letter, n = 4:")
print("(d, j): brute force / recursion / series extraction")
table = oracle.oracle_eulerian_first(4)
for d in range(4):
    for j in range(1, 5):
        a = table[(d, j)]
        b = counts.eulerian_first(4, d, j)
        c = series.extract_first(cat.first_letter_gf, 4, d, j)
        assert a == b == c
        if a:
            print(f"  ({d}, {j}): {a} / {b} / {c}")

print("\npermutations with the largest letter between 1 and j (factor 1nj or jn1), n = 5:")
for d in range(5):
    for j in range(2, 5):
        a = oracle.oracle_E(5)[(d, j)]
        b = counts.e_count_rec(5, d, j)
        c = series.extract_factor(cat.factor_gf, 5, d, j)
        assert a == b == c
        if a:
            print(f"  ({d}, {j}): {a} / {b} / {c}")

print("\nodd order permutations with cyclic factor 1nj, n = 5:")
for d in range(3):
    for j in range(2, 5):
        a = oracle.oracle_p_cyclic(5)[(d, 1, j)]
        b = counts.p_count_partition(5, d, j)
        c = series.extract_factor(cat.cyclic_factor_gf, 5, d, j)
        assert a == b == c
        if a:
            print(f"  ({d}, {j}): {a} / {b} / {c}")

print("\nthe ballot series through x^5 (exponential weights: n! times each"
      " x^n coefficient is a count):")
print(series.dump(cat.ballot_gf.truncate(5)))
