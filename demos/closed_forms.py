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


def show_three_routes(n, ds, lo, brute, rows, s):
    """Print the nonzero (d, j) of one table, d in ds and lo <= j <= n+1-lo:
    brute(d, j), the rows of the recursion, and the x^n slice of the series."""
    js = range(lo, n + 2 - lo)
    sliced = series.letter_counts(s, n, ds, js, lo)
    for d, row in zip(ds, sliced):
        for j, c in zip(js, row):
            a, b = brute(d, j), rows[d][j - lo]
            assert a == b == c
            if a:
                print(f"  ({d}, {j}): {a} / {b} / {c}")


print("\nEulerian numbers refined by first letter, n = 4:")
print("(d, j): brute force / recursion / series extraction")
first = oracle.oracle_eulerian_first(4)
show_three_routes(4, range(4), 1, lambda d, j: first[d, j], counts.first_row(4),
                  cat.first_letter_gf)

print("\npermutations with the largest letter between 1 and j (factor 1nj or jn1), n = 5:")
factor = oracle.oracle_E(5)
show_three_routes(5, range(5), 2, lambda d, j: factor[d, j], counts.e_rows(5), cat.factor_gf)

print("\nodd order permutations with cyclic factor 1nj, n = 5:")
cyclic = oracle.oracle_p_cyclic(5)
show_three_routes(5, range(3), 2, lambda d, j: cyclic[d, 1, j], counts.p_rows(5),
                  cat.cyclic_factor_gf)

print("\nthe ballot series through x^5 (exponential weights: n! times each"
      " x^n coefficient is a count):")
print(series.dump(cat.ballot_gf.truncate(5)))
