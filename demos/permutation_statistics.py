#!/usr/bin/env python3
"""A walk through the permutation statistics behind the library.

We look at one permutation in detail, then enumerate small symmetric groups
to watch the headline equidistribution appear: ballot permutations counted by
descents match odd order permutations counted by the statistic
M = sum over cycles of min(cyclic descents, cyclic ascents).
"""

from itertools import permutations

from ballotperm import permstat
from ballotperm.counts import ballot_total
from ballotperm.oracle import oracle_ballot_desc, oracle_odd_order_M

p = (1, 4, 3, 2, 6, 5)
print(f"permutation      {p}")
print(f"descents         {permstat.descents(p)}")
print(f"ascents          {permstat.ascents(p)}")
print(f"prefix heights   {permstat.prefix_heights(p)}")
print(f"ballot?          {permstat.is_ballot(p)}")

lo, hi = permstat.lowest_points(p)
print(f"lowest points    first at {lo}, last at {hi}")
left, right = permstat.reverse(p[:lo - 1]), p[lo - 1:]
print(f"split at {lo}:      reverse of prefix = {left} (ballot: {permstat.is_ballot(left)}),"
      f" suffix = {right} (ballot: {permstat.is_ballot(right)})")

print(f"cycles           {permstat.cycle_decompose(p)}")
print(f"M statistic      {permstat.m_statistic(p)}")
print(f"odd order?       {permstat.is_odd_order(p)}")

print("\nballot words of length 3, with their descent counts:")
for w in permutations((1, 2, 3)):
    if permstat.is_ballot(w):
        print(f"  {''.join(map(str, w))}  descents={permstat.descents(w)}")

print("\nballot-by-descents vs odd-order-by-M, lengths 1..7:")
print(f"{'n':>2}  {'total':>6}  tables")
for n in range(1, 8):
    b = oracle_ballot_desc(n)
    m = oracle_odd_order_M(n)
    assert b == m
    assert b.total() == ballot_total(n)
    row = ", ".join(f"{d}:{v}" for (d,), v in sorted(b.items()))
    print(f"{n:>2}  {b.total():>6}  {{{row}}}")
print("every row agrees between the two enumerations, "
      "and the totals are the double-factorial products.")
