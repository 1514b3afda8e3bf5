"""Ground-truth counts by exhaustive enumeration, in two cached walks.

The word walk streams S_{n-1} once and puts n into each of the n gaps of
every word, so it visits each word of S_n once, as (word of S_{n-1}, gap).
One pass over the shorter word and a right-to-left sweep of its gaps give,
per word of S_n, its descents, whether its running height stays >= 0
(ballot), its first letter and the two neighbours of n; it fills the
A_first, b, E and b_factor tables.  The odd-cycle walk fills the M, p and
(odd n) l tables.  An odd order permutation of [n] either fixes n, and is
one of [n-1] with the same M (that M table is carried over from n - 1), or
reads a -> n -> b -> c in a cycle, and is an odd order permutation of
[n-1] minus {b} with a -> c spliced open.  The walk builds every odd order
permutation of [n-2] once, cycle by cycle (each cycle opens at the smallest
unused letter and closes only at odd length), and reads each splice off in
O(1).  Every count is one visited object read off, never a formula.

Tables are deterministic and, once built, must be treated as immutable
(results are cached).  n is capped at ENUMERATION_CAP = 10, a hard ceiling:
10! words is the limit of desk-scale enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

ENUMERATION_CAP = 10


@dataclass(frozen=True)
class CountTable:
    """Sparse nonnegative counts keyed by index tuples; a missing key means 0."""

    stat: str
    n: int
    entries: dict[tuple[int, ...], int]

    def __getitem__(self, key) -> int:
        if not isinstance(key, tuple):
            key = (key,)
        return self.entries.get(key, 0)

    def total(self) -> int:
        return sum(self.entries.values())

    def sorted_items(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.entries.items())


def _check_n(n: int, minimum: int) -> None:
    if not minimum <= n <= ENUMERATION_CAP:
        raise ValueError(f"need {minimum} <= n <= {ENUMERATION_CAP} (the enumeration cap), "
                         f"got {n}")


@lru_cache(maxsize=None)
def _word_tables(n: int) -> dict[str, CountTable]:
    """One walk over S_n, as S_{n-1} with n inserted, filling the A_first, b,
    E and b_factor tables.

    Every word of S_n is a word w of S_{n-1} with n put into one of its n
    gaps.  One pass over w records its descents d, the height after each
    letter and `neg`, the first position whose height is negative (len(w)
    if none); then the gaps are read right to left with `suf`, the minimum
    height from position k on.  n in front: first letter n, d + 1 descents,
    never ballot.  n at the end: d descents, ballot iff w is.  n between
    a = w[k-1] and b = w[k]: the step a -> b becomes a -> n -> b, so the
    word has d + [a < b] descents, every height from b on moves by -s with
    s = +1 if a < b else -1, and the word is ballot iff k <= neg and
    suf >= s.
    """
    if n < 2:                   # the empty word and the word 1: ballot, no descents
        tables = {"b": {(0,): 1}} if n == 0 else {
            "A_first": {(0, 1): 1}, "b": {(0,): 1}, "E": {}, "b_factor": {}}
        return {stat: CountTable(stat, n, entries) for stat, entries in tables.items()}
    m = n - 1
    first = [[0] * (n + 1) for _ in range(n)]   # first[d][j]
    ballot = [0] * n
    e, factor = {}, {}
    for w in permutations(range(1, n)):
        d = h = 0
        heights = [0]
        neg = m
        prev = w[0]
        for k in range(1, m):
            x = w[k]
            if x < prev:
                d += 1
                h -= 1
                if h < 0 and neg == m:
                    neg = k
            else:
                h += 1
            heights.append(h)
            prev = x
        w0 = w[0]
        row_d, row_up = first[d], first[d + 1]
        row_d[w0] += 1                  # n at the end
        if neg == m:
            ballot[d] += 1
        suf = h
        b = w[m - 1]
        for k in range(m - 1, 0, -1):   # n between a and b
            if heights[k] < suf:
                suf = heights[k]
            a = w[k - 1]
            if a < b:
                row_up[w0] += 1
                dn = d + 1
                is_ballot = k <= neg and suf >= 1
            else:
                row_d[w0] += 1
                dn = d
                is_ballot = k <= neg and suf >= -1
            if a == 1 or b == 1:        # factor 1nj or jn1: j is the other neighbour
                key = (dn, a + b - 1)
                e[key] = e.get(key, 0) + 1
            if is_ballot:
                ballot[dn] += 1
                key = (dn, a, b)
                factor[key] = factor.get(key, 0) + 1
            b = a
        row_up[n] += 1                  # n in front
    tables = {"A_first": {(d, j): c for d, row in enumerate(first) for j, c in enumerate(row) if c},
              "b": {(d,): c for d, c in enumerate(ballot) if c}, "E": e, "b_factor": factor}
    return {stat: CountTable(stat, n, entries) for stat, entries in tables.items()}


def _odd_order_cycles(m: int):
    """Yield every odd order permutation of [m] once, as its list of cycles,
    each (letters in the order of the map i -> p_i, cyclic descents).

    A cycle opens at the smallest unused letter and closes only at odd
    length; `d` counts its descents so far, and on closing the wrap pair
    (last, first) is added.  m = 0 yields nothing.
    """
    def grow(cycle, d, rest, closed):
        if len(cycle) % 2:      # close the cycle here, or grow it further below
            done = closed + [(cycle, d + (cycle[-1] > cycle[0]))]
            if rest:
                yield from grow(rest[:1], 0, rest[1:], done)
            else:
                yield done
        last = cycle[-1]
        for k, x in enumerate(rest):
            yield from grow(cycle + (x,), d + (last > x), rest[:k] + rest[k + 1:], closed)

    if m:
        yield from grow((1,), 0, tuple(range(2, m + 1)), [])


@lru_cache(maxsize=None)
def _odd_cycle_tables(n: int) -> dict[str, CountTable]:
    """The M, p and l tables of the odd order permutations of [n], each
    visited once by inserting n.

    Either n is fixed, and the permutation is one on [n-1] with the same M:
    those are carried over from `_odd_cycle_tables(n - 1)["M"]`, with no p
    and no l entry.  Or its cycle reads ... a -> n -> b -> c ...; removing n
    and b leaves an odd order permutation on [n-1] minus {b} in which
    a -> c, and this is a bijection.  M sums min(D, L - D) over the cycles,
    D a cycle's cyclic descents and L its length.  So the walk takes every
    odd order permutation s of [n-2] (letters >= b move up by one, which
    keeps every D and L), every letter a of s with
    successor c, and every b in 1..n-1.  The cycle of a then has
    D - [a > c] + 1 + [c < b] cyclic descents and length L + 2, n follows
    a + [a >= b] and precedes b, and the permutation is a full n-cycle iff s
    is a full (n-2)-cycle.
    """
    if n == 1:
        tables = {"M": {(0,): 1}, "p": {}, "l": {(0,): 1}}
        return {stat: CountTable(stat, n, entries) for stat, entries in tables.items()}
    m_counts = [0] * n
    for (d,), count in _odd_cycle_tables(n - 1)["M"].entries.items():   # n fixed
        m_counts[d] += count
    p_counts = [[[0] * n for _ in range(n)] for _ in range(n)]          # p_counts[d][i][j]
    l_counts = [0] * n
    for cycles in _odd_order_cycles(n - 2):
        total = sum(min(d, len(cycle) - d) for cycle, d in cycles)
        full = n % 2 and len(cycles) == 1
        for cycle, d in cycles:
            size = len(cycle)
            rest = total - min(d, size - d)
            for a, c in zip(cycle, cycle[1:] + cycle[:1]):
                d_new = d - (a > c) + 1             # for b <= c; one more for b > c
                m_low = rest + min(d_new, size + 2 - d_new)
                m_high = rest + min(d_new + 1, size + 1 - d_new)
                for b in range(1, n):
                    m = m_low if b <= c else m_high
                    m_counts[m] += 1
                    p_counts[m][a + (a >= b)][b] += 1
                    if full:
                        l_counts[m] += 1
    tables = {"M": {(d,): c for d, c in enumerate(m_counts) if c},
              "p": {(d, i, j): c for d, rows in enumerate(p_counts)
                    for i, row in enumerate(rows) for j, c in enumerate(row) if c},
              "l": {(d,): c for d, c in enumerate(l_counts) if c}}
    return {stat: CountTable(stat, n, entries) for stat, entries in tables.items()}


def oracle_eulerian_first(n: int) -> CountTable:
    """(d, j) -> permutations of length n with d descents and first letter j."""
    _check_n(n, 1)
    return _word_tables(n)["A_first"]


def oracle_ballot_desc(n: int) -> CountTable:
    """(d,) -> ballot permutations of length n with d descents."""
    _check_n(n, 0)
    return _word_tables(n)["b"]


def oracle_odd_order_M(n: int) -> CountTable:
    """(d,) -> odd order permutations of length n whose M statistic is d."""
    _check_n(n, 1)
    return _odd_cycle_tables(n)["M"]


def oracle_E(n: int) -> CountTable:
    """(d, j) -> permutations of length n with d descents having 1nj or jn1 as a factor."""
    _check_n(n, 3)
    return _word_tables(n)["E"]


def oracle_b_factor(n: int) -> CountTable:
    """(d, i, j) -> ballot permutations of length n with d descents and factor inj."""
    _check_n(n, 3)
    return _word_tables(n)["b_factor"]


def oracle_p_cyclic(n: int) -> CountTable:
    """(d, i, j) -> odd order permutations with M = d and cyclic factor inj."""
    _check_n(n, 3)
    return _odd_cycle_tables(n)["p"]


def oracle_l(n: int) -> CountTable:
    """(d,) -> full n-cycles on [n] with M statistic d; n must be odd."""
    if n % 2 == 0:
        raise ValueError(f"cycle statistic tables need odd n, got {n}")
    _check_n(n, 1)
    return _odd_cycle_tables(n)["l"]


def clear_caches() -> None:
    """Drop both cached walks (used by determinism tests)."""
    _word_tables.cache_clear()
    _odd_cycle_tables.cache_clear()
