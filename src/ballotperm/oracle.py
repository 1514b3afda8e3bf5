"""Ground-truth counts by exhaustive enumeration, in two cached walks.

The word walk streams S_{n-1} once and puts n into each of the n gaps of
every word, so it visits each word of S_n once, as (word of S_{n-1}, gap).
One pass over the shorter word and a right-to-left sweep of its gaps give,
per word of S_n, its descents, whether its running height stays >= 0
(ballot), its first letter and the two neighbours of n; it fills the
A_first, b, E and b_factor tables.  The odd-cycle walk builds every odd
order permutation of [n] once, cycle by cycle: each cycle opens at the
smallest unused letter and closes only at odd length.  It fills the M, p
and (odd n) l tables.  Every count is one visited object read off, never a
formula.

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


@lru_cache(maxsize=None)
def _odd_cycle_tables(n: int) -> dict[str, CountTable]:
    """One DFS over the odd order permutations of [n] filling M, p and l.

    A cycle is grown in the direction of the map i -> p_i; `d` counts its
    descents so far, and on closing the wrap pair (last, start) is added, so
    the cycle's M part is min(cyclic descents, cyclic ascents) (0 for a fixed
    point).  n never opens a cycle longer than 1, so once placed its
    predecessor `pred` is known; its successor `succ` is the next letter
    placed, or the start when the cycle closes right after n.  0 means unset.
    """
    m_counts, p_counts, l_counts = {}, {}, {}

    def grow(start, last, length, d, m, rest, pred, succ):
        if length % 2:          # close the cycle here, or grow it further below
            d_cyc = d + (last > start)
            m_done = m + min(d_cyc, length - d_cyc)
            succ_done = start if last == n else succ
            if rest:
                grow(rest[0], rest[0], 1, 0, m_done, rest[1:], pred, succ_done)
            else:
                m_counts[m_done,] = m_counts.get((m_done,), 0) + 1
                if pred:
                    key = (m_done, pred, succ_done)
                    p_counts[key] = p_counts.get(key, 0) + 1
                if length == n:
                    l_counts[m_done,] = l_counts.get((m_done,), 0) + 1
        for k, x in enumerate(rest):
            grow(start, x, length + 1, d + (last > x), m, rest[:k] + rest[k + 1:],
                 last if x == n else pred, x if last == n else succ)

    grow(1, 1, 1, 0, 0, tuple(range(2, n + 1)), 0, 0)
    return {"M": CountTable("M", n, m_counts), "p": CountTable("p", n, p_counts),
            "l": CountTable("l", n, l_counts)}


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
