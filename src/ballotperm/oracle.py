"""Ground-truth counts by exhaustive enumeration, in two cached walks.

The word walk (A_first, b, E, b_factor) visits the (n-2)! words on the
letters 2..n-1 once: each word of S_n is one of them with 1 and then n put
into a gap, and what an extreme letter does in a gap depends only on the
up-down pattern of the shorter word (de Bruijn 1970; Stanley, EC1 1.6), so
the gaps are classified once per pattern, and each word's pattern is read
at its lexicographic rank in one byte table.  The odd-cycle walk
(M, p and, for odd n, l) carries the odd order permutations that fix n
over from n - 1 and builds every other one from an odd order permutation
of [n-2] with a -> n -> b spliced into the cycle of a: each cycle on [L],
odd L <= n - 2, is visited once and put on every L-set of letters, with
the walk's own M table of the letters left.  Each visited word or cycle is
tallied by class, and each class is expanded over the gaps, or over the
letter sets and b: a count is a product of tallies, never a formula.
Both walks sum into a row by d: an int per d for a table keyed by d
alone, read by `_by_d`, and a packed int per d, a field per index, for
the others, read by `_unpack`.

Each table is a `collections.Counter` keyed by index tuples, so a missing
key reads 0.  Tables are deterministic and, once built, must be treated as
immutable (results are cached).  Every table serves each n from 0 up to
ENUMERATION_CAP = 10, a hard ceiling: 10! words is the limit of desk-scale
enumeration.  Below its first nonempty size a table is empty, as no
permutation qualifies; only `oracle_l` refuses an n, every even one.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate, combinations, permutations, product
from math import factorial
from operator import gt

ENUMERATION_CAP = 10


def _check_n(n: int) -> None:
    if not 0 <= n <= ENUMERATION_CAP:
        raise ValueError(f"need 0 <= n <= {ENUMERATION_CAP} (the enumeration cap), got {n}")


def _pattern_ids(m: int) -> bytes:
    """The up-down pattern id of each word w of S_m, in the lexicographic
    order in which `permutations(range(1, m + 1))` yields the words.

    The id reads [w_1 < w_2], [w_2 < w_3], ... as binary digits, the first
    comparison highest, so it fits a byte for m <= 9.  The word of rank
    (f-1)(m-1)! + r(m-2)! + i starts with f, and its tail, standardized, is
    the word of rank r(m-2)! + i of S_{m-1}, which starts with r + 1; so its
    id is the tail's, with bit m - 2 set iff r >= f - 1.
    """
    ids = b"\0"                     # S_0 and S_1: one word, no comparison
    for k in range(2, m + 1):
        high = ids.translate(bytes(x | 1 << (k - 2) for x in range(256)))  # fails past k = 9
        size = len(ids) // (k - 1)  # (k - 2)!
        ids = b"".join(ids[:f * size] + high[f * size:] for f in range(k))
    return ids


def _gap_classes(m: int) -> list[tuple[int, bool, tuple[tuple[int, int], ...]]]:
    """What putting m + 1 into each gap of a word w of S_m does, indexed by
    the id of w's up-down pattern (see `_pattern_ids`); `product` yields the
    patterns in ascending id order.

    Each value is (d, w is ballot, ((k, dn), ...)): d counts the descents
    of w, and each inner gap k, between a = w[k-1] and b = w[k], that gives
    a ballot word is listed with that word's dn descents.  With h the height
    after each letter of w (h[0] = 0, +1 per ascent, -1 per descent) and
    `neg` the first position of negative height (m if none): m + 1 in front
    gives d + 1 descents and never a ballot word; at the end, d descents and
    a ballot word iff w is one; in gap k, a -> b becomes a -> m+1 -> b, so
    dn = d + [a < b], every height from b on moves by -s with s = +1 if
    a < b else -1, and the word is ballot iff k <= neg and min(h[k:]) >= s.
    """
    classes = []
    for ups in product((0, 1), repeat=max(m - 1, 0)):
        h = list(accumulate((2 * up - 1 for up in ups), initial=0))
        neg = next((k for k, x in enumerate(h) if x < 0), m)
        d = ups.count(0)
        gaps = tuple((k, d + ups[k - 1]) for k in range(1, m)
                     if k <= neg and min(h[k:]) >= 2 * ups[k - 1] - 1)
        classes.append((d, neg == m, gaps))
    return classes


def _ids_with_1(k: int) -> list[list[int]]:
    """For the pattern id i of each word u on k + 1 letters above 1 (see
    `_pattern_ids`), the ids of u with 1 put at each position g = 0..k+1: the
    comparisons within u[:g], a descent into 1 unless g = 0, an ascent out of
    1 unless g = k + 1, and the t = k - g comparisons within u[g:]."""
    return [[(i >> (t + 1)) << (t + 2) | 1 << t | i & ((1 << t) - 1) for t in range(k, -1, -1)]
            + [i << 1] for i in range(1 << k)]


def _unpack(rows: list[int], width: int, n: int = 0) -> Counter:
    """The nonzero fields of packed ints, `width` bits a field: field f of
    rows[d] at key (d, f), or at (d, *divmod(f, n)) when n is given."""
    table, mask = Counter(), (1 << width) - 1
    for d, x in enumerate(rows):
        f = 0
        while x:
            if x & mask:
                table[(d, *divmod(f, n)) if n else (d, f)] = x & mask
            x >>= width
            f += 1
    return table


def _by_d(row: list[int]) -> Counter:
    """The nonzero entries of a row by d, at key (d,)."""
    return Counter({(d,): c for d, c in enumerate(row) if c})


@lru_cache(maxsize=None)
def _word_tables(n: int) -> dict[str, Counter]:
    """One walk over the words u on 2..n-1, filling the A_first, b, E and
    b_factor tables of S_n.

    A word of S_n is a word w of S_{n-1} with n in one of its gaps, and w is
    u with 1 at some position g.  What the extreme letters 1 and n do in a
    gap depends only on the up-down pattern around it, so u is tallied only
    by its pattern id i (see `_pattern_ids`) and, for each p, by the pair
    (u[p], u[p+1]) at field a*n + b of the packed int slabs[i][p], `width`
    bits a field, so that no count (each below n!) carries.  The letters at
    position p + 1 of u are the column sums of slab p, those at position 0
    the blocks of words that share a first letter.  Each (id of u, g) gives
    the class of w (see `_ids_with_1` and `_gap_classes`): w starts with 1 at
    g = 0 and with u[0] otherwise; 1 follows u[g-1] (factor jn1, d descents)
    and precedes u[g] (factor 1nj, d + 1); and a ballot gap h of w lies
    between u[g-1] and 1 (h = g), 1 and u[g] (h = g + 1), or two letters of
    u.  Last, each class of w is expanded over the gaps of n: n at the end or
    in one of the d descent gaps keeps w's first letter and d descents, one
    of the n - 2 - d ascent gaps gives d + 1, and n in front gives first
    letter n and d + 1 descents.
    """
    if n < 3:       # S_0, S_1, S_2: no factor inj, and the ballot words have no descent
        return {"A_first": Counter({(d, d + 1): 1 for d in range(n)}), "b": Counter({(0,): 1}),
                "E": Counter(), "b_factor": Counter()}
    m, k = n - 1, n - 3                     # u has k comparisons, w has k + 1
    width = factorial(n).bit_length() + 1
    row = n * width
    one = [[1 << (a * n + b) * width for b in range(n)] for a in range(n)]  # one pair (a, b)
    ids, positions = _pattern_ids(n - 2), range(k)
    slabs = [[0] * k for _ in range(1 << k)]                # slabs[i][p]: (u[p], u[p+1])
    for u, i in zip(permutations(range(2, n)), ids):
        s = slabs[i]
        for p in positions:
            s[p] += one[u[p]][u[p + 1]]
    size, total = factorial(k), [0] * (1 << k)
    letters = [[0] for _ in slabs]                          # letters[i][p]: u[p]
    for f in range(n - 2):                                  # the words with u[0] = f + 2
        for i, c in Counter(ids[f * size:(f + 1) * size]).items():
            total[i] += c
            letters[i][0] += c << (f + 2) * width
    low = (1 << row) - 1
    for q, s in zip(letters, slabs):
        q += [sum(x >> a * row & low for a in range(2, n)) for x in s]
    classes = _gap_classes(m)
    firsts, counts = [0] * len(classes), [0] * len(classes)  # by the pattern of w
    e, factor, col1 = [0] * n, [0] * n, [0] * n     # packed by d: E, b_factor, its column 1
    for s, q, c, ws in zip(slabs, letters, total, _ids_with_1(k)):
        for g, w in enumerate(ws):
            firsts[w] += q[0] if g else c << width
            counts[w] += c
            d, _, gaps = classes[w]
            if g:                           # factor jn1
                e[d] += q[g - 1]
            if g <= k:                      # factor 1nj
                e[d + 1] += q[g]
            for h, dn in gaps:
                if h == g:                  # u[g-1], 1
                    col1[dn] += q[g - 1]
                elif h == g + 1:            # 1, u[g]: row 1
                    factor[dn] += q[g] << row
                else:
                    factor[dn] += s[h - 1 if h < g else h - 2]
    first, ballot = [0] * n, [0] * n
    for (d, is_ballot, gaps), x, c in zip(classes, firsts, counts):
        if is_ballot:                           # n at the end
            ballot[d] += c
        for _, dn in gaps:
            ballot[dn] += c
        first[d] += (d + 1) * x                 # n at the end or in a descent
        first[d + 1] += (m - 1 - d) * x + (c << row)   # n in an ascent, or in front (j = n)
    pairs = _unpack(factor, width, n)
    pairs.update({(d, a, 1): c for (d, a), c in _unpack(col1, width).items()})
    return {"A_first": _unpack(first, width), "b": _by_d(ballot),
            "E": _unpack(e, width), "b_factor": pairs}


@lru_cache(maxsize=None)
def _cycle_classes(size: int) -> Counter:
    """(D, a, c) -> letters a of the (size-1)! cycles on [size], c the successor
    of a and D the cycle's cyclic descents.  Each cycle is read from 1 and
    drawn once, as 1 followed by an order of 2..size."""
    return Counter((d, a, c) for order in permutations(range(2, size + 1))
                   for cycle, succ in [((1, *order), (*order, 1))]
                   for d in [sum(map(gt, cycle, succ))] for a, c in zip(cycle, succ))


@lru_cache(maxsize=None)
def _odd_cycle_tables(n: int) -> dict[str, Counter]:
    """The M, p and l tables of the odd order permutations of [n], each
    counted once by inserting n.

    Either n is fixed, and the permutation is one on [n-1] with the same M:
    those are carried over from `_odd_cycle_tables(n - 1)["M"]`, with no p
    and no l entry.  Or its cycle reads ... a -> n -> b -> c ...; removing n
    and b leaves an odd order permutation s on [n-1] minus {b} in which
    a -> c, and this is a bijection.  M sums min(D, L - D) over the cycles,
    D a cycle's cyclic descents and L its length.  The cycle of a in s is
    one on an odd-size set S of letters of [n-2], and the rest of s an odd
    order permutation of the n - 2 - L letters left, so the pairs (s, a)
    are the classes (D, a, c) of the cycles on [L] (see `_cycle_classes`),
    relabeled by every S and weighted by the M table of the rest.  Each is
    expanded over every b in 1..n-1 (letters >= b move up by one, which
    keeps every D and L): the cycle of a has D - [a > c] + 1 + [c < b]
    cyclic descents and length L + 2, n follows a + [a >= b] and precedes
    b, and the permutation is a full n-cycle iff L = n - 2.  M and l are
    rows by M; p is packed by M, as b_factor is in `_word_tables`, with
    (a + [a >= b], b) at field (a + [a >= b]) n + b; spread[a][c] sums
    these fields over b <= c, and the classes of one L are summed by the
    M of a's new cycle before they meet the rest.
    """
    if n < 2:       # M = 0 for the empty permutation and for 1, a full cycle
        return {"M": Counter({(0,): 1}), "p": Counter(), "l": Counter({(0,): 1} if n else {})}
    width = factorial(n).bit_length() + 1
    m_row, p_rows, l_row = [0] * n, [0] * n, [0] * n
    for (d,), count in _odd_cycle_tables(n - 1)["M"].items():   # n fixed
        m_row[d] += count
    spread = [list(accumulate((1 << ((a + (a >= b)) * n + b) * width for b in range(1, n)),
                              initial=0)) for a in range(n - 1)]
    for size in range(1, n - 1, 2):
        classes = [(min(e, size + 2 - e), min(e + 1, size + 1 - e), a - 1, c - 1, count)
                   for (d, a, c), count in _cycle_classes(size).items()
                   for e in [d - (a > c) + 1]]      # new cycle's descents at b <= c, +1 at b > c
        packed, counted = [0] * ((size + 3) // 2), [0] * ((size + 3) // 2)  # by the new cycle's M
        for letters in combinations(range(1, n - 1), size):
            for low, high, a, c, count in classes:
                a, c = letters[a], letters[c]
                lo = spread[a][c]
                packed[low] += count * lo
                packed[high] += count * (spread[a][-1] - lo)
                counted[low] += count * c
                counted[high] += count * (n - 1 - c)
        rows = (m_row, l_row) if size == n - 2 else (m_row,)     # a full n-cycle, n odd
        for (rest,), weight in _odd_cycle_tables(n - 2 - size)["M"].items():
            for part, (x, c) in enumerate(zip(packed, counted), rest):
                p_rows[part] += weight * x
                for row in rows:
                    row[part] += weight * c
    return {"M": _by_d(m_row), "p": _unpack(p_rows, width, n), "l": _by_d(l_row)}


def oracle_eulerian_first(n: int) -> Counter:
    """(d, j) -> permutations of length n with d descents and first letter j."""
    _check_n(n)
    return _word_tables(n)["A_first"]


def oracle_ballot_desc(n: int) -> Counter:
    """(d,) -> ballot permutations of length n with d descents."""
    _check_n(n)
    return _word_tables(n)["b"]


def oracle_odd_order_M(n: int) -> Counter:
    """(d,) -> odd order permutations of length n whose M statistic is d."""
    _check_n(n)
    return _odd_cycle_tables(n)["M"]


def oracle_E(n: int) -> Counter:
    """(d, j) -> permutations of length n with d descents having 1nj or jn1 as a factor."""
    _check_n(n)
    return _word_tables(n)["E"]


def oracle_b_factor(n: int) -> Counter:
    """(d, i, j) -> ballot permutations of length n with d descents and factor inj."""
    _check_n(n)
    return _word_tables(n)["b_factor"]


def oracle_p_cyclic(n: int) -> Counter:
    """(d, i, j) -> odd order permutations with M = d and cyclic factor inj."""
    _check_n(n)
    return _odd_cycle_tables(n)["p"]


def oracle_l(n: int) -> Counter:
    """(d,) -> full n-cycles on [n] with M statistic d; n must be odd."""
    if n % 2 == 0:
        raise ValueError(f"cycle length must be odd, got {n}")
    _check_n(n)
    return _odd_cycle_tables(n)["l"]


def clear_caches() -> None:
    """Drop both cached walks and the cycle classes (used by determinism tests)."""
    _word_tables.cache_clear()
    _odd_cycle_tables.cache_clear()
    _cycle_classes.cache_clear()
