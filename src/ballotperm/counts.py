"""Recursions, partition sums, and the closed-form generating series catalog.

Every counting sequence here is computable along at least two independent
routes: the memoized recursions and partition sums in this module, exhaustive
enumeration (`oracle`), and coefficient extraction from the closed forms
assembled by `build_catalog`.  The verification suite (`verify`) holds the
routes against each other with exact integer arithmetic.

A count table of one n >= 0 is d-major: rows[d][j - lo], j from the table's
lowest letter lo, zeros included, or one row by d.  The per-entry lookups
index it and count zero off it.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import accumulate, repeat
from math import comb, factorial, prod
from operator import add, mul, sub
from typing import NamedTuple

from . import series
from .series import MultiSeries


_FIRST_ROWS: dict[int, list[list[int]]] = {}        # n -> row[d][j - 1] = A(n, d, j)
_EULERIAN_ROWS: dict[int, tuple[int, ...]] = {}     # n -> row[d] = A(n, d)


def _grown_row(memo: dict, n: int, base, step):
    """Row n >= 1 of the triangle with row 1 `base` and row m step(row m-1, m),
    grown from the largest row below n in `memo`.  The memo keeps the rows
    asked for, not every row below them as a cache chained row to row would."""
    if n not in memo:
        m = max((k for k in memo if k < n), default=1)
        memo[n] = reduce(step, range(m + 1, n + 1), memo.get(m, base))
    return memo[n]


def _first_row(n: int) -> list[list[int]]:
    """Row n of the first-letter triangle, [] for n < 1 (never stored).  The second letter
    i of the standardized tail lies below j (a descent) or not, so A(m, d, j) = sum_{i<j}
    A(m-1, d-1, i) + sum_{i>=j} A(m-1, d, i): a running sum over j from sum_i A(m-1, d, i)."""
    return [] if n < 1 else _grown_row(_FIRST_ROWS, n, [[1]], lambda row, m: [
        list(accumulate([sum(hi)] + [a - b for a, b in zip(lo, hi)]))
        for lo, hi in zip([[0] * (m - 1)] + row, row + [[0] * (m - 1)])])


# kept only because perfbench's child.counters() reads its cache_info(); ROADMAP item 2 drops it
@lru_cache(maxsize=None)
def eulerian_first(n: int, d: int, j: int) -> int:
    """Permutations of length n with d descents and first letter j; 0 off the table."""
    if n < 1 or not 0 <= d <= n - 1 or not 1 <= j <= n:
        return 0
    return _first_row(n)[d][j - 1]


def _eulerian_row(n: int) -> tuple[int, ...]:
    # A(m, d) = (d+1) A(m-1, d) + (m-d) A(m-1, d-1); row 0 is row 1, (1,)
    return _grown_row(_EULERIAN_ROWS, max(n, 1), (1,), lambda row, m: tuple(
        (d + 1) * b + (m - d) * a for d, (a, b) in enumerate(zip((0,) + row, row + (0,)))))


# kept only because perfbench's child.counters() reads its cache_info(); ROADMAP item 2 drops it
@lru_cache(maxsize=None)
def eulerian(n: int, d: int) -> int:
    """Eulerian number: permutations of length n with d descents; eulerian(0, 0) = 1."""
    if n < 0 or d < 0 or d >= max(n, 1):
        return 0
    return _eulerian_row(n)[d]


def _u_row(n: int) -> list[list[int]]:
    # row n of U, entry [d][j - 1] for d = 0..n; rows[d + 1] = A(n, d, .)
    rows = [[0] * n] + _first_row(n) + [[0] * n]
    return [[a + b for a, b in zip(rows[d], rows[n - d])] for d in range(n + 1)]


def u_count(n: int, d: int, j: int) -> int:
    """Permutations of length n with first letter j and d-1 descents or n-d-1
    ascents, A(n, d-1, j) + A(n, n-d-1, j); symmetric under d <-> n-d."""
    if n < 1 or not 0 <= d <= n or not 1 <= j <= n:
        return 0
    row = _first_row(n)
    return sum(row[e][j - 1] for e in (d - 1, n - d - 1) if 0 <= e < n)


def _pack(cs, wb: int) -> int:
    """The polynomial sum_i cs[i] X^i at X = 256^wb, as one int."""
    return int.from_bytes(b"".join(map(int.to_bytes, cs, repeat(wb), repeat("little"))), "little")


def _unpack(packed: int, wb: int, count: int) -> list[int]:
    b = packed.to_bytes(wb * count, "little")
    return [int.from_bytes(b[i:i + wb], "little") for i in range(0, len(b), wb)]


def _factor_rows(n: int, rest, odd: bool) -> list[list[int]]:
    """The d-major rows, [d][j - 2] for j = 2..n-1, of the factor sums
    sum_l W_l[k] rest(n-l-2)[d-k-1] before E's boundary terms, over odd l and
    2k < l only if `odd`.  The length-l piece next to n on j's side has u
    letters below j: W_l[k] = sum_u C(j-2, u) C(n-j-1, l-1-u) U(l, k, u+1),
    with U(l, k, i) = A(l, k-1, i) + A(l, l-1-k, i).  A polynomial in d is one
    int of wb-byte fields, wide enough because every field of every
    intermediate is a count below 2 n!: rest(m)[0] = 1 puts each W_l[k] below
    a field of the final row, which is at most E + A(n-2) < 2 n!."""
    wb = (2 * factorial(n)).bit_length() // 8 + 1     # at least one spare bit
    acc = [0] * (n - 2)
    for l in range(1, n - 1, 1 + odd):
        cols = [_pack(c, wb) for c in zip(*_u_row(l))]   # field k of column u: U(l, k, u+1)
        q = _pack((0,) + rest(n - l - 2), wb)     # n and its descent shift by one
        mask = (1 << 8 * wb * ((l + 1) // 2 if odd else l + 1)) - 1
        for j in range(2, n):
            lo, hi = max(0, l + j - n), min(j - 1, l)
            splits = [comb(j - 2, u) * comb(n - j - 1, l - 1 - u) for u in range(lo, hi)]
            acc[j - 2] += (sum(map(mul, splits, cols[lo:hi])) & mask) * q
    by_j = [_unpack(x, wb, n) for x in acc]
    return [[row[d] for row in by_j] for d in range(n)]


@lru_cache(maxsize=None)
def _e_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """The d-major rows of E: _factor_rows and e_count_rec's boundary terms."""
    rows = _factor_rows(n, _eulerian_row, False)
    for d, r in enumerate(_first_row(n - 2)):
        rows[d + 1] = list(map(add, rows[d + 1], r))
        rows[d + 2] = list(map(sub, rows[d + 2], r))
    return tuple(map(tuple, rows))


def e_count_rec(n: int, d: int, j: int) -> int:
    """Permutations of length n with d descents having 1nj or jn1 as a factor.

    Splits the word at the factor: the length-l piece containing j, reversed
    and standardized, becomes a symmetrized first-letter count over a chosen
    letter set (the weights W_l of _factor_rows), while the other piece is a
    plain descent count.  Two boundary terms handle the word starting with 1nj
    and cancel the double count:  E(n, d, j) = sum W_l[k] A(n-l-2, d-k-1) +
    A(n-2, d-1, j-1) - A(n-2, d-2, j-1), read from the rows of _e_rows(n).
    """
    if not 2 <= j <= n - 1 or not 0 <= d <= n - 1:
        return 0
    return _e_rows(n)[d][j - 2]


def _l_row(n: int) -> tuple[int, ...]:
    """Entry d, 2d <= n - 1, counts the full n-cycles on [n] with M = d, n odd.
    For n > 1 it is twice A(n-1, d-1): dropping n from the cycle word leaves
    d-1 or n-d-1 descents, two disjoint cases for odd n.  All 0 for n < 1."""
    if n % 2 == 0:
        raise ValueError(f"cycle length must be odd, got {n}")
    return (int(n == 1),) + tuple(2 * a for a in _eulerian_row(n - 1)[:n // 2])


def l_count(n: int, d: int) -> int:
    """Full n-cycles on [n] whose M statistic is d; n must be odd."""
    row = _l_row(n)
    return row[d] if 0 <= d < len(row) else 0


def double_factorial(n: int) -> int:
    """n!! = n (n-2) (n-4) ..., with (-1)!! = 0!! = 1."""
    if n < -1:
        raise ValueError(f"double factorial needs n >= -1, got {n}")
    return prod(range(n, 1, -2))


def ballot_total(n: int) -> int:
    """Closed product for the number of ballot permutations of length n."""
    if n % 2 == 0:
        return double_factorial(n - 1) ** 2
    return double_factorial(n) * double_factorial(n - 2)


def ballot_series(order: int) -> MultiSeries:
    """EGF of ballot permutations refined by descents: exp of the odd-cycle
    series, the sum over odd n of l(n, d) t^d x^n / n!."""
    return series.exp_series(series.egf(order, {
        (d, n, 0, 0): v for n in range(1, order + 1, 2) for d, v in enumerate(_l_row(n))}))


def ballot_desc_row(n: int) -> tuple[int, ...]:
    """Entry d < max(n, 1): ballot permutations of length n with d descents,
    read from the exponential closed form."""
    b = ballot_series(n)
    return tuple(series.extract_egf(b, n, d) for d in range(max(n, 1)))


@lru_cache(maxsize=None)
def _odd_row(m: int) -> tuple[int, ...]:
    """Row m >= 0 of the odd-cycle arrangements: entry D, 2D <= m, counts the
    ways to arrange a labeled m-set into disjoint odd cycles with M summing
    to D.  The cycle through the smallest letter has odd length nu:
    a(m, D) = sum C(m-1, nu-1) l(nu, delta) a(m-nu, D-delta)."""
    row = [int(m == 0)] + [0] * (m // 2)
    for nu in range(1, m + 1, 2):
        for delta, l in enumerate(_l_row(nu)):
            if lv := comb(m - 1, nu - 1) * l:
                for rest, v in enumerate(_odd_row(m - nu)):
                    row[delta + rest] += lv * v
    return tuple(row)


@lru_cache(maxsize=None)
def _p_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """The d-major rows of p."""
    return tuple(map(tuple, _factor_rows(n, _odd_row, True)))


def p_count_partition(n: int, d: int, j: int) -> int:
    """Odd order permutations of [n] with M = d and cyclic factor 1nj, by the
    partition sum over the cycle through n and the cycle type of the rest.

    The cycle through the letters 1, n, j has odd length m1 + m2 + 3, where m1
    of its other letters lie below j and m2 above; its arrangements are a
    symmetrized first-letter count, and the remaining letters form odd cycles
    in every way that spends the leftover M.  The rest of that cycle read from
    j is the piece of _factor_rows with l = m1 + m2 + 1, of which only odd l
    and the low half 2k < l count cycle arrangements:  p(n, d, j) = sum
    W_l[k] a(n-l-2, d-k-1), read from the rows of _p_rows(n).
    """
    if not 2 <= j <= n - 1 or not 0 <= d <= n - 1:
        return 0
    return _p_rows(n)[d][j - 2]


class SeriesCatalog(NamedTuple):
    """Every closed-form generating series, built once per truncation order.

    The note in parentheses names the extraction that recovers the counts.

    eulerian_egf      sum over n >= 0 of the descent polynomials times x^n/n!
                      (extract_egf)
    eulerian_gf       the same without the constant term          (extract_egf)
    first_letter_gf   Eulerian counts refined by first letter     (extract_first)
    first_sym_gf      symmetrized first-letter count: d-1 descents or n-d-1
                      ascents                                     (extract_first)
    first_sym_odd_gf  its odd-length, low-descent (2d <= n-1) part
    factor_gf         permutations with 1nj or jn1 as a factor    (extract_factor)
    ballot_gf         ballot permutations by descents             (extract_egf)
    cyclic_factor_gf  odd order permutations with cyclic factor 1nj
                      (extract_factor)
    ballot_factor_gf  ballot permutations with factor 1nj or jn1; twice the
                      previous entry
    pair_factor_gf    odd order with cyclic factor inj, neighbors tracked as
                      y^i z^j                                     (extract_quad)
    """

    order: int
    eulerian_egf: MultiSeries
    eulerian_gf: MultiSeries
    first_letter_gf: MultiSeries
    first_sym_gf: MultiSeries
    first_sym_odd_gf: MultiSeries
    factor_gf: MultiSeries
    ballot_gf: MultiSeries
    cyclic_factor_gf: MultiSeries
    ballot_factor_gf: MultiSeries
    pair_factor_gf: MultiSeries


CATALOG_SERIES = tuple(name for name in SeriesCatalog._fields if name != "order")


@lru_cache(maxsize=None)
def build_catalog(order: int) -> SeriesCatalog:
    """Build the full closed-form catalog at the given x-truncation order.

    Catalogs are cached per order and must be treated as immutable.
    """
    one = series.one(order)
    t = series.monomial(order, 1, e_t=1)
    x = series.monomial(order, 1, e_x=1)
    y = series.monomial(order, 1, e_y=1)
    xy = series.monomial(order, 1, e_x=1, e_y=1)

    eul_egf = series.geom(series.q_of(x))
    eul = eul_egf - one
    e_xy = series.exp_tm1(xy)
    # geom(q_of(w)) sees w only through its powers, so 1/(1-q(x+xy)) = E(x(1+y))
    first = series.subst_x_times(eul_egf, xy * e_xy)

    # symmetrized count: t * first realizes the d-1 half, and the coefficient
    # transform t^d -> t^(n-d-1) realizes the (1/t)-reversed half exactly
    first_sym = t * first + series.map_exponents(
        first, lambda m: (m[1] - m[0] - 1, m[1], m[2], m[3]))
    first_sym_odd = series.project_half(series.select(first_sym, lambda m: m[1] % 2))

    # A(n, n-1-d, j) = A(n, d, n+1-j) (complement w -> n+1-w), so E(x(1+y)) *
    # first_sym = xy E(x(1+y))^2 (t e^((t-1)xy) + e^((t-1)x)), dense times sparse
    factor = t * x * x * y * (
        series.subst_x_times(eul_egf * eul_egf, xy * (t * e_xy + series.exp_tm1(x)))
        + (one - t) * first)

    ballot = ballot_series(order)
    cyclic_factor = series.subst_x_times(ballot, t * x * x * y * first_sym_odd)
    ballot_factor = 2 * cyclic_factor

    # pair series: (2y / (1 - yz)) * (P(t,x,z) - P(t,xyz,1/y)).  The quotient
    # counts pairs i < j <= n - 1, so it has e_y <= e_x, and the terms of the
    # geometric sum above that diagonal cancel; geom_yz_lower never forms them
    diff = series.y_to_z(cyclic_factor) - series.mirror_y_with_z(cyclic_factor)
    pair = series.geom_yz_lower(2 * y * diff)

    return SeriesCatalog(
        order=order,
        eulerian_egf=eul_egf,
        eulerian_gf=eul,
        first_letter_gf=first,
        first_sym_gf=first_sym,
        first_sym_odd_gf=first_sym_odd,
        factor_gf=factor,
        ballot_gf=ballot,
        cyclic_factor_gf=cyclic_factor,
        ballot_factor_gf=ballot_factor,
        pair_factor_gf=pair,
    )


# taken here, so that clear_caches reaches each cache even while a caller has
# put a wrapper in place of the module's name
_CACHED = (eulerian_first, eulerian, _e_rows, _odd_row, _p_rows, build_catalog)


def clear_caches() -> None:
    """Drop all memo tables and cached catalogs."""
    _FIRST_ROWS.clear()
    _EULERIAN_ROWS.clear()
    for fn in _CACHED:
        fn.cache_clear()
