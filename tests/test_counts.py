import hashlib
import io
import json
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from pathlib import Path

import pytest

from ballotperm import cli, counts, oracle, series, verify
from ballotperm.counts import (ballot_desc_row, ballot_series, ballot_total,
                               build_catalog, double_factorial, e_count_rec,
                               eulerian, eulerian_first,
                               l_count, p_count_partition, u_count)

GOLDEN = Path(__file__).parent / "data" / "catalog_dump_sha256.json"
TABLE_GOLDEN = Path(__file__).parent / "data" / "table_sha256.json"


def test_eulerian_first_values():
    assert eulerian_first(1, 0, 1) == 1
    assert eulerian_first(3, 1, 2) == 2
    assert eulerian_first(2, 0, 1) + eulerian_first(2, 1, 2) == 2
    # conventions: anything out of range counts nothing
    assert eulerian_first(0, 0, 1) == 0
    assert eulerian_first(3, -1, 2) == 0
    assert eulerian_first(3, 3, 1) == 0
    assert eulerian_first(3, 1, 4) == 0


def test_eulerian_first_vs_oracle():
    for n in range(1, 7):
        t = oracle.oracle_eulerian_first(n)
        for d in range(n):
            for j in range(1, n + 1):
                assert eulerian_first(n, d, j) == t[(d, j)]


def test_first_letter_one_drops_to_plain_eulerian():
    for n in range(2, 9):
        for d in range(n):
            assert eulerian_first(n, d, 1) == eulerian(n - 1, d)


def test_first_letter_rows_sum_to_eulerian():
    # the triangle rows and the Eulerian row come from different recurrences
    for n in range(61):
        for d in range(max(1, n)):
            total = sum(eulerian_first(n, d, j) for j in range(1, n + 1))
            assert total == (eulerian(n, d) if n else 0), (n, d)


def test_no_descent_forces_increasing_word():
    for n in range(1, 8):
        for j in range(1, n + 1):
            assert eulerian_first(n, 0, j) == (1 if j == 1 else 0)


def test_eulerian():
    assert eulerian(0, 0) == 1
    assert eulerian(4, 1) == 11
    assert eulerian(7, 0) == 1
    assert eulerian(-1, 0) == 0 and eulerian(3, 3) == 0
    for n in range(1, 9):
        assert sum(eulerian(n, d) for d in range(n)) == factorial(n)


def _eulerian_row_from_row_1(n: int) -> tuple[int, ...]:
    # A(m, d) = (d+1) A(m-1, d) + (m-d) A(m-1, d-1), every row from row 1
    row = [1]
    for m in range(2, n + 1):
        row = [(d + 1) * b + (m - d) * a for d, (a, b) in enumerate(zip([0] + row, row + [0]))]
    return tuple(row)


def test_eulerian_rows_asked_in_any_order():
    # each row grows from the largest kept row below it, and only the rows
    # asked for are kept; row 0 is row 1
    counts.clear_caches()
    for n in (300, 20, 0, 60, 1, 50):
        assert counts._eulerian_row(n) == _eulerian_row_from_row_1(n), n
    assert sorted(counts._EULERIAN_ROWS) == [1, 20, 50, 60, 300]


def eulerian_explicit(n: int, d: int) -> int:
    """Eulerian number by the classical alternating binomial sum, which shares
    nothing with the recursion of counts.eulerian."""
    if n == 0:
        return 1 if d == 0 else 0
    if n < 0 or d < 0 or d >= n:
        return 0
    return sum((-1) ** k * comb(n + 1, k) * (d + 1 - k) ** n for k in range(d + 1))


def test_eulerian_explicit_agrees():
    for n in range(0, 201):
        for d in range(-1, n + 1):
            assert eulerian_explicit(n, d) == eulerian(n, d), (n, d)


def test_u_count():
    assert u_count(3, 1, 1) == 2
    assert u_count(1, 0, 1) == 1
    for n in range(1, 9):
        for d in range(n + 1):
            for j in range(1, n + 1):
                assert u_count(n, d, j) == u_count(n, n - d, j)


def test_u_count_reads_the_first_letter_row(monkeypatch):
    # one entry is two entries of row n of A_first, not the whole U row: on the
    # box of test_table_is_the_rows_of_its_lookup, with _u_row raising
    rows = [counts._u_row(n) for n in range(17)]
    want = {(n, d, j): rows[n][d][j - 1] if 0 <= d <= n and 1 <= j <= n else 0
            for n in range(17) for d in range(-1, n + 2) for j in range(-1, n + 3)}

    def whole_row(n):
        raise AssertionError(f"u_count built the U row of {n}")

    monkeypatch.setattr(counts, "_u_row", whole_row)
    assert {key: u_count(*key) for key in want} == want
    assert sum(want.values()) == sum(2 * factorial(n) for n in range(1, 17))


def test_e_count_rec_values():
    assert e_count_rec(3, 1, 2) == 2
    assert e_count_rec(4, 1, 2) == 2
    for n in range(3, 8):
        for j in range(2, n):
            assert sum(e_count_rec(n, d, j) for d in range(n)) == 2 * factorial(n - 2)


def test_e_count_rec_vs_oracle():
    for n in range(3, 7):
        t = oracle.oracle_E(n)
        for d in range(n):
            for j in range(2, n):
                assert e_count_rec(n, d, j) == t[(d, j)]


def test_l_count():
    assert l_count(1, 0) == 1
    assert l_count(3, 1) == 2
    assert l_count(5, 2) == 22
    assert l_count(3, 0) == 0 and l_count(3, 2) == 0
    with pytest.raises(ValueError):
        l_count(4, 1)
    for n in (1, 3, 5, 7):
        t = oracle.oracle_l(n)
        for d in range((n - 1) // 2 + 1):
            assert l_count(n, d) == t[(d,)]


def test_double_factorial_and_ballot_total():
    assert [double_factorial(n) for n in (-1, 0, 1, 5, 6)] == [1, 1, 1, 15, 48]
    assert [ballot_total(n) for n in range(6)] == [1, 1, 1, 3, 9, 45]


def test_ballot_series_slices():
    b = ballot_series(4)
    assert b.coeff(0, 3) == Fraction(1, 6)
    assert b.coeff(1, 3) == Fraction(1, 3)
    assert b.coeff(0, 0) == 1


def test_ballot_exponent_even_eulerian_form():
    # the exponent can be written without cycle counts: x plus, for each even
    # length 2k, twice the descent polynomial shifted by one t
    order = 9
    terms = {(0, 1, 0, 0): Fraction(1)}
    for k in range(1, (order - 1) // 2 + 1):
        for d in range(k):
            terms[(d + 1, 2 * k + 1, 0, 0)] = Fraction(
                2 * eulerian(2 * k, d), factorial(2 * k + 1))
    explicit = series.MultiSeries(order, terms)
    assert series.exp_series(explicit) == ballot_series(order)


def test_ballot_desc_table():
    rows = [ballot_desc_row(n) for n in range(9)]
    assert rows[3] == (1, 2, 0)
    for n, row in enumerate(rows):
        assert len(row) == max(n, 1) and sum(row) == ballot_total(n)
    for n in range(7):
        ot = oracle.oracle_ballot_desc(n)
        for d in range(n + 1):
            assert (rows[n][d] if d < len(rows[n]) else 0) == ot[(d,)]
    # the prefix condition caps the descents at (n-1)/2, and every descent
    # count up to the cap is realized
    assert all(2 * d <= n - 1 or n == 0 for n, row in enumerate(rows)
               for d, v in enumerate(row) if v)
    for n in range(1, 9):
        for d in range((n - 1) // 2 + 1):
            assert rows[n][d] > 0


def _odd_cycle_multisets(m, total_m):
    # reference for counts._odd_row: sum over multisets of
    # (length, M) cycle types, in Fraction, of the exponential formula's terms
    pairs = [(nu, de, l_count(nu, de))
             for nu in range(m if m % 2 else m - 1, 0, -2)
             for de in range((nu - 1) // 2, -1, -1) if l_count(nu, de)]

    def over_types(idx, m_left, d_left):
        if m_left == 0:
            return Fraction(1) if d_left == 0 else Fraction(0)
        if idx == len(pairs):
            return Fraction(0)
        nu, de, lv = pairs[idx]
        acc = over_types(idx + 1, m_left, d_left)   # multiplicity 0
        lam = 1
        while lam * nu <= m_left and lam * de <= d_left:
            weight = Fraction(lv ** lam, factorial(nu) ** lam * factorial(lam))
            acc += weight * over_types(idx + 1, m_left - lam * nu, d_left - lam * de)
            lam += 1
        return acc

    value = factorial(m) * over_types(0, m, total_m)
    assert value.denominator == 1
    return value.numerator


def test_odd_cycle_arrangements_match_multiset_sum():
    # a cycle of length nu has M <= (nu - 1) / 2, so row m stops at D = m // 2
    for m in range(15):
        assert counts._odd_row(m) == tuple(
            _odd_cycle_multisets(m, total_m) for total_m in range(m // 2 + 1)), m
        assert _odd_cycle_multisets(m, m // 2 + 1) == 0, m


def test_odd_cycle_arrangements_total_ballot():
    # odd order permutations of [m] are equinumerous with ballot ones
    for m in range(41):
        assert sum(counts._odd_row(m)) == ballot_total(m)


def test_p_count_partition_values():
    assert p_count_partition(3, 1, 2) == 1
    for n in range(3, 7):
        for j in range(2, n):
            assert p_count_partition(n, 0, j) == 0


def test_p_count_partition_vs_oracle():
    for n in range(3, 7):
        t = oracle.oracle_p_cyclic(n)
        for d in range(n):
            for j in range(2, n):
                assert p_count_partition(n, d, j) == t[(d, 1, j)]


@lru_cache(maxsize=None)
def _piece_weights_by_entry(n, j):
    # reference for the row route: (l, k, W(l, k)) summed entry by entry,
    # one symmetrized first-letter count per (l, k, u)
    out = []
    for l in range(1, n - 1):
        splits = [(u + 1, comb(j - 2, u) * comb(n - j - 1, l - 1 - u))
                  for u in range(max(0, l + j - n), min(j - 1, l))]
        for k in range(l + 1):
            if w := sum(c * u_count(l, k, i) for i, c in splits):
                out.append((l, k, w))
    return tuple(out)


def _e_count_by_entry(n, d, j):
    total = sum(w * eulerian(n - l - 2, d - k - 1) for l, k, w in _piece_weights_by_entry(n, j))
    return total + eulerian_first(n - 2, d - 1, j - 1) - eulerian_first(n - 2, d - 2, j - 1)


def _p_count_by_entry(n, d, j):
    return sum(w * dict(enumerate(counts._odd_row(n - l - 2))).get(d - k - 1, 0)
               for l, k, w in _piece_weights_by_entry(n, j) if l % 2 and 2 * k < l)


def test_partition_rows_match_the_sums_by_entry():
    # the rows hold every entry of the per-entry sums, and the indices off
    # the grid 2 <= j <= n-1, 0 <= d <= n-1 still count zero
    for n in range(17):
        for d in range(-1, n + 1):
            for j in range(n + 2):
                assert e_count_rec(n, d, j) == _e_count_by_entry(n, d, j), (n, d, j)
                assert p_count_partition(n, d, j) == _p_count_by_entry(n, d, j), (n, d, j)


def _piece_weights(n, j):
    # reference for counts._factor_rows, one list of ints per polynomial in d:
    # entry l - 1 is W_l[k], k = 0..l, with W_l[k] = V[k-1] + V[l-1-k] and
    # V[e] = sum_u C(j-2, u) C(n-j-1, l-1-u) A(l, e, u+1)
    out = []
    for l in range(1, n - 1):
        lo, hi = max(0, l + j - n), min(j - 1, l)
        splits = [comb(j - 2, u) * comb(n - j - 1, l - 1 - u) for u in range(lo, hi)]
        v = [sum(c * eulerian_first(l, e, u + 1) for c, u in zip(splits, range(lo, hi)))
             for e in range(l)]
        out.append([a + b for a, b in zip([0] + v, v[::-1] + [0])])
    return out


def _add_shifted_product(row, p, q):
    # row[a + b + 1] += p[a] q[b]
    for a, w in enumerate(p):
        for b, c in enumerate(q):
            row[a + b + 1] += w * c


def _factor_rows_by_lists(n, j):
    # the E and p rows of one (n, j) before E's boundary terms, and the weights
    e_row, p_row = [0] * n, [0] * n
    weights = _piece_weights(n, j)
    for l, w in enumerate(weights, 1):
        _add_shifted_product(e_row, w, counts._eulerian_row(n - l - 2))
        if l % 2:
            _add_shifted_product(p_row, w[:(l + 1) // 2], counts._odd_row(n - l - 2))
    return e_row, p_row, weights


def test_packed_rows_match_the_list_route():
    # every E and p row for n <= 36 equals the sums of products of lists of
    # ints, and every weight and pre-boundary coefficient lies below 2 n!,
    # the bound that sets the packing width of counts._factor_rows
    for n in range(3, 37):
        bound = 2 * factorial(n)
        for j in range(2, n):
            e_row, p_row, weights = _factor_rows_by_lists(n, j)
            assert all(0 <= c < bound for w in weights for c in w), (n, j)
            assert all(0 <= c < bound for c in e_row + p_row), (n, j)
            for d in range(n - 2):
                a = eulerian_first(n - 2, d, j - 1)
                e_row[d + 1] += a
                e_row[d + 2] -= a
            # the tables are d-major: column j - 2 holds the d-row of j
            assert tuple(r[j - 2] for r in counts._e_rows(n)) == tuple(e_row), (n, j)
            assert tuple(r[j - 2] for r in counts._p_rows(n)) == tuple(p_row), (n, j)


def test_catalog_extraction_routes():
    cat = build_catalog(6)
    for n in range(1, 7):
        for d in range(n):
            for j in range(1, n + 1):
                assert (series.extract_first(cat.first_letter_gf, n, d, j)
                        == eulerian_first(n, d, j))
    for n in range(1, 7):
        for d in range(n + 1):
            for j in range(1, n + 1):
                assert (series.extract_first(cat.first_sym_gf, n, d, j)
                        == u_count(n, d, j))
    for n in range(3, 7):
        for d in range(n):
            for j in range(2, n):
                assert (series.extract_factor(cat.factor_gf, n, d, j)
                        == e_count_rec(n, d, j))
                assert (series.extract_factor(cat.cyclic_factor_gf, n, d, j)
                        == p_count_partition(n, d, j))
    for n in range(7):
        for d in range(max(1, (n - 1) // 2 + 1)):
            assert (series.extract_egf(cat.ballot_gf, n, d)
                    == oracle.oracle_ballot_desc(n)[(d,)])


def test_first_sym_series_slice_symmetry():
    cat = build_catalog(7)
    for n in range(1, 8):
        for d in range(n + 1):
            for j in range(1, n + 1):
                assert (series.extract_first(cat.first_sym_gf, n, d, j)
                        == series.extract_first(cat.first_sym_gf, n, n - d, j))


def test_catalog_structure():
    cat = build_catalog(5)
    assert cat.ballot_factor_gf == 2 * cat.cyclic_factor_gf
    assert cat.eulerian_gf == cat.eulerian_egf - series.one(5)
    # low-descent odd part: only odd x-degrees with 2 e_t <= e_x - 1
    assert all(m[1] % 2 and 2 * m[0] <= m[1] - 1 for m in cat.first_sym_odd_gf.terms)
    # pair series support: 1 <= i < j <= n-1
    assert all(1 <= m[2] < m[3] <= m[1] - 1 for m in cat.pair_factor_gf.terms)


def test_catalog_determinism_and_cache():
    a = build_catalog.__wrapped__(4)
    b = build_catalog.__wrapped__(4)
    for name in counts.CATALOG_SERIES:
        assert getattr(a, name).terms == getattr(b, name).terms
    assert build_catalog(4) is build_catalog(4)


@pytest.mark.parametrize("order", [6, 10, 15])
def test_catalog_compositions_match_bivariate_forms(order):
    # the build multiplies by univariate series composed with x -> x(1+y) in
    # one pass and never forms the geometric tail in yz; each step equals the
    # bivariate form it replaced, with E(x(1+y)) = subst_x_times(E, 1) expanded
    one, t, x, y = (series.one(order), series.monomial(order, 1, e_t=1),
                    series.monomial(order, 1, e_x=1), series.monomial(order, 1, e_y=1))
    xy = x * y
    cat = build_catalog(order)
    eul_egf = series.geom(series.q_of(x))
    eul_sub = series.subst_x_times(eul_egf, one)
    assert series.geom(series.q_of(x + xy)) == eul_sub
    e_xy = series.exp_tm1(xy)
    assert cat.first_letter_gf == xy * e_xy * eul_sub
    sparse = t * e_xy + series.exp_tm1(x)
    dense = series.subst_x_times(eul_egf * eul_egf, one)
    assert eul_sub * cat.first_sym_gf == xy * dense * sparse
    assert series.subst_x_times(eul_egf * eul_egf, xy * sparse) == xy * dense * sparse
    ballot_sub = series.subst_x_times(cat.ballot_gf, one)
    assert cat.cyclic_factor_gf == t * x * x * y * ballot_sub * cat.first_sym_odd_gf
    cyc = cat.cyclic_factor_gf
    s = 2 * y * (series.y_to_z(cyc) - series.mirror_y_with_z(cyc))
    yz_sum = series.MultiSeries(order, {(0, 0, k, k): Fraction(1) for k in range(order + 2)})
    assert series.geom_yz_lower(s) == series.select(s * yz_sum, lambda m: m[2] <= m[1])
    assert series.geom_yz_lower(s) == cat.pair_factor_gf


def test_catalog_dumps_match_golden_hashes():
    # sha256 of series.dump for every catalog series, pinned at orders 6, 10
    # and 15 from the Fraction-coefficient implementation, at order 25 from
    # the bivariate-kernel build and at order 33, the catalog of verify at the
    # no-force cap, from the tuple-keyed slices: the catalog must stay
    # bit-identical under any change of the series kernels or of the algebra
    # that assembles it
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == ["10", "15", "25", "33", "6"]
    for order, digests in golden.items():
        cat = build_catalog.__wrapped__(int(order))
        assert sorted(digests) == sorted(counts.CATALOG_SERIES)
        for name, digest in digests.items():
            text = series.dump(getattr(cat, name))
            assert hashlib.sha256(text.encode()).hexdigest() == digest, (order, name)


def test_tables_match_golden_hashes():
    # sha256 of the `table` JSON for A, A_first, U, E, p, l and b at every
    # n <= 14 and at one larger size each, recorded from the recursive
    # first-letter route, the Fraction multiset sum and the whole-triangle
    # ballot table: every table must stay byte-identical
    golden = json.loads(TABLE_GOLDEN.read_text())
    assert sorted(golden) == sorted(["A", "A_first", "U", "E", "p", "l", "b"])
    for stat, digests in golden.items():
        for n, digest in digests.items():
            buf = io.StringIO()
            cli._write_table(buf, stat, int(n), cli._table_entries(stat, int(n)), "json")
            text = buf.getvalue()
            assert text.endswith("}\n")       # the digests omit the final newline
            assert hashlib.sha256(text[:-1].encode()).hexdigest() == digest, (stat, n)


def _memo_sizes():
    # every cache in the module, and the memo tables it keeps by hand
    sizes = {name: fn.cache_info().currsize for name, fn in vars(counts).items()
             if hasattr(fn, "cache_info")}
    sizes.update(_FIRST_ROWS=len(counts._FIRST_ROWS), _EULERIAN_ROWS=len(counts._EULERIAN_ROWS))
    return sizes


def test_clear_caches_drops_every_memo(monkeypatch):
    def tables():
        return {stat: cli._table_entries(stat, n)
                for stat, n in (("A", 14), ("A_first", 14), ("U", 14), ("E", 14), ("p", 14))}

    before = tables()
    build_catalog(4)
    # table reads the rows, so the per-entry caches are filled here
    eulerian_first(5, 1, 2), eulerian(5, 1)
    sizes = _memo_sizes()
    assert {"eulerian_first", "eulerian", "build_catalog", "_odd_row"} <= set(sizes)
    # every memo holds something, so one that clear_caches missed would show
    assert all(sizes.values()), sizes
    # a tracing wrapper in place of build_catalog leaves its cache reachable
    real = counts.build_catalog
    monkeypatch.setattr(counts, "build_catalog", lambda order: real(order))
    counts.clear_caches()
    monkeypatch.undo()
    sizes = _memo_sizes()
    assert not any(sizes.values()), sizes
    assert tables() == before


def test_first_letter_rows_below_one_are_never_kept():
    # row 0 was once stored as [[1]], and later rows grew from it: row 1 came
    # out [[1], [0]] and row 2 with three d-rows
    counts.clear_caches()
    assert counts._first_row(0) == [] and counts._first_row(-1) == []
    assert counts._first_row(1) == [[1]]
    assert counts._first_row(2) == [[1, 0], [0, 1]]
    assert sorted(counts._FIRST_ROWS) == [1, 2]
    # table at n = 0, then verify, in one process
    counts.clear_caches()
    assert cli._table_entries("A_first", 0) == []
    assert all(r.passed for r in verify.run_all(order=6, n_max_oracle=5))


# each fast table stat, its per-entry lookup, and the (rows, columns) the
# lookup's bounds give its row table; a 1-dimensional table has columns None
ROW_TABLES = {
    "A": (eulerian, lambda n: counts._eulerian_row(n), lambda n: (max(1, n), None)),
    "A_first": (eulerian_first, lambda n: counts._first_row(n), lambda n: (n, n)),
    "U": (u_count, lambda n: counts._u_row(n), lambda n: (n + 1, n)),
    "E": (e_count_rec, lambda n: counts._e_rows(n), lambda n: (n, max(0, n - 2))),
    "p": (p_count_partition, lambda n: counts._p_rows(n), lambda n: (n, max(0, n - 2))),
    "l": (l_count, lambda n: counts._l_row(n), lambda n: (n // 2 + 1, None)),
}


@pytest.mark.parametrize("stat", sorted(ROW_TABLES))
def test_table_is_the_rows_of_its_lookup(stat):
    # table reads the row table whole; the lookup indexes the same rows, and
    # counts zero on a box one wider than its domain on every side
    lookup, rows, shape = ROW_TABLES[stat]
    for n in range(17):
        if stat == "l" and n % 2 == 0:
            with pytest.raises(ValueError):
                cli._table_entries(stat, n)
            continue
        length, width = shape(n)
        assert len(rows(n)) == length, (stat, n)
        assert width is None or all(len(r) == width for r in rows(n)), (stat, n)
        if width is None:
            box = [(d,) for d in range(-1, length + 1)]
        else:
            box = [(d, j) for d in range(-1, length + 1) for j in range(-1, n + 3)]
        want = [(key, v) for key in box if (v := lookup(n, *key))]
        assert cli._table_entries(stat, n) == want, (stat, n)


def test_commands_call_no_per_entry_lookup(monkeypatch, tmp_path):
    # the two cached lookups show it in their counters, the others by raising
    counts.clear_caches()

    def called(*args):
        raise AssertionError(f"per-entry lookup called with {args}")

    for name in ("u_count", "e_count_rec", "p_count_partition", "l_count"):
        monkeypatch.setattr(counts, name, called)
    out = str(tmp_path / "out")
    for stat in ("A", "A_first", "U", "E", "b", "l", "p"):
        assert cli.main(["table", "--stat", stat, "--n", "13", "--out", out]) == 0, stat
    bfile = str(Path(__file__).parent / "data" / "b008292.txt")
    assert cli.main(["verify", "--order", "14", "--n-max-oracle", "7",
                     "--oeis-bfile", bfile, "--out", out]) == 0
    for fn in (eulerian_first, eulerian):
        info = fn.cache_info()
        assert (info.hits, info.misses) == (0, 0), fn
