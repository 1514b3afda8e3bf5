"""The certification suite: every counting identity checked along independent
routes, coefficient by coefficient, in exact integer arithmetic.

A check is a generator of its stages, each comparing two routes: the rows of an
index grid in lexicographic order (a series grid one x-slice at a time), two
whole series, or the support of one series.  A brute-force stage fetches its
oracle table when the check reaches it.  The one decorator `_check` runs the
stages: the first discrepancy ends the check, and its CheckReport carries the
smallest discrepant index with both values and `compared`, the number of
entries compared: grid rows up to the discrepancy, and the monomials stored in
the series.  A check that compared nothing does not pass.  All comparisons are
exact equality, never tolerances.  A check that reads series takes the catalog
it certifies, built one order above its reporting order, and reports at
cat.order - 1, so that identities involving formal derivatives are exact at the
reported order.  The grids that hold a series against a recursion or a
partition sum take no derivative and run to cat.order, so they compare the
x^(order+1) slice as well; the other series are held there by identities at the
full catalog order.

Not certified: the coefficients of `pair_factor_gf` with x-degree above
`n_max_oracle`, its x^(order+1) slice included, which are checked only for
their support, since enumeration is their only other route.
"""

from __future__ import annotations

import functools
import time
from math import isqrt
from typing import Callable, Iterable, Iterator, NamedTuple

from . import counts, oracle, series
from .counts import SeriesCatalog
from .series import Monomial, MultiSeries

Discrepancy = tuple[tuple, object, object] | None
Stage = tuple[Discrepancy, int]  # the first discrepancy, the entries compared


class CheckReport(NamedTuple):
    """Outcome of one identity check."""

    name: str
    order: int
    passed: bool
    first_discrepancy: Discrepancy = None
    elapsed: float = 0.0
    compared: int = 0

    def to_json_dict(self) -> dict:
        out = {"name": self.name, "order": self.order, "passed": self.passed,
               "compared": self.compared, "elapsed_ms": round(self.elapsed * 1000, 3)}
        if self.first_discrepancy is not None:
            idx, lhs, rhs = self.first_discrepancy
            out["discrepancy"] = {"index": list(idx), "lhs": str(lhs), "rhs": str(rhs)}
        return out


def _first_mismatch(rows: Iterable[tuple[tuple, object, object]]) -> Stage:
    """The first (index, got, want) row with got != want, and the number of
    rows compared up to and including it."""
    compared = 0
    for compared, (index, got, want) in enumerate(rows, 1):
        if got != want:
            return (index, got, want), compared
    return None, compared


def _grid(s: MultiSeries, n: int, d_rows: int, lo: int, want: Iterable) -> Stage:
    """Slice n of a count grid, the letter_counts of s at d < d_rows, lo <= j <= n+1-lo,
    against the rows of want: one list equality, or the mismatch located in the slice."""
    got = series.letter_counts(s, n, range(d_rows), range(lo, n + 2 - lo), lo)
    if got == (want := list(map(list, want))):
        return None, sum(map(len, got))
    return _first_mismatch(((n, d, j), a, b) for d, (r, w) in enumerate(zip(got, want, strict=True))
                           for j, (a, b) in enumerate(zip(r, w, strict=True), lo))


def _same(a: MultiSeries, b: MultiSeries) -> Stage:
    """Series equality up to the common truncation order."""
    return series.first_difference(a, b), series.n_monomials(a, b)


def _support(s: MultiSeries, outside: Callable[[Monomial], bool]) -> Stage:
    """No stored monomial of s lies outside the support; the smallest one that
    does is reported against 0."""
    bad = series.select(s, outside)
    return series.first_difference(bad, series.zero(s.order)), series.n_monomials(s)


def _check(name: str, order: Callable[..., int] = lambda cat, *_, **__: cat.order - 1):
    """Make a generator of stages the check `name`, which reports at `order` of
    its arguments: run the stages until one finds a discrepancy, summing what
    they compared."""
    def decorate(stages: Callable[..., Iterator[Stage]]) -> Callable[..., CheckReport]:
        @functools.wraps(stages)
        def check(*args, **kwargs) -> CheckReport:
            start = time.perf_counter()
            disc, compared = None, 0
            for mismatch, count in stages(*args, **kwargs):
                compared += count
                if mismatch is not None:
                    disc = mismatch
                    break
            return CheckReport(name, order(*args, **kwargs), disc is None and compared > 0, disc,
                               time.perf_counter() - start, compared)
        return check
    return decorate


@_check("ballot_totals")
def check_ballot_totals(cat: SeriesCatalog) -> Iterator[Stage]:
    """Row sums of the exponential ballot series match the double-factorial product."""
    yield _first_mismatch(
        ((n,), sum(series.extract_egf(cat.ballot_gf, n, d)
                   for d in range(max(1, (n - 1) // 2 + 1))),
         counts.ballot_total(n))
        for n in range(cat.order))


@_check("m_equidistribution", order=lambda n_max: n_max)
def check_m_equidistribution(n_max: int) -> Iterator[Stage]:
    """Ballot permutations by descents and odd order permutations by the M
    statistic are equinumerous, by double enumeration."""
    for n in range(1, n_max + 1):
        lhs, rhs = oracle.oracle_ballot_desc(n), oracle.oracle_odd_order_M(n)
        yield _first_mismatch(((n,) + key, lhs[key], rhs[key])
                              for key in sorted(lhs.keys() | rhs.keys()))


@_check("first_letter_gf")
def check_first_letter_gf(cat: SeriesCatalog) -> Iterator[Stage]:
    """The closed form for the first-letter refinement: extraction equals the
    second-letter recursion, the defining PDE holds, the y-linear slice
    collapses to the plain Eulerian series, and that series equals the
    Eulerian recursion."""
    first = cat.first_letter_gf
    yield from (_grid(first, n, n, 1, counts._first_row(n)) for n in range(1, cat.order + 1))

    # y dA/dy - A = xy dA/dx - y^2 dA/dy + t xy A - xy A, exact one order
    # below the catalog order because d/dx consumes a slice
    t = series.monomial(cat.order, 1, e_t=1)
    y = series.monomial(cat.order, 1, e_y=1)
    xy = series.monomial(cat.order, 1, e_x=1, e_y=1)
    dy = series.d_dy(first)
    yield _same(y * dy - first,
                xy * series.d_dx(first) - y * y * dy + t * xy * first - xy * first)

    # the y-linear slice, with y dropped, is x times the full Eulerian EGF
    lin = series.select(first, lambda m: m[2] == 1)
    lin = series.map_exponents(lin, lambda m: (m[0], m[1], 0, m[3]))
    yield _same(lin, series.monomial(cat.order, 1, e_x=1) * cat.eulerian_egf)

    # the product above drops the top slice of the Eulerian EGF; the
    # Eulerian recursion reads every slice
    yield _first_mismatch(
        ((n, d), series.extract_egf(cat.eulerian_egf, n, d), counts._eulerian_row(n)[d])
        for n in range(cat.order + 1) for d in range(max(1, n)))


@_check("symmetrized_first_letter")
def check_symmetrized_first(cat: SeriesCatalog) -> Iterator[Stage]:
    """The symmetrized first-letter series: extraction matches the two-term
    Eulerian formula, and the low-descent odd part together with its
    t-reversal reconstructs the odd-x slice."""
    sym, low = cat.first_sym_gf, cat.first_sym_odd_gf
    yield from (_grid(sym, n, n + 1, 1, counts._u_row(n)) for n in range(1, cat.order + 1))
    yield _same(low + series.t_reverse(low), series.select(sym, lambda m: m[1] % 2))
    yield _support(low, lambda m: m[1] % 2 == 0 or 2 * m[0] > m[1] - 1)


@_check("factor_counts")
def check_factor_counts(cat: SeriesCatalog, n_max_oracle: int) -> Iterator[Stage]:
    """Permutations with a factor 1nj or jn1: closed form, block recursion and
    enumeration agree entrywise, enumeration for n <= min(order, n_max_oracle)."""
    factor = cat.factor_gf
    yield from (_grid(factor, n, n, 2, counts._e_rows(n)) for n in range(3, cat.order + 1))
    yield _support(factor, lambda m: not 2 <= m[2] <= m[1] - 1)
    for n in range(3, min(cat.order - 1, n_max_oracle) + 1):
        table, rows = oracle.oracle_E(n), counts._e_rows(n)
        yield _first_mismatch(((n, d, j), rows[d][j - 2], table[(d, j)])
                              for d in range(n) for j in range(2, n))


@_check("functional_equation")
def check_functional_equation(cat: SeriesCatalog) -> Iterator[Stage]:
    """The functional equation tying the ballot factor series to the plain
    factor series, plus the reversal product identity for the ballot EGF."""
    one = series.one(cat.order)
    t = series.monomial(cat.order, 1, e_t=1)
    bf = cat.ballot_factor_gf
    ballot_rev = series.t_reverse(cat.ballot_gf)
    yield _same(series.subst_x_times(ballot_rev, bf)
                + series.subst_x_times(cat.ballot_gf, series.t_reverse(bf)),
                (one + t) * cat.factor_gf)
    yield _same(cat.ballot_gf * ballot_rev, one + (one + t) * cat.eulerian_gf)


@_check("ballot_cyclic_factor")
def check_ballot_cyclic_factor(cat: SeriesCatalog, n_max_oracle: int) -> Iterator[Stage]:
    """The bridge between ballot and odd order counts around the largest
    letter: enumerated tables satisfy b(i,j) + b(j,i) = 2 p(i,j) at every pair
    1 <= i < j <= n-1 (the paper's identity is i = 1), the cyclic factor series
    matches its partition sum, and the combined series identity holds."""
    for n in range(3, n_max_oracle + 1):
        bt, pt = oracle.oracle_b_factor(n), oracle.oracle_p_cyclic(n)
        yield _first_mismatch(
            ((n, d, i, j), bt[(d, i, j)] + bt[(d, j, i)], 2 * pt[(d, i, j)])
            for d in range(n) for i in range(1, n - 1) for j in range(i + 1, n))
    yield from (_grid(cat.cyclic_factor_gf, n, n, 2, counts._p_rows(n))
                for n in range(3, cat.order + 1))
    one = series.one(cat.order)
    t = series.monomial(cat.order, 1, e_t=1)
    tx2y = series.monomial(cat.order, 1, e_t=1, e_x=2, e_y=1)
    odd = tx2y * (2 * series.select(cat.first_sym_gf, lambda m: m[1] % 2))
    yield _same((one + t) * cat.factor_gf,
                odd + series.subst_x_times(cat.eulerian_gf, (one + t) * odd))


@_check("neighbor_pair_gf")
def check_neighbor_pair_gf(cat: SeriesCatalog, n_max_oracle: int) -> Iterator[Stage]:
    """The two-neighbor series: pair-weight extraction matches twice the
    enumerated cyclic factor counts, the support respects i < j <= n-1, and
    the enumerated counts are Toeplitz (invariant under shifting both
    neighbors)."""
    pair = cat.pair_factor_gf
    yield _support(pair, lambda m: not 1 <= m[2] < m[3] <= m[1] - 1)
    for n in range(3, min(n_max_oracle, pair.order) + 1):
        table = oracle.oracle_p_cyclic(n)
        yield _first_mismatch(
            ((n, d, i, j), series.extract_quad(pair, n, d, i, j), 2 * table[(d, i, j)])
            for d in range((n - 1) // 2 + 1) for i in range(1, n - 1) for j in range(i + 1, n))
    for n in range(3, n_max_oracle + 1):
        table = oracle.oracle_p_cyclic(n)
        yield _first_mismatch(
            ((n, d, i, j), table[(d, i, j)], table[(d, i + 1, j + 1)])
            for d in range((n - 1) // 2 + 1) for i in range(1, n - 1) for j in range(1, n - 1)
            if i != j)


def mutate_catalog(cat: SeriesCatalog, name: str) -> SeriesCatalog:
    """Return a copy of the catalog with one coefficient of the named series
    bumped by 1 (test harness: any such corruption must fail some check)."""
    s: MultiSeries = getattr(cat, name)
    terms = s.terms
    if not terms:
        raise ValueError(f"series {name} has no terms to mutate")
    mono = min((m for m in terms if m[1] == 3), default=None) or min(terms)
    return cat._replace(**{name: s + series.monomial(s.order, 1, *mono)})


def run_all(order: int = 10, n_max_oracle: int = 9,
            mutation: str | None = None) -> list[CheckReport]:
    """Run the whole suite at one truncation order, sharing a single catalog.

    mutation names a catalog series to corrupt before checking (test use).
    """
    cat = counts.build_catalog(order + 1)
    if mutation:
        cat = mutate_catalog(cat, mutation)
    # each check is looked up at call time, so that a wrapper put on the
    # module is the one that runs
    return [
        check_ballot_totals(cat),
        check_m_equidistribution(n_max_oracle),
        check_first_letter_gf(cat),
        check_symmetrized_first(cat),
        check_factor_counts(cat, n_max_oracle),
        check_functional_equation(cat),
        check_ballot_cyclic_factor(cat, n_max_oracle),
        check_neighbor_pair_gf(cat, n_max_oracle),
    ]


def read_bfile(path) -> list[tuple[int, int, int, int]]:
    """The lines 'index value' of a b-file (blank lines and # comments skipped)
    as (k, n, d, value) in file order: index k >= 1 is A(n, d) of the Eulerian
    triangle read by rows.  A malformed line or an index below 1 raises ValueError."""
    entries = []
    with open(path, encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, 1):
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'index value', got {raw!r}")
            try:
                k, value = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if k < 1:
                raise ValueError(f"{path}:{lineno}: index must be >= 1")
            n = (isqrt(8 * k - 7) + 1) // 2
            entries.append((k, n, k - n * (n - 1) // 2 - 1, value))
    return entries


@_check("eulerian_oeis", order=lambda entries: max((n for _, n, _, _ in entries), default=0))
def check_oeis_eulerian(entries: list[tuple[int, int, int, int]]) -> Iterator[Stage]:
    """Compare every read_bfile line with the Eulerian recursion, in file order,
    building only the rows the file names.  The order is the deepest row, 0 for
    a file with no line, which compares nothing and does not pass."""
    yield _first_mismatch(((k, n, d), counts._eulerian_row(n)[d], value)
                          for k, n, d, value in entries)
