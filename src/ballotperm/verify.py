"""The certification suite: every counting identity checked along independent
routes, coefficient by coefficient, in exact rational arithmetic.

Each check returns a CheckReport; on failure it carries the lexicographically
smallest discrepant index with both values.  All comparisons are exact
equality, never tolerances.  Checks build the series catalog one order above
their reporting order so that identities involving formal derivatives are
exact at the reported order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction

from . import counts, oracle, series
from .counts import SeriesCatalog
from .series import MultiSeries

Discrepancy = tuple[tuple, object, object] | None


@dataclass
class CheckReport:
    """Outcome of one identity check."""

    name: str
    order: int
    passed: bool
    first_discrepancy: Discrepancy = None
    elapsed: float = 0.0

    def to_json_dict(self) -> dict:
        out = {"name": self.name, "order": self.order, "passed": self.passed,
               "elapsed_ms": round(self.elapsed * 1000, 3)}
        if self.first_discrepancy is not None:
            idx, lhs, rhs = self.first_discrepancy
            out["discrepancy"] = {"index": list(idx), "lhs": str(lhs), "rhs": str(rhs)}
        return out


def _catalog(order: int, catalog: SeriesCatalog | None) -> SeriesCatalog:
    return catalog if catalog is not None else counts.build_catalog(order + 1)


def check_ballot_totals(order: int = 14, catalog: SeriesCatalog | None = None) -> CheckReport:
    """Row sums of the exponential ballot series match the double-factorial product."""
    start = time.perf_counter()
    b = catalog.ballot_gf if catalog is not None else counts.ballot_series(order)
    disc: Discrepancy = None
    for n in range(order + 1):
        got = sum(series.extract_egf(b, n, d) for d in range(max(1, (n - 1) // 2 + 1)))
        want = counts.ballot_total(n)
        if got != want:
            disc = ((n,), got, want)
            break
    return CheckReport("ballot_totals", order, disc is None, disc,
                       time.perf_counter() - start)


def check_m_equidistribution(n_max: int = 8, force: bool = False) -> CheckReport:
    """Ballot permutations by descents and odd order permutations by the M
    statistic are equinumerous, by double enumeration."""
    start = time.perf_counter()
    disc: Discrepancy = None
    for n in range(1, n_max + 1):
        lhs = oracle.oracle_ballot_desc(n, force=force)
        rhs = oracle.oracle_odd_order_M(n, force=force)
        for key in sorted(set(lhs.entries) | set(rhs.entries)):
            if lhs[key] != rhs[key]:
                disc = ((n,) + key, lhs[key], rhs[key])
                break
        if disc:
            break
    return CheckReport("m_equidistribution", n_max, disc is None, disc,
                       time.perf_counter() - start)


def check_first_letter_gf(order: int = 10, catalog: SeriesCatalog | None = None) -> CheckReport:
    """The closed form for the first-letter refinement: extraction equals the
    second-letter recursion, the defining PDE holds, and the y-linear slice
    collapses to the plain Eulerian series."""
    start = time.perf_counter()
    cat = _catalog(order, catalog)
    first = cat.first_letter_gf
    disc: Discrepancy = None

    for n in range(1, order + 1):
        for d in range(n):
            for j in range(1, n + 1):
                got = series.extract_first(first, n, d, j)
                want = counts.eulerian_first(n, d, j)
                if got != want:
                    disc = ((n, d, j), got, want)
                    break
            if disc:
                break
        if disc:
            break

    if disc is None:
        # y dA/dy - A = xy dA/dx - y^2 dA/dy + t xy A - xy A, exact one order
        # below the catalog order because d/dx consumes a slice
        t = series.monomial(cat.order, 1, e_t=1)
        y = series.monomial(cat.order, 1, e_y=1)
        xy = series.monomial(cat.order, 1, e_x=1, e_y=1)
        dy = series.d_dy(first)
        lhs = y * dy - first
        rhs = xy * series.d_dx(first) - y * y * dy + t * xy * first - xy * first
        disc = series.first_difference(lhs, rhs)

    if disc is None:
        # the y-linear slice, with y dropped, is x times the full Eulerian EGF
        lin = series.select(first, lambda m: m[2] == 1)
        lin = series.map_exponents(lin, lambda m: (m[0], m[1], 0, m[3]))
        x = series.monomial(cat.order, 1, e_x=1)
        disc = series.first_difference(lin, x * cat.eulerian_egf)

    return CheckReport("first_letter_gf", order, disc is None, disc,
                       time.perf_counter() - start)


def check_symmetrized_first(order: int = 10, catalog: SeriesCatalog | None = None) -> CheckReport:
    """The symmetrized first-letter series: extraction matches the two-term
    Eulerian formula, and the low-descent odd part together with its
    t-reversal reconstructs the odd-x slice."""
    start = time.perf_counter()
    cat = _catalog(order, catalog)
    sym, low = cat.first_sym_gf, cat.first_sym_odd_gf
    disc: Discrepancy = None

    for n in range(1, order + 1):
        for d in range(n + 1):
            for j in range(1, n + 1):
                got = series.extract_first(sym, n, d, j)
                want = counts.u_count(n, d, j)
                if got != want:
                    disc = ((n, d, j), got, want)
                    break
            if disc:
                break
        if disc:
            break

    if disc is None:
        odd_part = (sym - series.negate_x(sym)) * Fraction(1, 2)
        disc = series.first_difference(low + series.t_reverse(low), odd_part)

    if disc is None:
        bad = series.select(low, lambda m: m[1] % 2 == 0 or 2 * m[0] > m[1] - 1)
        if bad.terms:
            mono = min(bad.terms)
            disc = (mono, bad.terms[mono], 0)

    return CheckReport("symmetrized_first_letter", order, disc is None, disc,
                       time.perf_counter() - start)


def check_factor_counts(order: int = 8, n_max_oracle: int | None = None,
                        catalog: SeriesCatalog | None = None,
                        force: bool = False) -> CheckReport:
    """Permutations with a factor 1nj or jn1: closed form, block recursion and
    brute force agree entrywise."""
    start = time.perf_counter()
    cat = _catalog(order, catalog)
    factor = cat.factor_gf
    if n_max_oracle is None:
        n_max_oracle = min(order, 8)
    disc: Discrepancy = None

    for n in range(3, order + 1):
        for d in range(n):
            for j in range(2, n):
                got = series.extract_factor(factor, n, d, j)
                want = counts.e_count_rec(n, d, j)
                if got != want:
                    disc = ((n, d, j), got, want)
                    break
            if disc:
                break
        if disc:
            break

    if disc is None:
        bad = series.select(factor, lambda m: not 2 <= m[2] <= m[1] - 1)
        if bad.terms:
            mono = min(bad.terms)
            disc = (mono, bad.terms[mono], 0)

    if disc is None:
        for n in range(3, n_max_oracle + 1):
            table = oracle.oracle_E(n, force=force)
            for d in range(n):
                for j in range(2, n):
                    got = counts.e_count_rec(n, d, j)
                    want = table[(d, j)]
                    if got != want:
                        disc = ((n, d, j), got, want)
                        break
                if disc:
                    break
            if disc:
                break

    return CheckReport("factor_counts", order, disc is None, disc,
                       time.perf_counter() - start)


def check_functional_equation(order: int = 10, catalog: SeriesCatalog | None = None) -> CheckReport:
    """The functional equation tying the ballot factor series to the plain
    factor series, plus the reversal product identity for the ballot EGF."""
    start = time.perf_counter()
    cat = _catalog(order, catalog)
    one = series.one(cat.order)
    t = series.monomial(cat.order, 1, e_t=1)
    y = series.monomial(cat.order, 1, e_y=1)
    one_plus_y = one + y

    bf = cat.ballot_factor_gf
    ballot_rev = series.t_reverse(cat.ballot_gf)
    lhs = (bf * series.subst_x_times(ballot_rev, one_plus_y)
           + series.t_reverse(bf) * series.subst_x_times(cat.ballot_gf, one_plus_y))
    rhs = (one + t) * cat.factor_gf
    disc = series.first_difference(lhs, rhs)

    if disc is None:
        prod = cat.ballot_gf * ballot_rev
        disc = series.first_difference(prod, one + (one + t) * cat.eulerian_gf)

    return CheckReport("functional_equation", order, disc is None, disc,
                       time.perf_counter() - start)


def check_ballot_cyclic_factor(order: int = 10, n_max_oracle: int = 7,
                               catalog: SeriesCatalog | None = None,
                               force: bool = False) -> CheckReport:
    """The bridge between ballot and odd order counts around the largest
    letter: brute-force tables satisfy b(1,j) + b(j,1) = 2 p(1,j), the cyclic
    factor series matches its partition sum, and the combined series identity
    holds."""
    start = time.perf_counter()
    cat = _catalog(order, catalog)
    disc: Discrepancy = None

    for n in range(3, n_max_oracle + 1):
        bt = oracle.oracle_b_factor(n, force=force)
        pt = oracle.oracle_p_cyclic(n, force=force)
        for d in range(n):
            for j in range(2, n):
                got = bt[(d, 1, j)] + bt[(d, j, 1)]
                want = 2 * pt[(d, 1, j)]
                if got != want:
                    disc = ((n, d, j), got, want)
                    break
            if disc:
                break
        if disc:
            break

    if disc is None:
        for n in range(3, order + 1):
            for d in range(n):
                for j in range(2, n):
                    got = series.extract_factor(cat.cyclic_factor_gf, n, d, j)
                    want = counts.p_count_partition(n, d, j)
                    if got != want:
                        disc = ((n, d, j), got, want)
                        break
                if disc:
                    break
            if disc:
                break

    if disc is None:
        one = series.one(cat.order)
        t = series.monomial(cat.order, 1, e_t=1)
        x2y = series.monomial(cat.order, 1, e_x=2, e_y=1)
        one_plus_y = one + series.monomial(cat.order, 1, e_y=1)
        sym = cat.first_sym_gf
        lhs = (one + t) * cat.factor_gf
        rhs = (t * x2y
               * (one + (one + t) * series.subst_x_times(cat.eulerian_gf, one_plus_y))
               * (sym - series.negate_x(sym)))
        disc = series.first_difference(lhs, rhs)

    return CheckReport("ballot_cyclic_factor", order, disc is None, disc,
                       time.perf_counter() - start)


def check_neighbor_pair_gf(order: int = 10, n_max_oracle: int = 7,
                           catalog: SeriesCatalog | None = None,
                           force: bool = False) -> CheckReport:
    """The two-neighbor series: pair-weight extraction matches twice the
    brute-force cyclic factor counts, the support respects i < j <= n-1, and
    the brute-force counts are Toeplitz (invariant under shifting both
    neighbors)."""
    start = time.perf_counter()
    cat = _catalog(order, catalog)
    pair = cat.pair_factor_gf
    disc: Discrepancy = None

    bad = series.select(pair, lambda m: not 1 <= m[2] < m[3] <= m[1] - 1)
    if bad.terms:
        mono = min(bad.terms)
        disc = (mono, bad.terms[mono], 0)

    if disc is None:
        for n in range(3, min(n_max_oracle, pair.order) + 1):
            table = oracle.oracle_p_cyclic(n, force=force)
            for d in range((n - 1) // 2 + 1):
                for i in range(1, n - 1):
                    for j in range(i + 1, n):
                        got = series.extract_quad(pair, n, d, i, j)
                        want = 2 * table[(d, i, j)]
                        if got != want:
                            disc = ((n, d, i, j), got, want)
                            break
                    if disc:
                        break
                if disc:
                    break
            if disc:
                break

    if disc is None:
        for n in range(3, n_max_oracle + 1):
            table = oracle.oracle_p_cyclic(n, force=force)
            for d in range((n - 1) // 2 + 1):
                for i in range(1, n - 1):
                    for j in range(1, n - 1):
                        if i == j:
                            continue
                        if table[(d, i, j)] != table[(d, i + 1, j + 1)]:
                            disc = ((n, d, i, j), table[(d, i, j)],
                                    table[(d, i + 1, j + 1)])
                            break
                    if disc:
                        break
                if disc:
                    break
            if disc:
                break

    return CheckReport("neighbor_pair_gf", order, disc is None, disc,
                       time.perf_counter() - start)


def mutate_catalog(cat: SeriesCatalog, name: str) -> SeriesCatalog:
    """Return a copy of the catalog with one coefficient of the named series
    bumped by 1 (test harness: any such corruption must fail some check)."""
    s: MultiSeries = getattr(cat, name)
    if not s.terms:
        raise ValueError(f"series {name} has no terms to mutate")
    candidates = [m for m in s.terms if m[1] == 3] or list(s.terms)
    mono = min(candidates)
    terms = dict(s.terms)
    terms[mono] = terms[mono] + 1
    return replace(cat, **{name: MultiSeries(s.order, terms)})


def run_all(order: int = 10, n_max_oracle: int = 9, mutation: str | None = None,
            force: bool = False) -> list[CheckReport]:
    """Run the whole suite at one truncation order, sharing a single catalog.

    mutation names a catalog series to corrupt before checking (test use).
    """
    cat = counts.build_catalog(order + 1)
    if mutation:
        cat = mutate_catalog(cat, mutation)
    return [
        check_ballot_totals(order, catalog=cat),
        check_m_equidistribution(n_max_oracle, force=force),
        check_first_letter_gf(order, catalog=cat),
        check_symmetrized_first(order, catalog=cat),
        check_factor_counts(order, n_max_oracle=min(order, n_max_oracle),
                            catalog=cat, force=force),
        check_functional_equation(order, catalog=cat),
        check_ballot_cyclic_factor(order, n_max_oracle=n_max_oracle,
                                   catalog=cat, force=force),
        check_neighbor_pair_gf(order, n_max_oracle=n_max_oracle,
                               catalog=cat, force=force),
    ]


def check_oeis_eulerian(path, n_max: int = 10) -> CheckReport:
    """Compare the Eulerian triangle, read by rows, against a b-file prefix.

    The file holds lines 'index value' (1-based, blank lines and # comments
    allowed); every line whose index falls inside the computed triangle must
    match.  An empty file matches trivially.  Malformed lines raise ValueError.
    """
    start = time.perf_counter()
    entries: list[tuple[int, int]] = []
    with open(path, encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'index value', got {raw!r}")
            try:
                entries.append((int(parts[0]), int(parts[1])))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None

    triangle = [((n, d), counts.eulerian(n, d))
                for n in range(1, n_max + 1) for d in range(n)]
    disc: Discrepancy = None
    for k, value in entries:
        if not 1 <= k <= len(triangle):
            continue
        (n, d), ours = triangle[k - 1]
        if ours != value:
            disc = ((k, n, d), ours, value)
            break
    return CheckReport("eulerian_oeis", n_max, disc is None, disc,
                       time.perf_counter() - start)
