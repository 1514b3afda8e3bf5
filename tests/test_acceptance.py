"""Acceptance suite: one test per certification target, each printing a
pass/fail line.  Every comparison is exact integer/rational equality; the
only numeric bounds are the runtime ceilings."""

import random
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

from ballotperm import counts, oracle, series, verify
from ballotperm.series import MultiSeries

FIXTURE = Path(__file__).parent / "data" / "b008292.txt"


def _certify(num, desc, ok):
    print(f"criterion {num:02d} [{desc}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} ({desc}) failed"


def _within(budget, elapsed):
    assert elapsed < budget, f"runtime {elapsed:.1f}s exceeded the {budget}s budget"


def test_criterion_01_ballot_totals_to_14():
    start = time.perf_counter()
    ok = all(sum(counts.ballot_desc_row(n)) == counts.ballot_total(n) for n in range(15))
    ok = ok and verify.check_ballot_totals(counts.build_catalog(15)).passed
    elapsed = time.perf_counter() - start
    _certify(1, "ballot totals equal double factorials, n <= 14", ok)
    _within(5, elapsed)


def test_criterion_02_m_equidistribution_to_8():
    start = time.perf_counter()
    report = verify.check_m_equidistribution(8)
    elapsed = time.perf_counter() - start
    _certify(2, "ballot-by-descents = odd-order-by-M, n <= 8", report.passed)
    _within(30, elapsed)


def test_criterion_03_first_letter_three_way_and_pde():
    start = time.perf_counter()
    cat = counts.build_catalog(11)
    report = verify.check_first_letter_gf(cat)  # extraction vs recursion + PDE
    ok = report.passed
    for n in range(1, 9):
        t = oracle.oracle_eulerian_first(n)
        brute = [[t[(d, j)] for j in range(1, n + 1)] for d in range(n)]
        ok = ok and (counts.first_row(n) == brute == series.letter_counts(
            cat.first_letter_gf, n, range(n), range(1, n + 1), 1))
    elapsed = time.perf_counter() - start
    _certify(3, "first-letter counts: series = recursion = brute force + PDE", ok)
    _within(30, elapsed)


def test_criterion_04_symmetrized_first_letter_to_10():
    cat = counts.build_catalog(11)
    report = verify.check_symmetrized_first(cat)
    ok = report.passed
    for n in range(1, 11):
        ok = ok and (series.letter_counts(cat.first_sym_gf, n, range(n + 1), range(1, n + 1), 1)
                     == counts.u_row(n))
    _certify(4, "symmetrized first-letter series and its odd low half", ok)


def test_criterion_05_factor_counts_three_way_to_8():
    start = time.perf_counter()
    report = verify.check_factor_counts(counts.build_catalog(9), 8)
    elapsed = time.perf_counter() - start
    _certify(5, "factor counts: oracle = recursion = closed form, n <= 8",
             report.passed)
    _within(60, elapsed)


def test_criterion_06_functional_equation_order_10():
    report = verify.check_functional_equation(counts.build_catalog(11))
    _certify(6, "functional equation and reversal product at order 10",
             report.passed)


def test_criterion_07_partition_sum_three_way_to_7():
    cat = counts.build_catalog(8)
    ok = True
    for n in range(3, 8):
        t = oracle.oracle_p_cyclic(n)
        brute = [[t[(d, 1, j)] for j in range(2, n)] for d in range(n)]
        ok = ok and (list(map(list, counts.p_rows(n))) == brute == series.letter_counts(
            cat.cyclic_factor_gf, n, range(n), range(2, n), 2))
    _certify(7, "cyclic factor counts: partition sum = series = oracle, n <= 7", ok)


def test_criterion_08_factor_bridge_oracle_and_series():
    report = verify.check_ballot_cyclic_factor(counts.build_catalog(11), 7)
    _certify(8, "b(1,j) + b(j,1) = 2 p(1,j), n <= 7, and the series identity",
             report.passed)


def test_criterion_09_pair_series_and_toeplitz_to_7():
    report = verify.check_neighbor_pair_gf(counts.build_catalog(11), 7)
    _certify(9, "pair series matches 2 p(i,j) and the Toeplitz shifts, n <= 7",
             report.passed)


def test_criterion_10_oeis_prefix_and_ring_laws():
    report = verify.check_oeis_eulerian(verify.read_bfile(FIXTURE))
    ok = report.passed and (report.compared, report.order) == (78, 12)

    rng = random.Random(20260809)
    order = 4

    def rand_series(min_x=0):
        terms = {}
        for _ in range(rng.randint(0, 4)):
            m = (rng.randint(0, 2), rng.randint(min_x, order),
                 rng.randint(0, 2), rng.randint(0, 2))
            terms[m] = Fraction(rng.randint(-4, 4), factorial(m[1]))  # n! * coeff is an int
        return MultiSeries(order, terms)

    one = series.one(order)
    tm1 = series.monomial(order, 1, e_t=1) - one
    for _ in range(1000):
        a, b, c = rand_series(), rand_series(), rand_series()
        ok = ok and (a + b) + c == a + (b + c)
        ok = ok and a * b == b * a
        ok = ok and (a * b) * c == a * (b * c)
        ok = ok and a * (b + c) == a * b + a * c
        g = rand_series(min_x=1)
        ok = ok and series.geom(g) * (one - g) == one
        w = rand_series(min_x=1)
        ok = ok and tm1 * series.q_of(w) + one == series.exp_tm1(w)
    _certify(10, "every line of the OEIS fixture, rows 1-12, and 1000 randomized ring laws",
             ok)
