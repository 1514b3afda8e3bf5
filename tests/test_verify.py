import json
from collections import Counter
from pathlib import Path

import pytest

from ballotperm import cli, counts, oracle, series, verify
from ballotperm.verify import (CheckReport, check_ballot_totals,
                               check_m_equidistribution, check_oeis_eulerian,
                               read_bfile, run_all)

FIXTURE = Path(__file__).parent / "data" / "b008292.txt"
GOLDEN = Path(__file__).parent / "data" / "verify_reports.json"


def test_run_all_passes(tmp_path):
    reports = run_all(order=6, n_max_oracle=5)
    assert len(reports) == 8
    assert all(r.passed for r in reports)
    names = [r.name for r in reports]
    assert names == ["ballot_totals", "m_equidistribution", "first_letter_gf",
                     "symmetrized_first_letter", "factor_counts",
                     "functional_equation", "ballot_cyclic_factor",
                     "neighbor_pair_gf"]
    # reports serialize cleanly
    doc = json.dumps([r.to_json_dict() for r in reports])
    parsed = json.loads(doc)
    assert parsed[0]["passed"] is True and "elapsed_ms" in parsed[0]


def test_reports_deterministic():
    a = run_all(order=5, n_max_oracle=4)
    b = run_all(order=5, n_max_oracle=4)
    strip = lambda r: (r.name, r.order, r.passed, r.first_discrepancy)
    assert [strip(r) for r in a] == [strip(r) for r in b]


@pytest.mark.parametrize("name", counts.CATALOG_SERIES)
def test_every_mutation_is_caught(name):
    reports = run_all(order=6, n_max_oracle=5, mutation=name)
    failed = [r for r in reports if not r.passed]
    assert failed, f"corrupting {name} went unnoticed"
    assert all(r.first_discrepancy is not None for r in failed)


@pytest.mark.parametrize("name", counts.CATALOG_SERIES)
def test_mutation_bumps_one_monomial_by_one(name):
    # the smallest monomial of x-degree 3, or the smallest one, goes from c
    # to c + 1; nothing else of the catalog changes
    cat = counts.build_catalog(7)
    bad = verify.mutate_catalog(cat, name)
    s = getattr(cat, name)
    terms = s.terms
    mono = min((m for m in terms if m[1] == 3), default=None) or min(terms)
    assert series.first_difference(s, getattr(bad, name)) == (mono, terms[mono], terms[mono] + 1)
    assert getattr(bad, name) - s == series.monomial(7, 1, *mono)
    assert all(getattr(bad, other) is getattr(cat, other)
               for other in counts.SeriesCatalog._fields if other != name)


@pytest.mark.parametrize("order", [5, 6])
def test_every_top_slice_bump_fails_the_suite(order, monkeypatch):
    # the catalog is built one order above the reports; every monomial of its
    # top slice, bumped by 1 one at a time, must fail some check.  The pair
    # series is left out: above n_max_oracle, its top slice included, it is
    # checked only for its support, because enumeration is its only other
    # route; a polynomial route for the ballot side or for p(d, i, j) at every
    # i would close that
    cat = counts.build_catalog(order + 1)
    escaped, bumped = [], set()
    for name in ("eulerian_egf", "first_letter_gf", "first_sym_gf", "cyclic_factor_gf"):
        s = getattr(cat, name)
        for mono in sorted(m for m in s.terms if m[1] == cat.order):
            bad = cat._replace(**{name: s + series.monomial(s.order, 1, *mono)})
            monkeypatch.setattr(counts, "build_catalog", lambda *args, bad=bad: bad)
            if all(r.passed for r in run_all(order=order, n_max_oracle=5)):
                escaped.append((name, mono))
            bumped.add(name)
    assert len(bumped) == 4 and not escaped, escaped


def test_reports_match_golden(tmp_path, monkeypatch):
    # `verify` exit codes and reports, without elapsed_ms; `compared` is
    # pinned, so a stage dropped or counted twice fails; keys are the
    # arguments, b-file paths relative to the repository root
    monkeypatch.chdir(Path(__file__).parent.parent)
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == 24
    out = tmp_path / "reports.json"
    for args, want in golden.items():
        out.unlink(missing_ok=True)
        code = cli.main(["verify", *args.split(), "--out", str(out)])
        reports = json.loads(out.read_text())
        for r in reports:
            del r["elapsed_ms"]
        assert (code, reports) == (want["exit"], want["reports"]), args


def test_mutated_ballot_series_fails_totals():
    cat = counts.build_catalog(7)
    bad = verify.mutate_catalog(cat, "ballot_gf")
    report = check_ballot_totals(bad)
    assert not report.passed
    assert report.first_discrepancy[0] == (3,)
    assert report.compared == 4  # rows n = 0..3, the last one discrepant


def _monomial(e_t, e_x, e_y, e_z=0):
    return series.monomial(7, 1, e_t=e_t, e_x=e_x, e_y=e_y, e_z=e_z)


# a term outside the support that no earlier stage of the check reads; for the
# low-descent series its t-reversal is taken out again, so that the
# reconstruction identity before the support stage still holds
@pytest.mark.parametrize("name,check,extra,mono", [
    ("factor_gf", verify.check_factor_counts, _monomial(0, 4, 4), (0, 4, 4, 0)),
    ("pair_factor_gf", verify.check_neighbor_pair_gf, _monomial(0, 4, 2, 1), (0, 4, 2, 1)),
    ("first_sym_odd_gf", verify.check_symmetrized_first,
     _monomial(0, 4, 1) - _monomial(4, 4, 1), (0, 4, 1, 0)),
])
def test_support_violation_is_reported(name, check, extra, mono):
    cat = counts.build_catalog(7)
    bad = cat._replace(**{name: getattr(cat, name) + extra})
    # the two checks that also read brute force take its depth, here 6
    report = check(bad) if check is verify.check_symmetrized_first else check(bad, 6)
    assert not report.passed
    assert report.first_discrepancy == (mono, 1, 0)


def test_toeplitz_break_is_reported(monkeypatch):
    # a bumped brute-force count at n = 6, beyond the series order that the
    # extraction stage reaches, is seen only by the Toeplitz stage
    real = oracle.oracle_p_cyclic

    def bumped(n):
        table = real(n)
        if n != 6:
            return table
        copy = Counter(table)
        copy[(0, 2, 4)] += 1
        return copy

    monkeypatch.setattr(oracle, "oracle_p_cyclic", bumped)
    table = real(6)
    cat = counts.build_catalog(4)
    report = verify.check_neighbor_pair_gf(cat, 6)
    assert report.first_discrepancy == ((6, 0, 1, 3), table[(0, 1, 3)],
                                        table[(0, 2, 4)] + 1)
    assert verify.check_neighbor_pair_gf(cat, 5).passed


def test_bridge_break_off_the_first_letter_is_reported(monkeypatch):
    # a bumped ballot count with left neighbour 2 of n: the paper's bridge at
    # i = 1 still holds, the bridge at the pair (2, 3) does not
    real = oracle.oracle_b_factor

    def bumped(n):
        table = real(n)
        if n != 5:
            return table
        copy = Counter(table)
        copy[(1, 2, 3)] += 1
        return copy

    monkeypatch.setattr(oracle, "oracle_b_factor", bumped)
    bt, pt, bad = real(5), oracle.oracle_p_cyclic(5), bumped(5)
    assert all(bad[(d, 1, j)] == bt[(d, 1, j)] for d in range(5) for j in range(2, 5))
    report = verify.check_ballot_cyclic_factor(counts.build_catalog(4), 5)
    assert not report.passed
    assert report.first_discrepancy == ((5, 1, 2, 3), bt[(1, 2, 3)] + bt[(1, 3, 2)] + 1,
                                        2 * pt[(1, 2, 3)])
    assert verify.check_ballot_cyclic_factor(counts.build_catalog(4), 4).passed


# every brute-force table that `verify` reads
ORACLE_TABLES = ("oracle_ballot_desc", "oracle_odd_order_M", "oracle_E", "oracle_b_factor",
                 "oracle_p_cyclic")


def test_every_oracle_bump_fails_the_suite(monkeypatch):
    # every stored count of every table above, at each n <= 5, bumped by 1
    # one at a time, must fail run_all(6, 5) and run_all(3, 5), where the
    # order is below the oracle's reach; a raise counts as caught
    escaped, bumped = [], Counter()
    for name in ORACLE_TABLES:
        real = getattr(oracle, name)
        for n in range(6):
            for key in sorted(real(n)):
                def bad(m, n=n, key=key, real=real):
                    table = real(m)
                    if m != n:
                        return table
                    copy = Counter(table)
                    copy[key] += 1
                    return copy

                monkeypatch.setattr(oracle, name, bad)
                for order in (6, 3):
                    try:
                        caught = not all(r.passed for r in run_all(order, 5))
                    except Exception:
                        caught = True
                    if not caught:
                        escaped.append((order, name, n, key))
                bumped[name] += 1
        monkeypatch.setattr(oracle, name, real)
    assert set(bumped) == set(ORACLE_TABLES) and bumped.total() == 94, bumped
    assert not escaped, escaped


def test_a_failing_stage_skips_the_later_stages(monkeypatch):
    def unreachable(n):
        raise AssertionError("the brute-force stage ran after a failed stage")

    monkeypatch.setattr(oracle, "oracle_E", unreachable)
    bad = verify.mutate_catalog(counts.build_catalog(7), "factor_gf")
    report = verify.check_factor_counts(bad, 6)
    assert not report.passed and report.first_discrepancy[0][0] == 3


def test_recursion_mutation_is_caught():
    # the first-letter grid reads whole triangle rows; bump A(4, 1, 2) in the
    # row it reads
    counts.clear_caches()
    real = counts._first_row

    def warped(n):
        rows = [list(row) for row in real(n)]
        if n == 4:
            rows[1][1] += 1
        return rows

    # patch by hand: everything memoized downstream must be dropped afterwards
    try:
        counts._first_row = warped
        report = verify.check_first_letter_gf(counts.build_catalog(6))
        assert not report.passed
        assert report.first_discrepancy[0] == (4, 1, 2)
    finally:
        counts._first_row = real
        counts.clear_caches()


def test_check_report_passed_iff_no_discrepancy():
    r = CheckReport("x", 3, True, compared=5)
    d = r.to_json_dict()
    assert d == {"name": "x", "order": 3, "passed": True, "compared": 5,
                 "elapsed_ms": 0.0}
    assert list(d) == ["name", "order", "passed", "compared", "elapsed_ms"]
    r = CheckReport("x", 3, False, ((1, 2), 3, 4), 0.5)
    d = r.to_json_dict()
    assert d["discrepancy"] == {"index": [1, 2], "lhs": "3", "rhs": "4"}


def test_m_equidistribution_small():
    assert check_m_equidistribution(4).passed


def test_checks_take_their_arguments_by_name():
    untimed = lambda r: r._replace(elapsed=0.0)
    assert untimed(check_m_equidistribution(n_max=4)) == untimed(check_m_equidistribution(4))
    cat = counts.build_catalog(6)
    assert (untimed(verify.check_factor_counts(cat=cat, n_max_oracle=4))
            == untimed(verify.check_factor_counts(cat, 4)))


def test_ballot_totals_order_zero():
    # the empty permutation alone; the empty double-factorial products are 1
    assert check_ballot_totals(counts.build_catalog(1)).passed


@pytest.mark.parametrize("order", [0, 1, 4, 9])
def test_ballot_totals_compares_one_row_per_length(order):
    report = check_ballot_totals(counts.build_catalog(order + 1))
    assert report.passed and report.compared == order + 1


def test_oeis_fixture_matches():
    report = check_oeis_eulerian(read_bfile(FIXTURE))
    assert report.passed
    assert (report.compared, report.order) == (78, 12)


def test_oeis_empty_file_matches(tmp_path):
    # nothing to compare is no evidence: the report must not pass
    path = tmp_path / "empty.txt"
    path.write_text("")
    report = check_oeis_eulerian(read_bfile(path))
    assert not report.passed
    assert report.compared == 0 and report.first_discrepancy is None
    assert report.order == 0


@pytest.mark.parametrize("rows,compared", [(1, 1), (4, 10), (12, 78), (13, 78)])
def test_oeis_compares_every_line_inside_the_triangle(tmp_path, rows, compared):
    # the fixture holds the first 78 entries, rows n = 1..12: the lines of its
    # first `rows` rows are all compared, and the deepest of them is the order
    path = tmp_path / "rows.txt"
    lines = FIXTURE.read_text().splitlines()
    path.write_text("".join(f"{line}\n" for line in lines if int(line.split()[0]) <=
                            rows * (rows + 1) // 2))
    report = check_oeis_eulerian(read_bfile(path))
    assert report.passed and report.compared == compared
    assert report.order == min(rows, 12)


def test_oeis_builds_only_the_rows_the_file_reaches(tmp_path):
    # the fixture names rows 1..12
    counts.clear_caches()
    report = check_oeis_eulerian(read_bfile(FIXTURE))
    assert report.passed and report.compared == 78
    assert len(counts._EULERIAN_ROWS) == 12
    # one line in row 40 builds row 40 alone
    path = tmp_path / "deep.txt"
    path.write_text(f"{40 * 39 // 2 + 3} {counts.eulerian(40, 2)}\n")
    counts.clear_caches()
    report = check_oeis_eulerian(read_bfile(path))
    assert report.passed and (report.compared, report.order) == (1, 40)
    assert len(counts._EULERIAN_ROWS) == 1


def test_read_bfile_maps_each_index_to_its_row_and_entry(tmp_path):
    # index k is entry d of row n in the triangle read by rows, through row 199
    want = [(k, n, d, k % 7) for k, (n, d) in
            enumerate(((n, d) for n in range(1, 200) for d in range(n)), 1)]
    path = tmp_path / "index.txt"
    path.write_text("# comment\n\n" + "".join(f"  {k} {v}\n" for k, _, _, v in want))
    assert read_bfile(path) == want
    # the map is closed form, so an index of 4001 digits is read at once
    path.write_text(f"{10 ** 4000} 1\n")
    [(k, n, d, _)] = read_bfile(path)
    assert n * (n - 1) // 2 < k <= n * (n + 1) // 2 and d == k - n * (n - 1) // 2 - 1


def test_every_bumped_fixture_line_fails(tmp_path):
    # a value bumped by 1 on any one line of the fixture fails at that line
    lines = FIXTURE.read_text().splitlines()
    data = [i for i, line in enumerate(lines) if line.strip() and not line.startswith("#")]
    assert len(data) == 78
    position = dict(enumerate(((n, d) for n in range(1, 13) for d in range(n)), 1))
    path = tmp_path / "bumped.txt"
    for i in data:
        k, value = map(int, lines[i].split())
        path.write_text("\n".join(lines[:i] + [f"{k} {value + 1}"] + lines[i + 1:]) + "\n")
        report = check_oeis_eulerian(read_bfile(path))
        assert not report.passed, k
        assert report.first_discrepancy == ((k, *position[k]), value, value + 1), k


def test_oeis_detects_alteration(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 1\n2 1\n3 1\n4 1\n5 5\n")
    report = check_oeis_eulerian(read_bfile(path))
    assert not report.passed
    assert report.first_discrepancy == ((5, 3, 1), 4, 5)


def test_oeis_parse_failure(tmp_path):
    path = tmp_path / "garbled.txt"
    path.write_text("1 1\nnot numbers\n")
    with pytest.raises(ValueError):
        read_bfile(path)
    path.write_text("1 one\n")
    with pytest.raises(ValueError):
        read_bfile(path)
    # an index below 1 names no triangle entry: it is an error, not a skip
    for text, lineno in (("0 1\n", 1), ("1 1\n-5 3\n", 2)):
        path.write_text(text)
        with pytest.raises(ValueError, match=f":{lineno}: index must be >= 1"):
            read_bfile(path)
