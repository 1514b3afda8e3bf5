import ast
import hashlib
import json
import subprocess
import sys
from collections import Counter
from itertools import permutations
from math import factorial
from operator import gt, lt
from pathlib import Path

import pytest

from ballotperm import counts, oracle
from ballotperm.counts import ballot_total
from ballotperm.oracle import (oracle_E, oracle_b_factor, oracle_ballot_desc,
                               oracle_eulerian_first, oracle_l, oracle_odd_order_M,
                               oracle_p_cyclic)
from ballotperm.permstat import (cycle_decompose, descents, has_cyclic_factor_inj,
                                 has_factor_inj, is_ballot, is_odd_order,
                                 m_statistic)

GOLDEN = Path(__file__).parent / "data" / "oracle_sha256.json"

# every table serves each 0 <= n <= ENUMERATION_CAP, but l only odd n
TABLES = {"A_first": oracle_eulerian_first, "b": oracle_ballot_desc, "M": oracle_odd_order_M,
          "E": oracle_E, "b_factor": oracle_b_factor, "p": oracle_p_cyclic, "l": oracle_l}


def _accepted(stat: str, n: int) -> bool:
    return stat != "l" or n % 2 == 1


def _naive_tables(n: int) -> dict[str, dict]:
    """Every table by filtering S_n through the permstat predicates, one word
    at a time: the factor predicates are asked about the two neighbours of n
    in the word, and in its cycle, which cycle_decompose lists last, from n."""
    out = {stat: {} for stat in TABLES}

    def bump(stat, key):
        out[stat][key] = out[stat].get(key, 0) + 1

    for w in permutations(range(1, n + 1)):
        d, ballot = descents(w), is_ballot(w)
        if n:
            bump("A_first", (d, w[0]))
        if ballot:
            bump("b", (d,))
        k = w.index(n) if n else 0
        if 0 < k < n - 1 and has_factor_inj(w, w[k - 1], w[k + 1]):
            i, j = w[k - 1], w[k + 1]
            if 1 in (i, j):
                bump("E", (d, i + j - 1))
            if ballot:
                bump("b_factor", (d, i, j))
        if is_odd_order(w):
            m = m_statistic(w)
            bump("M", (m,))
            cycles = cycle_decompose(w)
            if len(cycles) == 1:
                bump("l", (m,))
            cycle = cycles[-1] if n else ()
            if len(cycle) >= 3 and has_cyclic_factor_inj(w, cycle[-1], cycle[1]):
                bump("p", (m, cycle[-1], cycle[1]))
    return out


def _streaming_word_tables(n: int) -> dict[str, dict]:
    """The word tables by streaming S_n itself and reading, per word, its
    descents, its lowest running height, its first letter and the two
    neighbours of n (found by `w.index(n)`)."""
    first, ballot, e, factor = {}, {}, {}, {}
    for w in permutations(range(1, n + 1)):
        d = h = low = 0
        prev = w[0]
        for x in w:
            if x < prev:
                d += 1
                h -= 1
                if h < low:
                    low = h
            elif x > prev:
                h += 1
            prev = x
        key = (d, w[0])
        first[key] = first.get(key, 0) + 1
        if low == 0:
            ballot[d,] = ballot.get((d,), 0) + 1
        k = w.index(n)
        if 0 < k < n - 1:
            a, b = w[k - 1], w[k + 1]
            if a == 1 or b == 1:
                key = (d, a + b - 1)
                e[key] = e.get(key, 0) + 1
            if low == 0:
                key = (d, a, b)
                factor[key] = factor.get(key, 0) + 1
    return {"A_first": first, "b": ballot, "E": e, "b_factor": factor}


def _dfs_odd_cycle_tables(n: int) -> dict[str, dict]:
    """The cycle tables by one DFS over the odd order permutations of [n]
    themselves, each cycle opened at the smallest unused letter and closed
    only at odd length.  On closing, the wrap pair (last, start) is added to
    the cycle's descents `d`, so its M part is min(cyclic descents, cyclic
    ascents).  n never opens a cycle longer than 1, so once placed its
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
    return {"M": m_counts, "p": p_counts, "l": l_counts}


def test_count_table_access():
    # a table is a Counter: a missing key reads 0 and is not stored
    t = oracle_ballot_desc(3)
    assert isinstance(t, Counter)
    assert t[(0,)] == 1 and t[(1,)] == 2 and t[(5,)] == 0
    assert (5,) not in t
    assert t.total() == 3
    assert sorted(t.items()) == [((0,), 1), ((1,), 2)]


def test_eulerian_first_small():
    assert oracle_eulerian_first(1) == {(0, 1): 1}
    assert oracle_eulerian_first(3) == {
        (0, 1): 1, (1, 1): 1, (1, 2): 2, (1, 3): 1, (2, 3): 1}


def test_eulerian_first_row_sums():
    t = oracle_eulerian_first(3)
    rows = [sum(t[(d, j)] for j in range(1, 4)) for d in range(3)]
    assert rows == [1, 4, 1]
    for n in range(1, 7):
        assert oracle_eulerian_first(n).total() == factorial(n)


def test_ballot_desc():
    assert oracle_ballot_desc(0) == {(0,): 1}
    assert oracle_ballot_desc(3) == {(0,): 1, (1,): 2}
    assert oracle_ballot_desc(4).total() == 9
    for n in range(8):
        assert oracle_ballot_desc(n).total() == ballot_total(n)


def test_odd_order_m():
    assert oracle_odd_order_M(1) == {(0,): 1}
    assert oracle_odd_order_M(3) == {(0,): 1, (1,): 2}
    t5 = oracle_odd_order_M(5)
    assert t5.total() == 45
    assert t5 == oracle_ballot_desc(5)


def test_e_table():
    assert oracle_E(3) == {(1, 2): 2}
    assert oracle_E(4)[(1, 2)] == 2
    for n in range(3, 7):
        t = oracle_E(n)
        for j in range(2, n):
            assert sum(t[(d, j)] for d in range(n)) == 2 * factorial(n - 2)


def test_e_table_splits_into_disjoint_orientations():
    from itertools import permutations

    from ballotperm.permstat import descents, has_factor_inj

    for n in (4, 5):
        t = oracle_E(n)
        for d in range(n):
            for j in range(2, n):
                fwd = bwd = 0
                for w in permutations(range(1, n + 1)):
                    if descents(w) == d:
                        both = has_factor_inj(w, 1, j) and has_factor_inj(w, j, 1)
                        assert not both
                        fwd += has_factor_inj(w, 1, j)
                        bwd += has_factor_inj(w, j, 1)
                assert t[(d, j)] == fwd + bwd


def test_b_factor():
    t = oracle_b_factor(3)
    assert t[(1, 1, 2)] == 1 and t[(1, 2, 1)] == 1
    assert all(i != j for (_, i, j) in t)


def test_b_factor_vs_p_cyclic_bridge():
    bt, pt = oracle_b_factor(4), oracle_p_cyclic(4)
    for d in range(4):
        for j in range(2, 4):
            assert bt[(d, 1, j)] + bt[(d, j, 1)] == 2 * pt[(d, 1, j)]


def test_p_cyclic():
    assert oracle_p_cyclic(3) == {(1, 1, 2): 1, (1, 2, 1): 1}
    assert all(i != j for (_, i, j) in oracle_p_cyclic(5))


def test_p_cyclic_toeplitz():
    for n in range(3, 7):
        t = oracle_p_cyclic(n)
        for d in range(n):
            for i in range(1, n - 1):
                for j in range(1, n - 1):
                    if i != j:
                        assert t[(d, i, j)] == t[(d, i + 1, j + 1)]


def test_l_table():
    assert oracle_l(1) == {(0,): 1}
    assert oracle_l(3) == {(1,): 2}
    assert oracle_l(5)[(1,)] == 2
    for n in (0, 4):
        with pytest.raises(ValueError, match="odd"):
            oracle_l(n)


def test_preconditions():
    # one bound, 0 <= n <= ENUMERATION_CAP; below its first nonempty size a
    # table is empty, as no permutation qualifies
    for stat, fn in TABLES.items():
        for n in (-1, oracle.ENUMERATION_CAP + 1):
            with pytest.raises(ValueError):
                fn(n)
    assert oracle_eulerian_first(0) == {} and oracle_E(2) == {}
    assert oracle_b_factor(2) == {} and oracle_p_cyclic(0) == {}
    assert oracle_odd_order_M(0) == oracle_ballot_desc(0) == {(0,): 1}


def test_determinism():
    before = dict(oracle_ballot_desc(4))
    oracle.clear_caches()
    assert oracle_ballot_desc(4) == before
    for stat, fn in TABLES.items():
        first = fn(5)
        oracle.clear_caches()
        again = fn(5)
        assert again is not first, stat        # rebuilt, not served from a cache
        assert again == first, stat


@pytest.mark.parametrize("n", range(9))
def test_walks_match_naive_reference(n):
    naive = _naive_tables(n)
    for stat, fn in TABLES.items():
        if _accepted(stat, n):
            assert fn(n) == naive[stat], (stat, n)


def _pattern_id(w: tuple[int, ...]) -> int:
    """The up-down pattern `bytes(map(lt, w, w[1:]))` of w as binary digits,
    the first comparison highest."""
    return sum(up << k for k, up in enumerate(reversed(bytes(map(lt, w, w[1:])))))


def test_pattern_ids_match_words():
    for m in range(1, 9):
        assert oracle._pattern_ids(m) == bytes(map(_pattern_id, permutations(range(1, m + 1)))), m
    # the word walk reads the ids of S_{n-2}; the largest, n <= ENUMERATION_CAP, must fit a byte
    assert 2 ** (oracle.ENUMERATION_CAP - 3) - 1 < 256


def test_gap_classes_match_inserted_words():
    # every gap of every word of S_m, against the word with m + 1 put there
    for m in range(7):
        classes = oracle._gap_classes(m)
        assert len(classes) == 2 ** max(m - 1, 0)
        for w in permutations(range(1, m + 1)):
            d, end_ballot, gaps = classes[_pattern_id(w)]
            ballot_gaps = dict(gaps)
            assert d == descents(w)
            for k in range(m + 1):
                v = w[:k] + (m + 1,) + w[k:]
                if k == m:
                    assert (end_ballot, d) == (is_ballot(v), descents(v)), (w, k)
                elif k == 0:
                    assert not is_ballot(v), (w, k)
                else:
                    assert (k in ballot_gaps) == is_ballot(v), (w, k)
                    if k in ballot_gaps:
                        assert ballot_gaps[k] == descents(v), (w, k)


def test_ids_with_1_match_inserted_words():
    # every word u on 2..m, with 1 put at every position g
    for m in range(2, 8):
        ids = oracle._ids_with_1(m - 2)
        assert len(ids) == 2 ** (m - 2)
        for u in permutations(range(2, m + 1)):
            assert ids[_pattern_id(u)] == [_pattern_id(u[:g] + (1,) + u[g:]) for g in range(m)], u


def test_word_walk_draws_the_words_on_2_to_n_minus_1(monkeypatch):
    # one word u per (n - 2)!, where the walk by S_{n-1} drew (n - 1)!
    drawn = []

    def counted(*args):
        for u in permutations(*args):
            drawn.append(u)
            yield u

    monkeypatch.setattr(oracle, "permutations", counted)
    for n in range(3, 10):
        oracle.clear_caches()
        drawn.clear()
        oracle._word_tables(n)
        assert len(drawn) == factorial(n - 2), n
    oracle.clear_caches()


def _imports(module):
    """(level, module, imported names) of every import statement in the source."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((0, alias.name, ()) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.level, node.module, tuple(alias.name for alias in node.names)


def test_oracle_reads_no_other_route():
    # brute force stays an independent route: standard library imports only
    modules = []
    for level, name, _ in _imports(oracle):
        assert level == 0, f"relative import of {name}"
        modules.append(name)
    assert modules
    for name in modules:
        top = name.split(".")[0]
        assert top != "ballotperm" and top in sys.stdlib_module_names, name
    # nor do the recursions read brute force: counts never imports oracle,
    # whether as `from .oracle import ...` or as `from . import oracle`
    for _, name, names in _imports(counts):
        assert "oracle" not in [*(name or "").split("."), *names], (name, names)


def _modules_after(statement: str) -> set[str]:
    # a fresh interpreter, so that nothing the test session imported counts
    src = str(Path(oracle.__file__).resolve().parent.parent)
    code = f"import sys; sys.path.insert(0, {src!r}); {statement}; print(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    return set(out.split())


def test_each_command_loads_only_the_modules_it_runs():
    # the package imports no submodule: the CLI never loads the per-word
    # statistics, and the series kernels load nothing else of ballotperm
    assert "ballotperm.permstat" not in _modules_after("import ballotperm.cli")
    assert {m for m in _modules_after("import ballotperm.series")
            if m.split(".")[0] == "ballotperm"} == {"ballotperm", "ballotperm.series"}


def test_the_cli_loads_no_dataclass_machinery():
    # records are NamedTuples or slotted classes, so `dataclasses` and the
    # `inspect` it pulls in stay out of every command's start-up
    assert not {"dataclasses", "inspect"} & _modules_after("import ballotperm.cli")


def test_the_cli_loads_no_fractions():
    # series coefficients are ints; only `.terms`, `coeff` and one error
    # message build a Fraction, and import it when they do
    assert not {"fractions", "decimal"} & _modules_after("import ballotperm.cli")


@pytest.mark.parametrize("n", [8, 9])
def test_insertion_walk_matches_streaming_walk(n):
    want = _streaming_word_tables(n)
    got = oracle._word_tables(n)
    assert set(got) == set(want)
    for stat, entries in want.items():
        assert got[stat] == entries, (stat, n)


@pytest.mark.parametrize("n", [8, 9])
def test_insertion_odd_walk_matches_dfs(n):
    want = _dfs_odd_cycle_tables(n)
    got = oracle._odd_cycle_tables(n)
    assert set(got) == set(want)
    for stat, entries in want.items():
        assert got[stat] == entries, (stat, n)


# OEIS A000246: odd order permutations of [n], a(n) = a(n-1) + (n-1)(n-2) a(n-2)
ODD_ORDER = (1, 1, 1, 3, 9, 45, 225, 1575, 11025, 99225, 893025)


@pytest.mark.parametrize("n", range(oracle.ENUMERATION_CAP + 1))
def test_odd_cycle_totals(n):
    tables = oracle._odd_cycle_tables(n)
    assert tables["M"].total() == ODD_ORDER[n]
    # n is not fixed in exactly the permutations with a p entry
    not_fixed = (n - 1) * (n - 2) * ODD_ORDER[n - 2] if n >= 2 else 0
    assert tables["p"].total() == not_fixed
    assert tables["l"].total() == (factorial(n - 1) if n % 2 else 0)


@pytest.mark.parametrize("size", [1, 3, 5, 7])
def test_cycle_classes_tally_the_cycles_of_s_l(size):
    # every letter a of every size-cycle of S_size, with its successor c and
    # the cycle's cyclic descents D, whichever letter the cycle is read from
    want = Counter()
    for p in permutations(range(1, size + 1)):
        cycles = cycle_decompose(p)     # fixed points included
        if len(cycles) == 1:
            cycle = cycles[0]
            d = sum(map(gt, cycle, cycle[1:] + cycle[:1]))
            want.update((d, a, p[a - 1]) for a in cycle)
    assert oracle._cycle_classes(size) == want
    assert want.total() == size * factorial(size - 1)


@pytest.mark.parametrize("n", range(oracle.ENUMERATION_CAP + 1))
def test_odd_cycle_walk_draws_each_cycle_once(monkeypatch, n):
    # from a cleared cache, the cycles on [L] for odd L <= n - 2, each read
    # from 1: (L - 1)! orders, 1 + 2 + 24 + 720 = 747 for every table to n = 10,
    # however many odd order permutations the tables count
    drawn = []

    def counted(*args):
        for order in permutations(*args):
            drawn.append(order)
            yield order

    monkeypatch.setattr(oracle, "permutations", counted)
    oracle.clear_caches()
    oracle._odd_cycle_tables(n)
    assert len(drawn) == sum(factorial(size - 1) for size in range(1, n - 1, 2))
    assert len(set(drawn)) == len(drawn) and oracle._word_tables.cache_info().currsize == 0
    assert n < oracle.ENUMERATION_CAP or len(drawn) == 1 + 2 + 24 + 720
    oracle.clear_caches()


def test_tables_match_golden_hashes():
    # recorded from the per-table enumerations that the two walks replaced;
    # the empty tables below each first nonempty size, and M at 0, from
    # `_naive_tables`
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == set(TABLES)
    for stat, fn in TABLES.items():
        want_ns = [n for n in range(oracle.ENUMERATION_CAP + 1) if _accepted(stat, n)]
        assert sorted(map(int, golden[stat])) == want_ns, stat
        for n in want_ns:
            got = hashlib.sha256(repr(sorted(fn(n).items())).encode()).hexdigest()
            assert got == golden[stat][str(n)], (stat, n)


def test_word_tables_skip_the_odd_cycle_walk():
    oracle.clear_caches()
    oracle_ballot_desc(6), oracle_eulerian_first(6), oracle_E(6)
    assert oracle._odd_cycle_tables.cache_info().currsize == 0


def test_odd_cycle_tables_skip_the_word_walk():
    oracle.clear_caches()
    oracle_odd_order_M(6), oracle_p_cyclic(6), oracle_l(7)
    assert oracle._word_tables.cache_info().currsize == 0
