from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ballotperm import permstat
from ballotperm.permstat import (as_perm, ascents, cycle_decompose,
                                 cyclic_ascents, cyclic_descents, descents,
                                 has_cyclic_factor_inj, has_factor_inj, height,
                                 is_ballot, is_odd_order, lowest_points,
                                 m_statistic, prefix_heights, reverse)

perms_upto = st.integers(1, 7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))).map(tuple)


def words(n):
    return permutations(range(1, n + 1))


def test_as_perm_accepts_and_rejects():
    assert as_perm([2, 1, 3]) == (2, 1, 3)
    assert as_perm(()) == ()
    with pytest.raises(ValueError):
        as_perm((1, 1, 2))
    with pytest.raises(ValueError):
        as_perm((0, 1))


@pytest.mark.parametrize("word, want", [
    ((1, 2, 3), 0),
    ((3, 2, 1), 2),
    ((1, 3, 2), 1),
    ((), 0),
    ((1,), 0),
])
def test_descents(word, want):
    assert descents(word) == want


@pytest.mark.parametrize("word, want", [
    ((1, 2, 3), [0, 1, 2]),
    ((2, 1, 3), [0, -1, 0]),
    ((1, 4, 3, 2, 6, 5), [0, 1, 0, -1, 0, -1]),
    ((), []),
])
def test_prefix_heights(word, want):
    assert prefix_heights(word) == want


def test_is_ballot_small():
    assert is_ballot((1, 2, 3))
    assert not is_ballot((2, 1, 3))
    assert is_ballot(())
    ballots = {w for w in words(3) if is_ballot(w)}
    assert ballots == {(1, 2, 3), (1, 3, 2), (2, 3, 1)}


@pytest.mark.parametrize("word, want", [
    ((1, 4, 3, 2, 6, 5), (4, 6)),
    ((1, 2, 3), (1, 1)),
    ((2, 1), (2, 2)),
])
def test_lowest_points(word, want):
    assert lowest_points(word) == want


def test_lowest_points_empty():
    with pytest.raises(ValueError):
        lowest_points(())


def test_lowest_point_split_is_ballot():
    # both split conventions leave two ballot pieces, for every word
    for n in range(1, 8):
        for w in words(n):
            lo, hi = lowest_points(w)
            assert is_ballot(reverse(w[:lo - 1])) and is_ballot(w[lo - 1:])
            assert is_ballot(reverse(w[:hi])) and is_ballot(w[hi:])


def test_cycle_decompose():
    assert cycle_decompose((1, 2, 3)) == [(1,), (2,), (3,)]
    assert cycle_decompose((2, 3, 1)) == [(3, 1, 2)]
    assert cycle_decompose((2, 1, 4, 3)) == [(2, 1), (4, 3)]
    assert cycle_decompose(()) == []


@given(perms_upto)
def test_cycle_decompose_partitions(p):
    cycles = cycle_decompose(p)
    letters = [c for cyc in cycles for c in cyc]
    assert sorted(letters) == list(range(1, len(p) + 1))
    for cyc in cycles:
        assert cyc[0] == max(cyc)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert p[a - 1] == b


def test_m_statistic_examples():
    assert m_statistic((1, 2, 3, 4)) == 0
    assert m_statistic((2, 3, 1)) == 1  # cycle word 312: one cyclic descent
    hist = {}
    for w in words(3):
        if is_odd_order(w):
            hist[m_statistic(w)] = hist.get(m_statistic(w), 0) + 1
    assert hist == {0: 1, 1: 2}


def test_m_statistic_rotation_invariant():
    # cdes/casc see the cyclic word, so rotations agree
    cyc = (5, 1, 4, 2, 3)
    base = (cyclic_descents(cyc), cyclic_ascents(cyc))
    for r in range(1, 5):
        rot = cyc[r:] + cyc[:r]
        assert (cyclic_descents(rot), cyclic_ascents(rot)) == base


def test_fixed_point_contributes_nothing():
    assert cyclic_descents((4,)) == 0
    assert cyclic_ascents((4,)) == 0
    assert m_statistic((1,)) == 0


def test_m_bound_for_odd_order():
    for n in range(1, 8):
        for w in words(n):
            if is_odd_order(w):
                assert m_statistic(w) <= (n - 1) // 2


@pytest.mark.parametrize("word, i, j, want", [
    ((1, 3, 2), 1, 2, True),
    ((2, 3, 1), 2, 1, True),
    ((1, 2, 3), 1, 2, False),
])
def test_has_factor_inj(word, i, j, want):
    assert has_factor_inj(word, i, j) is want


@pytest.mark.parametrize("word, i, j, want", [
    ((3, 1, 2), 1, 2, True),   # cycle (3 2 1): ...132... cyclically
    ((2, 3, 1), 1, 2, False),  # cycle (3 1 2) has no 132 window
    ((1, 2, 3), 1, 2, False),
])
def test_has_cyclic_factor_inj(word, i, j, want):
    assert has_cyclic_factor_inj(word, i, j) is want


def test_factor_letter_validation():
    for bad in [(3, 3), (0, 1), (1, 3), (3, 1), (1, 4)]:
        with pytest.raises(ValueError):
            has_factor_inj((1, 3, 2), *bad)
        with pytest.raises(ValueError):
            has_cyclic_factor_inj((1, 3, 2), *bad)


@given(perms_upto)
def test_descent_ascent_split(p):
    assert descents(p) + ascents(p) == len(p) - 1
    assert height(p) == ascents(p) - descents(p)
    if is_ballot(p):
        assert height(p) >= 0


@given(perms_upto)
def test_reversal_duality(p):
    assert descents(reverse(p)) == len(p) - 1 - descents(p)


def test_ballot_count_matches_double_factorial():
    # |ballot words of length 3| = 3!! * 1!!
    assert sum(is_ballot(w) for w in words(3)) == 3
    assert sum(is_ballot(w) for w in words(4)) == 9
