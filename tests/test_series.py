from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ballotperm.series import (EXP_LIMIT, MultiSeries, d_dx, d_dy, dump, egf_counts,
                               exp_series, exp_tm1, first_difference, geom,
                               geom_yz_lower, letter_counts, map_exponents,
                               mirror_y_with_z, monomial, n_monomials, one,
                               pair_counts, project_half, q_of, select,
                               subst_x_times, t_reverse, y_to_z, zero)

ORDER = 5

# a draw c at x^n is the coefficient c/n!, so n! times it is an integer
coeffs = st.integers(-3, 3)
monos = st.tuples(st.integers(0, 2), st.integers(0, ORDER),
                  st.integers(0, 2), st.integers(0, 2))


@st.composite
def small_series(draw, min_x=0):
    n = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n):
        m = draw(monos)
        if m[1] < min_x:
            m = (m[0], min_x + m[1], m[2], m[3])
        terms[m] = Fraction(draw(coeffs), factorial(m[1]))
    return MultiSeries(ORDER, terms)


def x_(order=ORDER):
    return monomial(order, 1, e_x=1)


def t_(order=ORDER):
    return monomial(order, 1, e_t=1)


def test_constructor_cleans():
    s = MultiSeries(2, {(0, 1, 0, 0): Fraction(0), (0, 3, 0, 0): Fraction(1),
                        (0, 2, 0, 0): Fraction(5)})
    assert s.terms == {(0, 2, 0, 0): Fraction(5)}
    with pytest.raises(ValueError):
        MultiSeries(-1)
    # 2! * 1/3 is not an integer: the series would not be a Hurwitz series
    with pytest.raises(ValueError, match="not an integer"):
        MultiSeries(3, {(0, 2, 0, 0): Fraction(1, 3)})
    with pytest.raises(ValueError, match="not an integer"):
        monomial(3, Fraction(1, 3), e_x=1)
    # a coefficient is an int or a Fraction: a float is refused even when exact
    for v in (0.5, 2.0, 0.0):
        with pytest.raises(ValueError, match="not an int or Fraction"):
            MultiSeries(3, {(0, 2, 0, 0): v})
    with pytest.raises(ValueError, match="not an int or Fraction"):
        monomial(3, 1.0, e_x=1)


def test_basic_arithmetic():
    s = (one(ORDER) + x_()) * (one(ORDER) - x_())
    assert s == one(ORDER) - monomial(ORDER, 1, e_x=2)
    assert (s * zero(ORDER)).terms == {}
    assert (3 * x_()).coeff(e_x=1) == 3
    with pytest.raises(TypeError):
        x_() * Fraction(1, 2)
    with pytest.raises(TypeError):
        Fraction(1, 2) * x_()


def test_mul_truncates_to_min_order():
    a = monomial(3, 1, e_x=3)
    b = monomial(5, 1, e_x=1)
    assert (a * b).order == 3
    assert (a * b).terms == {}
    assert (a + b).order == 3


def test_truncate():
    s = one(5) + monomial(5, 1, e_x=4)
    assert s.truncate(3) == one(3)
    assert s.truncate(5) is s


def test_exp_tm1_coefficients():
    e = exp_tm1(x_())
    assert e.coeff(1, 1) == 1 and e.coeff(0, 1) == -1
    assert e.coeff(2, 2) == Fraction(1, 2) and e.coeff(0, 2) == Fraction(1, 2)
    exy = exp_tm1(monomial(ORDER, 1, e_x=1, e_y=1))
    assert exy.coeff(1, 1, 1) == 1 and exy.coeff(0, 1, 1) == -1
    w = x_() + monomial(ORDER, 1, e_x=1, e_y=1)
    e2 = exp_tm1(w)
    assert e2.coeff(2, 2, 1) == 1 and e2.coeff(1, 2, 1) == -2 and e2.coeff(0, 2, 1) == 1


def test_q_of_coefficients():
    q = q_of(x_())
    assert q.coeff(0, 1) == 1
    assert q.coeff(1, 2) == Fraction(1, 2) and q.coeff(0, 2) == Fraction(-1, 2)


def test_q_vs_exp_identity():
    for w in [x_(), x_() + monomial(ORDER, 2, e_x=1, e_y=1),
              monomial(ORDER, 1, e_x=2, e_z=1)]:
        tm1 = t_() - one(ORDER)
        assert tm1 * q_of(w) + one(ORDER) == exp_tm1(w)


def test_exp_precondition():
    with pytest.raises(ValueError):
        exp_tm1(one(ORDER))
    with pytest.raises(ValueError):
        exp_series(one(ORDER) + x_())
    with pytest.raises(ValueError):
        q_of(monomial(ORDER, 1, e_y=1))


def test_geom():
    assert geom(zero(ORDER)) == one(ORDER)
    g = geom(x_())
    assert g.terms == {(0, k, 0, 0): Fraction(1) for k in range(ORDER + 1)}
    with pytest.raises(ValueError):
        geom(monomial(ORDER, 1, e_y=1))


@given(small_series(min_x=1))
def test_geom_times_complement_is_one(g):
    assert geom(g) * (one(ORDER) - g) == one(ORDER)


def test_exp_series():
    assert exp_series(zero(ORDER)) == one(ORDER)
    e = exp_series(x_())
    assert [e.coeff(0, n) for n in range(6)] == [
        Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 6),
        Fraction(1, 24), Fraction(1, 120)]


def test_subst_x_times():
    # s * u(x(1+y)): the x-degree of each term of u is the power of 1+y
    y = monomial(ORDER, 1, e_y=1)
    assert subst_x_times(x_(), one(ORDER)) == x_() + x_() * y
    assert subst_x_times(one(ORDER), x_()) == x_()
    assert subst_x_times(x_(), t_() * y) == t_() * y * (x_() + x_() * y)
    sq = subst_x_times(monomial(ORDER, 1, e_x=2), one(ORDER))
    assert sq.coeff(0, 2, 1) == 2  # binomial (1+y)^2
    assert subst_x_times(x_(3), one(ORDER)) == subst_x_times(x_(), one(3))
    assert subst_x_times(x_(), one(3)).order == 3
    for bad in (y, monomial(ORDER, 1, e_x=2, e_z=1)):
        with pytest.raises(ValueError):
            subst_x_times(x_() + bad, one(ORDER))


def test_t_reverse():
    assert t_reverse(monomial(ORDER, 1, e_t=1, e_x=3)) == monomial(ORDER, 1, e_t=2, e_x=3)
    s = monomial(ORDER, 2, e_t=1, e_x=4) + monomial(ORDER, 3, e_x=2)
    assert t_reverse(t_reverse(s)) == s
    with pytest.raises(ValueError):
        t_reverse(monomial(ORDER, 1, e_t=2, e_x=1))


def test_project_half():
    assert project_half(monomial(ORDER, 1, e_t=1, e_x=3)).terms  # 2 <= 2 kept
    assert not project_half(monomial(ORDER, 1, e_t=2, e_x=3)).terms
    s = monomial(ORDER, 1, e_t=1, e_x=4) + monomial(ORDER, 2, e_x=1)
    assert project_half(project_half(s)) == project_half(s)


def test_project_half_splits_reversal_symmetric_series():
    # for a t-reversal-invariant series on odd x-degrees, the low half plus
    # its reversal rebuilds the series
    s = (monomial(ORDER, 2, e_x=1) + monomial(ORDER, 2, e_t=1, e_x=1)
         + monomial(ORDER, 1, e_t=1, e_x=3) + monomial(ORDER, 1, e_t=2, e_x=3))
    assert t_reverse(s) == s
    low = project_half(s)
    assert low + t_reverse(low) == s


def test_mirror_y_with_z():
    assert (mirror_y_with_z(monomial(ORDER, 1, e_x=2, e_y=1))
            == monomial(ORDER, 1, e_x=2, e_y=1, e_z=2))
    # monomial expansion of x -> xyz, y -> 1/y on three terms
    s = (monomial(ORDER, 2, e_t=1, e_x=3, e_y=2)
         + monomial(ORDER, 1, e_x=4, e_y=3)
         + monomial(ORDER, 5, e_x=1, e_y=1))
    m = mirror_y_with_z(s)
    assert m.coeff(1, 3, 1, 3) == 2
    assert m.coeff(0, 4, 1, 4) == 1
    assert m.coeff(0, 1, 0, 1) == 5
    with pytest.raises(ValueError):
        mirror_y_with_z(monomial(ORDER, 1, e_x=1, e_y=2))


def test_y_to_z():
    assert y_to_z(monomial(ORDER, 1, e_x=2, e_y=2)) == monomial(ORDER, 1, e_x=2, e_z=2)
    with pytest.raises(ValueError):
        y_to_z(monomial(ORDER, 1, e_z=1))


def test_map_exponents_and_select():
    s = monomial(ORDER, 1, e_t=1, e_x=2) + monomial(ORDER, 1, e_t=2, e_x=2)
    collapsed = map_exponents(s, lambda m: (0, m[1], m[2], m[3]))
    assert collapsed == monomial(ORDER, 2, e_x=2)
    assert select(s, lambda m: m[0] == 1) == monomial(ORDER, 1, e_t=1, e_x=2)
    with pytest.raises(ValueError):
        map_exponents(s, lambda m: (m[0] - 3, m[1], m[2], m[3]))


def yz_sum_then_select(s):
    """s / (1 - yz) as the polynomial geometric sum up to (yz)^(order+1),
    then the support filter e_y <= e_x."""
    yz_sum = MultiSeries(s.order, {(0, 0, k, k): Fraction(1) for k in range(s.order + 2)})
    return select(s * yz_sum, lambda m: m[2] <= m[1])


def test_geom_yz_lower():
    # terms on the diagonal e_y = e_x, one below it, one above it, and a
    # spread term that cancels a stored one
    s = MultiSeries(ORDER, {(0, 2, 1, 0): Fraction(1, 2), (1, 3, 3, 1): Fraction(2, 6),
                            (0, 3, 2, 0): Fraction(-1, 6), (0, 3, 3, 1): Fraction(1, 6),
                            (2, 2, 3, 0): Fraction(5, 2), (0, 4, 0, 2): Fraction(3, 24)})
    got = geom_yz_lower(s)
    assert got == yz_sum_then_select(s) and canonical(got)
    assert got.terms == {
        (0, 2, 1, 0): Fraction(1, 2), (0, 2, 2, 1): Fraction(1, 2),
        (1, 3, 3, 1): Fraction(2, 6), (0, 3, 2, 0): Fraction(-1, 6),
        **{(0, 4, k, 2 + k): Fraction(3, 24) for k in range(5)}}


def test_derivatives():
    s = monomial(6, 1, e_x=3) + monomial(6, 2, e_x=1, e_y=2)
    dx = d_dx(s)
    assert dx.order == 5
    assert dx.coeff(0, 2) == 3 and dx.coeff(0, 0, 2) == 2
    dy = d_dy(s)
    assert dy.order == 6
    assert dy.coeff(0, 1, 1) == 4 and dy.coeff(0, 3) == 0


def test_extract_weights():
    egf = geom(q_of(x_(6))) - one(6)
    assert egf_counts(egf, 4, range(4)) == [1, 11, 11, 1]
    assert egf_counts(egf, 0, range(2)) == [0, 0]
    f = monomial(6, Fraction(2, 1), e_t=1, e_x=3, e_y=2)
    # the first-letter weight 1! 1! and the factor weight 0! 0! at j = 2
    assert letter_counts(f, 3, range(3), range(1, 4), 1) == [[0, 0, 0], [0, 2, 0], [0, 0, 0]]
    assert letter_counts(f, 3, range(3), [2], 2) == [[0], [2], [0]]
    q4 = monomial(6, Fraction(2), e_t=1, e_x=3, e_y=1, e_z=2)
    assert pair_counts(q4, 3, range(2), [(1, 2)]) == [[0], [2]]
    q5 = q4 + monomial(6, Fraction(3), e_t=2, e_x=5, e_y=3, e_z=4)   # weight 0! 2!
    assert pair_counts(q5, 5, range(3), [(1, 3), (3, 4)]) == [[0, 0], [0, 0], [0, 6]]


def test_extract_errors():
    s = monomial(3, Fraction(1, 6), e_x=3, e_y=1)
    with pytest.raises(ValueError, match="not an integer"):
        letter_counts(s, 3, [0], [1], 1)  # 1/3! * 0! 2! = 2/6 is not a count
    for read in (lambda n: egf_counts(s, n, [0]), lambda n: letter_counts(s, n, [0], [1], 1),
                 lambda n: pair_counts(s, n, [0], [(1, 2)])):
        with pytest.raises(ValueError, match="beyond the truncation order"):
            read(4)
    with pytest.raises(ValueError, match="the weight needs"):
        letter_counts(s, 1, [0], [2], 1)
    with pytest.raises(ValueError, match="the weight needs"):
        letter_counts(s, 3, [0], [1], 2)
    with pytest.raises(ValueError, match="pair weight needs"):
        pair_counts(s, 3, [0], [(2, 1)])
    for n in range(2, ORDER + 1):
        first = monomial(ORDER, Fraction(1, factorial(n)), e_t=1, e_x=n, e_y=1)
        with pytest.raises(ValueError, match="not an integer"):
            letter_counts(first, n, [1], [1], 1)  # 1/n! * 0! (n-1)! = 1/n
        assert letter_counts(first * n, n, [1], [1], 1) == [[1]]


def test_first_difference():
    a = one(ORDER) + monomial(ORDER, 1, e_x=2) + monomial(ORDER, 4, e_x=3)
    b = one(ORDER) + monomial(ORDER, 2, e_x=2) + monomial(ORDER, 9, e_x=4)
    assert first_difference(a, a) is None
    mono, ca, cb = first_difference(a, b)
    assert mono == (0, 2, 0, 0) and ca == 1 and cb == 2


def test_n_monomials_counts_the_union_to_the_common_order():
    a = one(3) + monomial(3, 2, e_x=2) + monomial(3, 5, e_x=3, e_y=1)
    b = one(2) + monomial(2, 7, e_t=1, e_x=2)
    assert n_monomials(a) == 3 and n_monomials(b) == 2
    # the constant term is shared and x^3 lies beyond the order of b
    assert n_monomials(a, b) == n_monomials(b, a) == 3
    assert n_monomials(a, a) == 3 and n_monomials(zero(4)) == 0
    assert n_monomials(a, zero(0)) == 1


def test_dump_golden():
    q = q_of(x_(3))
    assert dump(q) == "\n".join([
        "t^0 x^1 y^0 z^0 : 1/1",
        "t^0 x^2 y^0 z^0 : -1/2",
        "t^0 x^3 y^0 z^0 : 1/6",
        "t^1 x^2 y^0 z^0 : 1/2",
        "t^1 x^3 y^0 z^0 : -1/3",
        "t^2 x^3 y^0 z^0 : 1/6",
    ])
    assert dump(zero(2)) == ""


@given(small_series(), small_series(), small_series())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero(ORDER) == a
    assert a * one(ORDER) == a


@given(small_series(min_x=1))
def test_exp_identity_random(w):
    tm1 = t_() - one(ORDER)
    assert tm1 * q_of(w) + one(ORDER) == exp_tm1(w)


# A naive reference on plain {(e_t, e_x, e_y, e_z): Fraction} dicts, sharing no
# code with the ring: products by all pairs of terms, and the kernels by the
# power sums their docstrings state.

def ref_mul(a, b):
    out = {}
    for (t1, x1, y1, z1), c1 in a.items():
        for (t2, x2, y2, z2), c2 in b.items():
            if x1 + x2 <= ORDER:
                key = (t1 + t2, x1 + x2, y1 + y2, z1 + z2)
                out[key] = out.get(key, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def ref_power_sum(w, weight, k_max):
    """sum_{k=0..k_max} weight(k) * w^k, where weight(k) is a polynomial in t
    given as {e_t: coefficient}."""
    out, power = {}, {(0, 0, 0, 0): Fraction(1)}
    for k in range(k_max + 1):
        for e_t, c in weight(k).items():
            term = ref_mul({(e_t, 0, 0, 0): Fraction(c)}, power)
            for m, v in term.items():
                out[m] = out.get(m, 0) + v
        power = ref_mul(power, w)
    return {m: c for m, c in out.items() if c}


def tm1_power(k, scale):
    """(t-1)^k * scale as {e_t: coefficient}."""
    return {j: Fraction(comb(k, j) * (-1) ** (k - j)) * scale for j in range(k + 1)}


# a draw c at x^n is the coefficient c/n!; every draw holds at least one term
ref_ints = st.integers(-6, 6).filter(bool)


@st.composite
def hurwitz_terms(draw, min_x=0):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        m = draw(monos)
        n = max(m[1], min_x)
        terms[(m[0], n, m[2], m[3])] = Fraction(draw(ref_ints), factorial(n))
    m = draw(monos)
    n = max(m[1], min_x)
    terms[(m[0], n, m[2], m[3])] = Fraction(draw(st.sampled_from([-3, 1, 2])), factorial(n))
    return terms


def canonical(s):
    # the constructor yields the canonical storage, so a round trip through
    # .terms must reproduce the series exactly
    return MultiSeries(s.order, s.terms) == s


@given(hurwitz_terms(), hurwitz_terms())
def test_mul_matches_naive_reference(a, b):
    sa, sb = MultiSeries(ORDER, a), MultiSeries(ORDER, b)
    assert sa.terms == a
    prod_ = sa * sb
    assert prod_.terms == ref_mul(a, b) and canonical(prod_)
    assert (sb * sa).terms == ref_mul(a, b)


@given(hurwitz_terms(min_x=1))
def test_kernels_match_naive_power_sums(w):
    s = MultiSeries(ORDER, w)
    cases = [
        (geom(s), ref_power_sum(w, lambda k: {0: 1}, ORDER)),
        (exp_series(s), ref_power_sum(w, lambda k: {0: Fraction(1, factorial(k))}, ORDER)),
        (q_of(s), ref_power_sum(
            w, lambda k: tm1_power(k - 1, Fraction(1, factorial(k))) if k else {}, ORDER)),
        (exp_tm1(s), ref_power_sum(w, lambda k: tm1_power(k, Fraction(1, factorial(k))), ORDER)),
    ]
    for got, want in cases:
        assert got.terms == want and canonical(got)


@given(hurwitz_terms(), hurwitz_terms())
def test_subst_x_times_matches_naive_reference(u_terms, s_terms):
    # u keeps the t and x exponents of its draw; each of its terms c t^a x^m
    # is expanded times (1+y)^m, and the expansion is multiplied by s
    u = {}
    for (a, m, _, _), v in u_terms.items():
        u[(a, m, 0, 0)] = u.get((a, m, 0, 0), 0) + v
    composed = {}
    for (a, m, _, _), v in u.items():
        power = {(0, 0, 0, 0): Fraction(1)}
        for _ in range(m):
            power = ref_mul(power, {(0, 0, 0, 0): Fraction(1), (0, 0, 1, 0): Fraction(1)})
        for key, c in ref_mul({(a, m, 0, 0): v}, power).items():
            composed[key] = composed.get(key, 0) + c
    got = subst_x_times(MultiSeries(ORDER, u), MultiSeries(ORDER, s_terms))
    assert got.terms == ref_mul(composed, s_terms) and canonical(got)


@given(hurwitz_terms())
def test_geom_yz_lower_matches_truncated_geometric_sum(terms):
    s = MultiSeries(ORDER, terms)
    assert geom_yz_lower(s) == yz_sum_then_select(s)


@given(hurwitz_terms())
def test_kernels_reject_x_constant_part(terms):
    # monos never reach y^3, so this x-constant term cannot cancel
    s = MultiSeries(ORDER, terms) + monomial(ORDER, 1, e_y=3)
    for kernel in (geom, exp_series, q_of, exp_tm1):
        with pytest.raises(ValueError):
            kernel(s)


def test_constructor_refuses_exponents_out_of_range():
    # a stored t^-1 would make t^-1 * t x read t^0 x^2; every exponent, e_x
    # included, and the truncation order lie in [0, EXP_LIMIT)
    for m in [(-1, 1, 0, 0), (0, -1, 0, 0), (0, 1, -2, 0), (0, 1, 0, -1),
              (EXP_LIMIT, 1, 0, 0), (0, 1, EXP_LIMIT, 0), (0, 1, 0, EXP_LIMIT)]:
        with pytest.raises(ValueError, match="must lie in"):
            MultiSeries(3, {m: 1})
    with pytest.raises(ValueError):
        monomial(3, 1, e_z=-1)
    with pytest.raises(ValueError):
        MultiSeries(EXP_LIMIT)
    top = EXP_LIMIT - 1
    assert MultiSeries(3, {(top, 1, top, top): 2}).terms == {(top, 1, top, top): 2}
    assert MultiSeries(top).order == top


def _power_of(field, e, e_x=1, order=4):
    """x^e_x times the variable of `field` (0 for t, 2 for y, 3 for z) to the e."""
    exps = [0, e_x, 0, 0]
    exps[field] = e
    return monomial(order, 1, *exps)


@pytest.mark.parametrize("field", [0, 2, 3])
def test_sums_of_keys_reaching_the_field_limit_raise(field):
    # one field at a time, so that a carry into the next field would show
    half = EXP_LIMIT // 2
    top = [0, 2, 0, 0]
    top[field] = EXP_LIMIT - 1
    assert (_power_of(field, half) * _power_of(field, half - 1)).terms == {tuple(top): 1}
    with pytest.raises(ValueError, match="limit"):
        _power_of(field, half) * _power_of(field, half)
    with pytest.raises(ValueError, match="limit"):
        geom(_power_of(field, half))    # t^(2 half) at x^2, by the recurrence
    assert geom(_power_of(field, (EXP_LIMIT - 1) // 4)).order == 4     # up to x^4


def test_shifts_reaching_the_field_limit_raise():
    x = x_(4)
    # s * u(x(1+y)): the Horner step in 1+y shifts every key by y
    assert subst_x_times(x, _power_of(2, EXP_LIMIT - 2, 0)).coeff(0, 1, EXP_LIMIT - 1) == 1
    with pytest.raises(ValueError, match="limit"):
        subst_x_times(x, _power_of(2, EXP_LIMIT - 1, 0))
    # s / (1 - yz) below the diagonal adds yz up to e_x times
    assert geom_yz_lower(_power_of(3, EXP_LIMIT - 3, 2)).coeff(0, 2, 2, EXP_LIMIT - 1) == 1
    with pytest.raises(ValueError, match="limit"):
        geom_yz_lower(_power_of(3, EXP_LIMIT - 2, 2))
    # an exponent transform is checked as it builds each key
    with pytest.raises(ValueError, match="must lie in"):
        mirror_y_with_z(_power_of(3, EXP_LIMIT - 2, 2))


def ref_transform(terms, fn):
    """{fn(m): coefficient}, summed, or None when fn gives a negative exponent."""
    out = {}
    for m, c in terms.items():
        new = fn(m)
        if min(new) < 0:
            return None
        out[new] = out.get(new, 0) + c
    return {m: c for m, c in out.items() if c}


def permute_tyz(m):
    return (m[3], m[1], m[0], m[2])


def parity_pred(m):
    return (m[0] + m[2]) % 2 == m[3] % 2


@given(hurwitz_terms())
def test_edge_decoders_match_naive_references(terms):
    # each transform against the same map applied to .terms; a transform that
    # would need a negative exponent must raise
    s = MultiSeries(ORDER, terms)
    z_free = all(m[3] == 0 for m in terms)
    cases = [
        (t_reverse, lambda m: (m[1] - m[0], m[1], m[2], m[3])),
        (mirror_y_with_z, lambda m: (m[0], m[1], m[1] - m[2], m[3] + m[1])),
        (lambda s: map_exponents(s, permute_tyz), permute_tyz),
        (y_to_z, lambda m: (m[0], m[1], 0, m[2]) if z_free else (-1, 0, 0, 0)),
    ]
    for kernel, fn in cases:
        want = ref_transform(terms, fn)
        if want is None:
            with pytest.raises(ValueError):
                kernel(s)
        else:
            got = kernel(s)
            assert got.terms == want and canonical(got)
    dy = {(a, n, b - 1, c): v * b for (a, n, b, c), v in terms.items() if b}
    assert d_dy(s).terms == dy and canonical(d_dy(s))
    kept = select(s, parity_pred)
    assert kept.terms == {m: c for m, c in terms.items() if parity_pred(m)} and canonical(kept)


@given(hurwitz_terms(), hurwitz_terms(), st.integers(0, ORDER), st.booleans())
def test_first_difference_matches_naive_reference(a_terms, b_terms, b_order, overlap):
    if overlap:     # mostly equal series, so that the difference is late
        b_terms = {**a_terms, **dict(list(b_terms.items())[:1])}
    a, b = MultiSeries(ORDER, a_terms), MultiSeries(b_order, b_terms)
    common = min(a.order, b.order)
    diffs = sorted(m for m in a.terms.keys() | b.terms.keys()
                   if m[1] <= common and a.coeff(*m) != b.coeff(*m))
    want = (diffs[0], a.coeff(*diffs[0]), b.coeff(*diffs[0])) if diffs else None
    assert first_difference(a, b) == want
    assert first_difference(a, a) is None
