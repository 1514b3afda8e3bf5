"""Sparse truncated Hurwitz series in t, x, y, z: exponential generating
functions whose coefficient at x^n, times n!, is an integer.

A series keeps, for each x-degree n up to its truncation order, one slice: a
dict {key: int} holding n! times the coefficient of t^e_t x^n y^e_y z^e_z, with
key = e_t 2^20 + e_y 2^10 + e_z: the key of a product is the sum of the keys,
and int order is lexicographic.  The order and every exponent lie in [0, 512);
a sum of keys that passes the limit sets the top bit of a 10-bit field, without
carrying, and the kernel raises ValueError.  Zeros are never stored, so equal
series have equal storage.  These series form a ring closed under d/dx and the
geom and exp recurrences, so every kernel works on the integer slices as they
are: a product is a binomial convolution of slices, H_n = sum_k C(n, k) F_k
G_(n-k), and geom, exp_series, q_of and exp_tm1 are each one online recurrence
(`_recur`).  A product with a composed factor, s * u(x(1+y)) for u free of y
and z, is one pass by Horner in 1+y (`subst_x_times`).  The constructor takes
{(e_t, e_x, e_y, e_z): int or Fraction}, refusing any other coefficient or one
whose n! multiple is not an integer; `egf` takes n! multiples.  Counts come out
as integers, and only `.terms` and `coeff`, which give Fractions, import
`fractions`.

Truncation is by the x-degree alone, and arithmetic on two series
re-truncates to the smaller order.  Series are immutable by convention: no
operation mutates its inputs, and series may share slices.  Inversion is
restricted to the geometric sum 1/(1-g) with g free of x-constant terms
(then g**k dies at k > order), so divisions in closed forms must first be
rewritten that way; only `geom_yz_lower` divides by 1 - yz, keeping the
terms with e_y <= e_x.  Substitutions like t -> 1/t are exponent transforms
(`t_reverse`, `mirror_y_with_z`).
"""

from __future__ import annotations

from math import comb, factorial
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from fractions import Fraction

Monomial = tuple[int, int, int, int]
Slice = dict[int, int]

_W = 10                                  # bits per field: one-digit int keys
EXP_LIMIT = 1 << (_W - 1)
_FIELD, _Y, _T = (1 << _W) - 1, 1 << _W, 1 << 2 * _W    # a field; the keys of y and t
_GUARD = EXP_LIMIT * (_T + _Y + 1)


def _key(m: Monomial) -> int:     # the slice key of m = (e_t, e_x, e_y, e_z)
    if not 0 <= min(m) <= max(m) < EXP_LIMIT:
        raise ValueError(f"exponents of {m} must lie in [0, {EXP_LIMIT})")
    return m[0] * _T + m[2] * _Y + m[3]


def _mono(key: int, n: int) -> Monomial:
    return key >> 2 * _W, n, key >> _W & _FIELD, key & _FIELD


class MultiSeries:
    """A truncated series; build values with zero/one/monomial and arithmetic."""

    __slots__ = ("order", "slices")

    def __init__(self, order: int, terms: dict[Monomial, int | Fraction] | None = None):
        if not 0 <= order < EXP_LIMIT:
            raise ValueError(f"truncation order must lie in [0, {EXP_LIMIT}), got {order}")
        self.order = order
        self.slices: list[Slice] = [{} for _ in range(order + 1)]
        for m, v in (terms or {}).items():
            if not hasattr(v, "denominator"):     # an int or a Fraction; a float has none
                raise ValueError(f"coefficient {v!r} of {m} is not an int or Fraction")
            key, n = _key(m), m[1]
            if n <= order and v:
                v = v * factorial(n)
                if v.denominator != 1:
                    raise ValueError(f"{n}! times the coefficient of {m} is not an integer ({v})")
                self.slices[n][key] = v.numerator

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """{(e_t, e_x, e_y, e_z): Fraction}, built afresh on each access."""
        from fractions import Fraction
        return {_mono(k, n): Fraction(v, factorial(n))
                for n, sl in enumerate(self.slices) for k, v in sl.items()}

    def coeff(self, e_t: int = 0, e_x: int = 0, e_y: int = 0, e_z: int = 0) -> Fraction:
        from fractions import Fraction
        if e_x > self.order or not 0 <= min(e_t, e_x, e_y, e_z) <= max(e_t, e_y, e_z) < EXP_LIMIT:
            return Fraction(0)
        return Fraction(self.slices[e_x].get(e_t * _T + e_y * _Y + e_z, 0), factorial(e_x))

    def truncate(self, order: int) -> "MultiSeries":
        return self if order >= self.order else zero(order) + self

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return (self.order, self.slices) == (other.order, other.slices)

    __hash__ = None  # mutable dicts inside

    def __neg__(self) -> "MultiSeries":
        return _make(self.order, [{k: -v for k, v in sl.items()} for sl in self.slices])

    def __add__(self, other) -> "MultiSeries":
        if not isinstance(other, MultiSeries):
            return NotImplemented
        slices = []
        for p, q in zip(self.slices, other.slices):
            acc = dict(p)
            for k, v in q.items():
                acc[k] = acc.get(k, 0) + v
            slices.append(acc)
        return _make(len(slices) - 1, slices)

    def __sub__(self, other) -> "MultiSeries":
        return self + (-other) if isinstance(other, MultiSeries) else NotImplemented

    def __mul__(self, other) -> "MultiSeries":
        if isinstance(other, int):
            return _make(self.order, [{k: v * other for k, v in sl.items()} for sl in self.slices])
        if not isinstance(other, MultiSeries):
            return NotImplemented
        f, g = self.slices, other.slices
        slices = []
        for n in range(min(self.order, other.order) + 1):
            acc: Slice = {}
            for k in range(n + 1):
                if f[k] and g[n - k]:
                    _add_product(acc, comb(n, k), f[k], g[n - k])
            slices.append(acc)
        return _make(len(slices) - 1, slices, summed=True)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        terms = sorted(self.terms.items())
        head = ", ".join(f"{m}: {c}" for m, c in terms[:4])
        more = "" if len(terms) <= 4 else f", ... ({len(terms)} terms)"
        return f"MultiSeries(order={self.order}, {{{head}{more}}})"


def _make(order: int, slices: list[Slice], summed: bool = False) -> MultiSeries:
    """Wrap integer slices as a series, dropping zeros; a guard bit in summed keys raises."""
    s = MultiSeries.__new__(MultiSeries)
    s.order, s.slices = order, [sl if all(sl.values()) else {k: v for k, v in sl.items() if v}
                                for sl in slices]
    if summed and any(any(map(_GUARD.__and__, sl)) for sl in s.slices):
        raise ValueError(f"an exponent reached the limit {EXP_LIMIT}")
    return s


def _add_product(acc: Slice, scale: int, p: Slice, q: Slice) -> Slice:
    """acc += scale * p * q, with slices read as polynomials in t, y, z."""
    if len(p) > len(q):
        p, q = q, p
    get = acc.get
    for k1, v1 in p.items():
        v1 *= scale
        for k2, v2 in q.items():
            key = k1 + k2
            acc[key] = get(key, 0) + v1 * v2
    return acc


def _recur(base: MultiSeries, a: MultiSeries, shift: int) -> MultiSeries:
    """The F with F_n = B_n + sum_{k=1..n} C(n-shift, k-shift) A_k F_(n-k).

    That is F = base + a*F for shift 0, and F' = base' + a'*F with F(x=0) =
    base(x=0) for shift 1; a has no x-constant part."""
    order = min(base.order, a.order)
    bs, As = base.slices, a.slices
    h: list[Slice] = []
    for n in range(order + 1):
        acc = dict(bs[n])
        for k in range(1, n + 1):
            if As[k] and h[n - k]:
                _add_product(acc, comb(n - shift, k - shift), As[k], h[n - k])
        h.append({key: v for key, v in acc.items() if v})
    return _make(order, h, summed=True)


def zero(order: int) -> MultiSeries:
    return MultiSeries(order)


def one(order: int) -> MultiSeries:
    return MultiSeries(order, {(0, 0, 0, 0): 1})


def monomial(order: int, coeff, e_t: int = 0, e_x: int = 0,
             e_y: int = 0, e_z: int = 0) -> MultiSeries:
    return MultiSeries(order, {(e_t, e_x, e_y, e_z): coeff})


def egf(order: int, counts: dict[Monomial, int]) -> MultiSeries:
    """The series whose coefficient at m = (e_t, n, e_y, e_z), n <= order, is counts[m] / n!."""
    s = MultiSeries(order)
    for m, c in counts.items():
        s.slices[m[1]][_key(m)] = c
    return _make(order, s.slices)


def _require_no_x_constant(s: MultiSeries, what: str) -> None:
    if s.slices[0]:
        raise ValueError(f"{what} needs an argument with no x-constant part")


def exp_tm1(w: MultiSeries) -> MultiSeries:
    """exp((t-1)*w) = sum_k (t-1)^k w^k / k! = 1 + (t-1)*q(w), with (t-1)^k
    expanded in t.  w must have no x-constant part."""
    _require_no_x_constant(w, "exp((t-1)*w)")
    return one(w.order) + (monomial(w.order, 1, e_t=1) - one(w.order)) * q_of(w)


def q_of(w: MultiSeries) -> MultiSeries:
    """q(w) = sum_{k>=1} (t-1)^(k-1) w^k / k!, so (t-1)*q(w) + 1 = exp((t-1)*w).

    This is the unit-free factor in t - exp((t-1)*w) = (t-1)*(1 - q(w)): it
    lets 1/(t - exp((t-1)*w)) be evaluated as geom(q(w)) / (t-1) without ever
    inverting t-1.  It is solved from q' = w' * (1 + (t-1)*q) with q(0) = 0.
    """
    _require_no_x_constant(w, "q")
    return _recur(w, (monomial(w.order, 1, e_t=1) - one(w.order)) * w, 1)


def geom(g: MultiSeries) -> MultiSeries:
    """Geometric sum 1/(1-g) = sum_k g^k for g with no x-constant part,
    solved from F = 1 + g*F."""
    _require_no_x_constant(g, "geometric inversion")
    return _recur(one(g.order), g, 0)


def exp_series(s: MultiSeries) -> MultiSeries:
    """exp(s) = sum_k s^k / k! for s with no x-constant part, solved from
    E' = s' * E with E(0) = 1."""
    _require_no_x_constant(s, "exp")
    return _recur(one(s.order), s, 1)


def subst_x_times(u: MultiSeries, s: MultiSeries) -> MultiSeries:
    """The product s * u(x(1+y)) for a series u free of y and z.

    Slice n is sum_m C(n, m) s_(n-m) u_m (1+y)^m, evaluated by Horner in 1+y
    for m from n down to 0: each step multiplies the running sum by 1+y, one
    shifted add, then adds C(n, m) s_(n-m) u_m, where u_m is a polynomial in t.
    """
    if any(k % _T for sl in u.slices for k in sl):
        raise ValueError("the composed series must be free of y and z")
    order = min(u.order, s.order)
    slices = []
    for n in range(order + 1):
        acc: Slice = {}
        for m in range(n, -1, -1):
            if acc:
                shifted = dict(acc)
                for k, v in acc.items():
                    shifted[k + _Y] = shifted.get(k + _Y, 0) + v
                acc = shifted
            if s.slices[n - m] and u.slices[m]:
                _add_product(acc, comb(n, m), s.slices[n - m], u.slices[m])
        slices.append(acc)
    return _make(order, slices, summed=True)


def geom_yz_lower(s: MultiSeries) -> MultiSeries:
    """s / (1 - yz) = sum_k (yz)^k s on the terms with e_y <= e_x: a term
    (e_t, e_y, e_z) = (a, b, c) of slice n adds to (a, b+k, c+k), k = 0..n-b."""
    slices = []
    for n, sl in enumerate(s.slices):
        acc: Slice = {}
        for k, v in sl.items():
            for key in range(k, k + (n + 1 - (k >> _W & _FIELD)) * (_Y + 1), _Y + 1):
                acc[key] = acc.get(key, 0) + v
        slices.append(acc)
    return _make(s.order, slices, summed=True)


def map_exponents(s: MultiSeries, fn: Callable[[Monomial], Monomial]) -> MultiSeries:
    """Rebuild s with every monomial remapped by fn, which must keep the
    x-degree; coefficients accumulate."""
    slices = []
    for n, sl in enumerate(s.slices):
        acc: Slice = {}
        for k, v in sl.items():
            key = _key(new := fn(_mono(k, n)))
            if new[1] != n:
                raise ValueError(f"exponent transform must keep e_x: {_mono(k, n)} -> {new}")
            acc[key] = acc.get(key, 0) + v
        slices.append(acc)
    return _make(s.order, slices)


def select(s: MultiSeries, pred: Callable[[Monomial], bool]) -> MultiSeries:
    """Keep only the monomials satisfying pred."""
    return _make(s.order, [{k: v for k, v in sl.items() if pred(_mono(k, n))}
                           for n, sl in enumerate(s.slices)])


def t_reverse(s: MultiSeries) -> MultiSeries:
    """Coefficient transform t^d x^n -> t^(n-d) x^n (realizes t -> 1/t, x -> t*x);
    every stored term must have e_t <= e_x."""
    return map_exponents(s, lambda m: (m[1] - m[0], m[1], m[2], m[3]))


def project_half(s: MultiSeries) -> MultiSeries:
    """Keep exactly the terms with 2*e_t <= e_x - 1 (the low-descent half)."""
    return select(s, lambda m: 2 * m[0] <= m[1] - 1)


def mirror_y_with_z(s: MultiSeries) -> MultiSeries:
    """Coefficient transform t^d x^n y^j z^m -> t^d x^n y^(n-j) z^(m+n).

    This realizes the substitution x -> x*y*z, y -> 1/y without negative
    exponents; it needs e_y <= e_x on every stored term.
    """
    return map_exponents(s, lambda m: (m[0], m[1], m[1] - m[2], m[3] + m[1]))


def y_to_z(s: MultiSeries) -> MultiSeries:
    """Rename the variable y to z; the input must be z-free."""
    if any(k & _FIELD for sl in s.slices for k in sl):
        raise ValueError("y -> z rename needs a z-free series")
    return map_exponents(s, lambda m: (m[0], m[1], 0, m[2]))


def d_dx(s: MultiSeries) -> MultiSeries:
    """Formal partial derivative in x; the truncation order drops by one.
    x^n/n! differentiates to x^(n-1)/(n-1)!, so the slices shift down."""
    return _make(max(s.order - 1, 0), s.slices[1:] or [{}])


def d_dy(s: MultiSeries) -> MultiSeries:
    """Formal partial derivative in y."""
    return _make(s.order, [{k - _Y: v * b for k, v in sl.items() if (b := k >> _W & _FIELD)}
                           for sl in s.slices])


def _counts(s: MultiSeries, n: int, ds, cols: list[tuple[int, int, int]]) -> list[list[int]]:
    """Rows d in ds of the counts at t^d x^n y^b z^c, (b, c, weight) in cols, weight | n!."""
    if n > s.order:
        raise ValueError(f"n = {n} is beyond the truncation order {s.order}")
    sl, scale = s.slices[n], factorial(n)
    cols = [(b * _Y + c, scale // w) for b, c, w in cols]
    rows = [[divmod(sl.get(d * _T + key, 0), m) for key, m in cols] for d in ds]
    if any(r for row in rows for _, r in row):
        raise ValueError(f"a count at x^{n} is not an integer; series data is corrupt")
    return [[q for q, _ in row] for row in rows]


def egf_counts(s: MultiSeries, n: int, ds) -> list[int]:
    """The counts at t^d x^n, d in ds, under the exponential weight n!: one row by d."""
    return [row[0] for row in _counts(s, n, ds, [(0, 0, factorial(n))])]


def letter_counts(s: MultiSeries, n: int, ds, js, lo: int) -> list[list[int]]:
    """Rows d in ds of the counts at t^d x^n y^j, j in js, under the weight (j-lo)! (n+1-lo-j)!:
    the first-letter weight at lo = 1 and the factor weight at lo = 2."""
    if not all(lo <= j <= n + 1 - lo for j in js):
        raise ValueError(f"the weight needs {lo} <= j <= {n + 1 - lo} at n = {n}, got j in {js}")
    return _counts(s, n, ds, [(j, 0, factorial(j - lo) * factorial(n + 1 - lo - j)) for j in js])


def pair_counts(s: MultiSeries, n: int, ds, pairs) -> list[list[int]]:
    """Rows d in ds of the counts at t^d x^n y^i z^j, (i, j) in pairs, under the
    pair weight (j-i-1)! (n-j+i-2)!."""
    if not all(1 <= i < j <= n - 1 for i, j in pairs):
        raise ValueError(f"pair weight needs 1 <= i < j <= n-1 at n = {n}, got {pairs}")
    return _counts(s, n, ds, [(i, j, factorial(j - i - 1) * factorial(n - j + i - 2))
                              for i, j in pairs])


def first_difference(a: MultiSeries, b: MultiSeries):
    """Lexicographically smallest monomial where a and b differ, up to the
    common truncation order; None when they agree."""
    diffs = [_mono(k, n) for n, (p, q) in enumerate(zip(a.slices, b.slices))
             if p != q for k in p.keys() | q.keys() if p.get(k, 0) != q.get(k, 0)]
    m = min(diffs, default=None)
    return None if m is None else (m, a.coeff(*m), b.coeff(*m))


def n_monomials(*ss: MultiSeries) -> int:
    """How many monomials are stored in at least one of the series, up to
    their common truncation order."""
    return sum(len(set().union(*sls)) for sls in zip(*(s.slices for s in ss)))


def dump(s: MultiSeries) -> str:
    """One line per monomial, 't^a x^b y^c z^d : num/den', ascending lexicographically."""
    return "\n".join(f"t^{a} x^{b} y^{c} z^{d} : {c0.numerator}/{c0.denominator}"
                     for (a, b, c, d), c0 in sorted(s.terms.items()))
