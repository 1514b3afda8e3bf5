"""Sparse truncated Hurwitz series in t, x, y, z: exponential generating
functions whose coefficient at x^n, times n!, is an integer.

A series keeps, for each x-degree n up to its truncation order, one slice: a
dict {(e_t, e_y, e_z): int} holding n! times the coefficient of
t^e_t x^n y^e_y z^e_z.  Zeros are never stored, so equal series have equal
storage.  These series form a ring closed under d/dx and under the geom and
exp recurrences, so every kernel works on the integer slices as they are: a
product is a binomial convolution of slices, H_n = sum_k C(n, k) F_k G_(n-k),
and geom, exp_series, q_of and exp_tm1 are each one online recurrence
(`_recur`).  A product with a composed factor, s * u(x(1+y)) for u free of y
and z, is one pass by Horner in 1+y (`subst_x_times`).  The constructor takes
{(e_t, e_x, e_y, e_z): int or Fraction} and refuses any other coefficient, or
one whose n! multiple is not an integer; extract_* work in integers.  Only
`.terms` and `coeff`, which give Fractions, and the error of an extraction
that is not an integer import `fractions`.

Truncation is by the x-degree alone, and arithmetic on two series
re-truncates to the smaller order.  Series are immutable by convention: no
operation mutates its inputs, and series may share slices.  Inversion is
restricted to the geometric sum 1/(1-g) with g free of x-constant terms
(then g**k dies at k > order), so divisions in closed forms must first be
rewritten that way; only `geom_yz_lower` divides by 1 - yz, keeping the
terms with e_y <= e_x.  Negative exponents are never stored; substitutions
like t -> 1/t are exponent transforms (`t_reverse`, `mirror_y_with_z`).
"""

from __future__ import annotations

from math import comb, factorial, prod
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from fractions import Fraction

Monomial = tuple[int, int, int, int]
Slice = dict[tuple[int, int, int], int]


class MultiSeries:
    """A truncated series; build values with zero/one/monomial and arithmetic."""

    __slots__ = ("order", "slices")

    def __init__(self, order: int, terms: dict[Monomial, int | Fraction] | None = None):
        if order < 0:
            raise ValueError(f"truncation order must be >= 0, got {order}")
        self.order = order
        self.slices: list[Slice] = [{} for _ in range(order + 1)]
        for (a, n, b, c), v in (terms or {}).items():
            if not hasattr(v, "denominator"):     # an int or a Fraction; a float has none
                raise ValueError(f"coefficient {v!r} of {(a, n, b, c)} is not an int or Fraction")
            if n <= order and v:
                v = v * factorial(n)
                if v.denominator != 1:
                    raise ValueError(f"{n}! times the coefficient of {(a, n, b, c)} "
                                     f"is not an integer ({v})")
                self.slices[n][(a, b, c)] = v.numerator

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """{(e_t, e_x, e_y, e_z): Fraction}, built afresh on each access."""
        from fractions import Fraction
        return {(a, n, b, c): Fraction(v, factorial(n))
                for n, sl in enumerate(self.slices) for (a, b, c), v in sl.items()}

    def coeff(self, e_t: int = 0, e_x: int = 0, e_y: int = 0, e_z: int = 0) -> Fraction:
        from fractions import Fraction
        if not 0 <= e_x <= self.order:
            return Fraction(0)
        return Fraction(self.slices[e_x].get((e_t, e_y, e_z), 0), factorial(e_x))

    def truncate(self, order: int) -> "MultiSeries":
        return self if order >= self.order else zero(order) + self

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return (self.order, self.slices) == (other.order, other.slices)

    __hash__ = None  # mutable dicts inside

    def __neg__(self) -> "MultiSeries":
        return _make(self.order, [_times(sl, -1) for sl in self.slices])

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
            return _make(self.order, [_times(sl, other) for sl in self.slices])
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
        return _make(len(slices) - 1, slices)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        terms = sorted(self.terms.items())
        head = ", ".join(f"{m}: {c}" for m, c in terms[:4])
        more = "" if len(terms) <= 4 else f", ... ({len(terms)} terms)"
        return f"MultiSeries(order={self.order}, {{{head}{more}}})"


def _make(order: int, slices: list[Slice]) -> MultiSeries:
    """Wrap integer slices as a series, dropping zeros."""
    s = MultiSeries.__new__(MultiSeries)
    s.order, s.slices = order, [{k: v for k, v in sl.items() if v} for sl in slices]
    return s


def _times(sl: Slice, f: int) -> Slice:
    return {k: v * f for k, v in sl.items()}


def _add_product(acc: Slice, scale: int, p: Slice, q: Slice) -> Slice:
    """acc += scale * p * q, with slices read as polynomials in t, y, z."""
    if len(p) > len(q):
        p, q = q, p
    get = acc.get
    for (a1, b1, c1), v1 in p.items():
        v1 *= scale
        for (a2, b2, c2), v2 in q.items():
            key = (a1 + a2, b1 + b2, c1 + c2)
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
    return _make(order, h)


def zero(order: int) -> MultiSeries:
    return MultiSeries(order)


def one(order: int) -> MultiSeries:
    return MultiSeries(order, {(0, 0, 0, 0): 1})


def monomial(order: int, coeff, e_t: int = 0, e_x: int = 0,
             e_y: int = 0, e_z: int = 0) -> MultiSeries:
    if min(e_t, e_x, e_y, e_z) < 0:
        raise ValueError("exponents must be nonnegative")
    return MultiSeries(order, {(e_t, e_x, e_y, e_z): coeff})


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
    if any(b or c for sl in u.slices for _, b, c in sl):
        raise ValueError("the composed series must be free of y and z")
    order = min(u.order, s.order)
    slices = []
    for n in range(order + 1):
        acc: Slice = {}
        for m in range(n, -1, -1):
            if acc:
                shifted = dict(acc)
                for (a, b, c), v in acc.items():
                    shifted[a, b + 1, c] = shifted.get((a, b + 1, c), 0) + v
                acc = shifted
            if s.slices[n - m] and u.slices[m]:
                _add_product(acc, comb(n, m), s.slices[n - m], u.slices[m])
        slices.append(acc)
    return _make(order, slices)


def geom_yz_lower(s: MultiSeries) -> MultiSeries:
    """s / (1 - yz) = sum_k (yz)^k s on the terms with e_y <= e_x: a term
    (e_t, e_y, e_z) = (a, b, c) of slice n adds to (a, b+k, c+k), k = 0..n-b."""
    slices = []
    for n, sl in enumerate(s.slices):
        acc: Slice = {}
        for (a, b, c), v in sl.items():
            for k in range(n - b + 1):
                acc[(a, b + k, c + k)] = acc.get((a, b + k, c + k), 0) + v
        slices.append(acc)
    return _make(s.order, slices)


def map_exponents(s: MultiSeries, fn: Callable[[Monomial], Monomial]) -> MultiSeries:
    """Rebuild s with every monomial remapped by fn, which must keep the
    x-degree; coefficients accumulate."""
    slices = []
    for n, sl in enumerate(s.slices):
        acc: Slice = {}
        for (a, b, c), v in sl.items():
            new = fn((a, n, b, c))
            if min(new) < 0 or new[1] != n:
                raise ValueError("exponent transform must keep e_x and give nonnegative "
                                 f"exponents: {(a, n, b, c)} -> {new}")
            key = (new[0], new[2], new[3])
            acc[key] = acc.get(key, 0) + v
        slices.append(acc)
    return _make(s.order, slices)


def select(s: MultiSeries, pred: Callable[[Monomial], bool]) -> MultiSeries:
    """Keep only the monomials satisfying pred."""
    return _make(s.order, [{k: v for k, v in sl.items() if pred((k[0], n, k[1], k[2]))}
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
    if any(m for sl in s.slices for _, _, m in sl):
        raise ValueError("y -> z rename needs a z-free series")
    return map_exponents(s, lambda m: (m[0], m[1], 0, m[2]))


def d_dx(s: MultiSeries) -> MultiSeries:
    """Formal partial derivative in x; the truncation order drops by one.
    x^n/n! differentiates to x^(n-1)/(n-1)!, so the slices shift down."""
    return _make(max(s.order - 1, 0), s.slices[1:] or [{}])


def d_dy(s: MultiSeries) -> MultiSeries:
    """Formal partial derivative in y."""
    return _make(s.order, [{(d, b - 1, c): v * b for (d, b, c), v in sl.items() if b}
                           for sl in s.slices])


def _count(s: MultiSeries, n: int, key: tuple[int, int, int], weight: tuple[int, ...],
           what: str) -> int:
    """The coefficient at x^n and key times the factorials in weight, an integer."""
    if n > s.order:
        raise ValueError(f"n = {n} is beyond the truncation order {s.order}")
    scale = factorial(n)
    value = s.slices[n].get(key, 0) * prod(map(factorial, weight))
    if value % scale:
        from fractions import Fraction
        raise ValueError(f"{what} is not an integer ({Fraction(value, scale)}); "
                         "series data is corrupt")
    return value // scale


def extract_egf(s: MultiSeries, n: int, d: int) -> int:
    """Count at t^d x^n under the exponential weight n!."""
    return _count(s, n, (d, 0, 0), (n,), f"count at (n={n}, d={d})")


def extract_first(s: MultiSeries, n: int, d: int, j: int) -> int:
    """Count at t^d x^n y^j under the first-letter weight (j-1)! (n-j)!."""
    if not 1 <= j <= n:
        raise ValueError(f"first-letter weight needs 1 <= j <= n, got j={j}, n={n}")
    return _count(s, n, (d, j, 0), (j - 1, n - j), f"count at (n={n}, d={d}, j={j})")


def extract_factor(s: MultiSeries, n: int, d: int, j: int) -> int:
    """Count at t^d x^n y^j under the factor weight (j-2)! (n-j-1)!."""
    if not 2 <= j <= n - 1:
        raise ValueError(f"factor weight needs 2 <= j <= n-1, got j={j}, n={n}")
    return _count(s, n, (d, j, 0), (j - 2, n - j - 1), f"count at (n={n}, d={d}, j={j})")


def extract_quad(s: MultiSeries, n: int, d: int, i: int, j: int) -> int:
    """Count at t^d x^n y^i z^j under the pair weight (j-i-1)! (n-j+i-2)!."""
    if not 1 <= i < j <= n - 1:
        raise ValueError(f"pair weight needs 1 <= i < j <= n-1, got i={i}, j={j}, n={n}")
    return _count(s, n, (d, i, j), (j - i - 1, n - j + i - 2),
                  f"count at (n={n}, d={d}, i={i}, j={j})")


def first_difference(a: MultiSeries, b: MultiSeries):
    """Lexicographically smallest monomial where a and b differ, up to the
    common truncation order; None when they agree."""
    diffs = [(k[0], n, k[1], k[2]) for n, (p, q) in enumerate(zip(a.slices, b.slices))
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
