"""Differential test of the exact kernel against sympy's dense polynomials.

Polynomials with large heights over QQ and over QQ_I are built once as
hyperode Polys and once as sympy Polys; every kernel operation must give
the same coefficients on both sides. sympy is a test-only dependency and
the module skips without it. The RatFunc operators are checked against
the kernel's own reducing constructor on their unreduced results, the
rational roots against the rational root theorem, and principal parts
against sympy's power-series inverse.
"""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from hyperode.errors import DegreeOverflow  # noqa: E402
from hyperode.exactalg import (  # noqa: E402
    DEGREE_CAP,
    GaussRat,
    Poly,
    RatFunc,
    factor_rational_roots,
    poly_gcd,
    principal_part,
)
from reference import rational_roots_reference  # noqa: E402

X = sympy.Symbol("x")

# heights far beyond a machine word, so bignum paths run
big_rationals = st.builds(
    F, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 15))
small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def coefficient_lists(gauss, min_size=1, max_size=6):
    imag = big_rationals if gauss else st.just(F(0))
    return st.lists(st.tuples(big_rationals, imag),
                    min_size=min_size, max_size=max_size)


fields = st.sampled_from([False, True])


def hyper(pairs):
    return Poly([GaussRat(r, i) if i else r for r, i in pairs])


def ref(pairs, gauss):
    domain = sympy.QQ_I if gauss else sympy.QQ
    exprs = [sympy.Rational(r.numerator, r.denominator)
             + sympy.I * sympy.Rational(i.numerator, i.denominator)
             for r, i in pairs]
    return sympy.Poly(list(reversed(exprs)) or [0], X, domain=domain)


def _fraction(q):
    return F(int(q.numerator), int(q.denominator))


def ref_pairs(sp):
    """Coefficients of a sympy Poly as (re, im) Fractions, low degree first."""
    out = []
    for c in reversed(sp.rep.to_list()):
        if hasattr(c, "y"):
            out.append((_fraction(c.x), _fraction(c.y)))
        else:
            out.append((_fraction(c), F(0)))
    while out and out[-1] == (0, 0):
        out.pop()
    return out


def hyper_pairs(p):
    return [(c.re, c.im) if isinstance(c, GaussRat) else (c, F(0))
            for c in p.coeffs]


def expr_pair(v):
    return (_fraction(sympy.re(v)), _fraction(sympy.im(v)))


def scalar_pair(c):
    return (c.re, c.im) if isinstance(c, GaussRat) else (F(c), F(0))


def nonzero(pairs):
    return any(r or i for r, i in pairs)


@settings(max_examples=60, deadline=None)
@given(fields, st.data())
def test_product(gauss, data):
    a = data.draw(coefficient_lists(gauss))
    b = data.draw(coefficient_lists(gauss))
    assert hyper_pairs(hyper(a) * hyper(b)) == \
        ref_pairs(ref(a, gauss) * ref(b, gauss))


@settings(max_examples=60, deadline=None)
@given(fields, st.data())
def test_divmod(gauss, data):
    a = data.draw(coefficient_lists(gauss, max_size=8))
    b = data.draw(coefficient_lists(gauss).filter(nonzero))
    q, r = divmod(hyper(a), hyper(b))
    sq, sr = sympy.div(ref(a, gauss), ref(b, gauss))
    assert hyper_pairs(q) == ref_pairs(sq)
    assert hyper_pairs(r) == ref_pairs(sr)


@settings(max_examples=60, deadline=None)
@given(fields, st.data())
def test_gcd_with_shared_factor(gauss, data):
    a = data.draw(coefficient_lists(gauss, max_size=4))
    b = data.draw(coefficient_lists(gauss, max_size=4))
    c = data.draw(coefficient_lists(gauss, max_size=3).filter(nonzero))
    pa, pb, pc = hyper(a), hyper(b), hyper(c)
    sa, sb, sc = ref(a, gauss), ref(b, gauss), ref(c, gauss)
    g = poly_gcd(pa * pc, pb * pc)
    sg = (sa * sc).gcd(sb * sc)
    assert hyper_pairs(g) == ref_pairs(sg.monic() if not sg.is_zero else sg)


@settings(max_examples=40, deadline=None)
@given(fields, st.data())
def test_compose_and_derivative(gauss, data):
    a = data.draw(coefficient_lists(gauss, max_size=5))
    b = data.draw(coefficient_lists(gauss, max_size=3))
    sa, sb = ref(a, gauss), ref(b, gauss)
    composed = RatFunc(hyper(a)).compose(hyper(b))
    assert composed.den == 1
    assert hyper_pairs(composed.num) == ref_pairs(sa.compose(sb))
    assert hyper_pairs(hyper(a).deriv()) == ref_pairs(sa.diff(X))


@settings(max_examples=60, deadline=None)
@given(fields, st.data())
def test_exact_eval(gauss, data):
    a = data.draw(coefficient_lists(gauss))
    v = data.draw(big_rationals)
    sv = sympy.Rational(v.numerator, v.denominator)
    assert scalar_pair(hyper(a)(v)) == expr_pair(ref(a, gauss).eval(sv))
    w = GaussRat(v, data.draw(small_rationals))
    w_im = scalar_pair(w)[1]
    sw = sv + sympy.I * sympy.Rational(w_im.numerator, w_im.denominator)
    assert scalar_pair(hyper(a)(w)) == \
        expr_pair(sympy.expand(ref(a, gauss).as_expr().subs(X, sw)))


@settings(max_examples=40, deadline=None)
@given(fields, st.data())
def test_ratfunc_normalization(gauss, data):
    a = data.draw(coefficient_lists(gauss, max_size=4).filter(nonzero))
    b = data.draw(coefficient_lists(gauss, max_size=4).filter(nonzero))
    c = data.draw(coefficient_lists(gauss, max_size=3).filter(nonzero))
    sa, sb, sc = ref(a, gauss), ref(b, gauss), ref(c, gauss)
    f = RatFunc(hyper(a) * hyper(c), hyper(b) * hyper(c))
    g = sa.gcd(sb)
    num, den = sympy.div(sa, g)[0], sympy.div(sb, g)[0]
    lc = den.LC()
    assert hyper_pairs(f.num) == ref_pairs(num.quo_ground(lc))
    assert hyper_pairs(f.den) == ref_pairs(den.quo_ground(lc))


@settings(max_examples=60, deadline=None)
@given(fields, st.data())
def test_equal_polys_from_different_routes_hash_equal(gauss, data):
    a = data.draw(coefficient_lists(gauss))
    b = data.draw(coefficient_lists(gauss).filter(nonzero))
    p = hyper(a)
    via_division = (p * hyper(b)) // hyper(b)
    via_sum = (p + hyper(b)) - hyper(b)
    # the same values spelled as GaussRat with a zero imaginary part
    via_gauss = Poly([GaussRat(*scalar_pair(c)) for c in p.coeffs])
    for q in (via_division, via_sum, via_gauss):
        assert q == p
        assert hash(q) == hash(p)


@given(coefficient_lists(False), coefficient_lists(False))
def test_rational_coefficients_are_fractions(a, b):
    # perfbench/workloads.py reads Poly.coeffs as Fractions
    p = hyper(a) * hyper(b)
    assert all(type(c) is F for c in p.coeffs)
    assert list(p.coeffs) == [r for r, _ in
                              ref_pairs(ref(a, False) * ref(b, False))]


@settings(max_examples=60, deadline=None)
@given(fields, st.integers(0, 4), st.data())
def test_principal_part(gauss, order, data):
    """A pole of planted order m at a rational or Gaussian point r.

    With f = num / ((x - r)^m rest), the coefficients c_-m .. c_-1 are
    those of num(r + t) / rest(r + t) mod t^m, from sympy's shift and its
    inverse modulo t^m.
    """
    r = data.draw(small_rationals)
    if gauss:
        r = GaussRat(r, data.draw(small_rationals.filter(bool)))
    num = data.draw(coefficient_lists(gauss, max_size=3))
    rest = data.draw(coefficient_lists(gauss, max_size=3))
    assume(hyper(num).eval(r) and hyper(rest).eval(r))
    f = RatFunc(hyper(num), hyper(rest) * Poly((-r, 1)) ** order)
    re, im = scalar_pair(r)
    sr = sympy.Rational(re.numerator, re.denominator) \
        + sympy.I * sympy.Rational(im.numerator, im.denominator)
    mod = sympy.Poly(X ** order, X, domain=sympy.QQ_I)
    shifted_num = ref(num, True).shift(sr)
    shifted_rest = ref(rest, True).shift(sr)
    want = ref_pairs((shifted_num * sympy.invert(shifted_rest, mod))
                     .rem(mod)) if order else []
    want += [(F(0), F(0))] * (order - len(want))
    assert [scalar_pair(c) for c in principal_part(f, r)] == want


def test_degree_overflow_at_the_cap():
    x = Poly.x()
    cap = DEGREE_CAP.get()
    top = Poly.from_pairs([(cap, F(1))])
    half = x ** (cap // 2)
    assert half * half == top
    assert x.substitute_power(cap) == top
    with pytest.raises(DegreeOverflow):
        top * x
    with pytest.raises(DegreeOverflow):
        x.substitute_power(cap + 1)
    with pytest.raises(DegreeOverflow):
        Poly.from_pairs([(cap + 1, F(1))])


# ---------------------------------------------------------------------------
# RatFunc operators against the reducing constructor: each operator reduces
# by Henrici's rules or proves the gcd unneeded, so its result must equal,
# field by field, RatFunc(num, den) on the unreduced num and den.

medium_rationals = st.builds(
    F, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4))


def small_polys(gauss, min_size=1, max_size=3):
    imag = (st.one_of(st.just(F(0)), medium_rationals) if gauss
            else st.just(F(0)))
    parts = st.tuples(medium_rationals, imag)
    return st.lists(parts, min_size=min_size, max_size=max_size).map(hyper)


def nonzero_poly(p):
    return not p.is_zero


@st.composite
def related_ratfuncs(draw, gauss, count):
    """Reduced RatFuncs whose parts share planted factors.

    Each operand is zero, a constant, or r*s^i*t^j / (u*s^k*t^l) over two
    factors s, t common to all operands, so numerators meet denominators
    and denominators meet each other.
    """
    shared = [draw(small_polys(gauss, min_size=2))
              for _ in range(2)]
    out = []
    for _ in range(count):
        kind = draw(st.sampled_from(("zero", "const", "ratio", "ratio",
                                     "ratio", "ratio")))
        if kind == "zero":
            out.append(RatFunc(Poly()))
            continue
        num = draw(small_polys(gauss, max_size=1 if kind == "const" else 3)
                   .filter(nonzero_poly))
        if kind == "const":
            out.append(RatFunc(num))
            continue
        den = draw(small_polys(gauss).filter(nonzero_poly))
        for s in shared:
            if not s.is_zero:
                num = num * s ** draw(st.integers(0, 1))
                den = den * s ** draw(st.integers(0, 2))
        out.append(RatFunc(num, den))
    return out


def arguments(gauss):
    """Small reduced arguments for compose, constants included."""
    return st.builds(RatFunc, small_polys(gauss),
                     small_polys(gauss).filter(nonzero_poly))


def homogenized(p, n, m, d):
    """sum of p_e * n^e * m^(d-e): the numerator or denominator of a compose."""
    out = Poly()
    for e, c in enumerate(p.coeffs):
        out = out + n ** e * m ** (d - e) * c
    return out


def _compose(f, g, k, e):
    d = max(f.num.degree, f.den.degree, 0)
    return (lambda: f.compose(g), homogenized(f.num, g.num, g.den, d),
            homogenized(f.den, g.num, g.den, d))


def _power(f, g, k, e):
    if e < 0:
        assume(not f.is_zero)
        return lambda: f ** e, f.den ** -e, f.num ** -e
    return lambda: f ** e, f.num ** e, f.den ** e


def _divide(f, g, k, e):
    assume(not g.is_zero)
    return lambda: f / g, f.num * g.den, f.den * g.num


def _compress(f, g, k, e):
    # a value with support in k*Z, reduced by the constructor
    h = RatFunc(f.num.substitute_power(k), f.den.substitute_power(k))
    return (lambda: h.compress_power(k), h.num.compress_power(k),
            h.den.compress_power(k))


# name -> (f, g, k, e) -> (operator call, unreduced num, unreduced den)
SHORTCUTS = {
    "add": lambda f, g, k, e: (lambda: f + g, f.num * g.den + g.num * f.den,
                               f.den * g.den),
    "sub": lambda f, g, k, e: (lambda: f - g, f.num * g.den - g.num * f.den,
                               f.den * g.den),
    "mul": lambda f, g, k, e: (lambda: f * g, f.num * g.num, f.den * g.den),
    "div": _divide,
    "deriv": lambda f, g, k, e: (
        f.deriv, f.num.deriv() * f.den - f.num * f.den.deriv(),
        f.den * f.den),
    "pow": _power,
    "neg": lambda f, g, k, e: (lambda: -f, -f.num, f.den),
    "compose": _compose,
    "substitute_power": lambda f, g, k, e: (
        lambda: f.substitute_power(k), f.num.substitute_power(k),
        f.den.substitute_power(k)),
    "compress_power": _compress,
}


def ratfunc_fields(f):
    return (f.num.re, f.num.im, f.num.den, f.den.re, f.den.im, f.den.den)


@pytest.mark.parametrize("op", sorted(SHORTCUTS))
@settings(max_examples=50, deadline=None)
@given(fields, st.data())
def test_operator_equals_the_reducing_constructor(op, gauss, data):
    f, g, h = data.draw(related_ratfuncs(gauss, 3))
    if op in ("add", "sub") and data.draw(st.booleans()):
        # g = h - f (or f - h), so the sum cancels back to h: a factor of
        # gcd(f.den, g.den) divides the new numerator
        t = h.num * f.den - f.num * h.den
        g = RatFunc(t if op == "add" else -t, h.den * f.den)
    if op == "compose":
        # keeps the composed degree within the degree cap
        g = data.draw(arguments(gauss))
    k = data.draw(st.integers(1, 3))
    e = data.draw(st.integers(-2, 2))
    call, num, den = SHORTCUTS[op](f, g, k, e)
    if den.is_zero:
        with pytest.raises(ZeroDivisionError):
            call()
        return
    assert ratfunc_fields(call()) == ratfunc_fields(RatFunc(num, den))


def test_compose_at_a_pole_raises():
    x = RatFunc(Poly.x())
    i = GaussRat(0, 1)
    with pytest.raises(ZeroDivisionError):
        (1 / (x - 2)).compose(2)
    with pytest.raises(ZeroDivisionError):
        ((x + 1) / (x ** 2 + 1)).compose(RatFunc.const(i))
    assert ((x + 1) / (x ** 2 + 1)).compose(2) == F(3, 5)


# ---------------------------------------------------------------------------
# Rational roots against the rational root theorem. Heights stay small so
# that the reference's candidates, all ratios of divisors, stay few.

# monic factors without a rational root, low degree first
ROOTLESS = ((1,), (-2, 0, 1), (3, 1, 1), (-5, 0, 0, 1), (1, 0, 0, 0, 1))
root_values = st.fractions(min_value=-6, max_value=6, max_denominator=3)
nonzero_parts = st.integers(-4, 4).filter(bool)


@st.composite
def planted_root_polys(draw, gauss):
    """unit * prod (x - r)^m * cofactor, with Gaussian roots when gauss."""
    x = Poly.x()
    unit = F(draw(nonzero_parts), draw(st.integers(1, 3)))
    if gauss:
        unit = GaussRat(unit, draw(st.integers(-3, 3)))
    p = Poly.const(unit) * Poly(draw(st.sampled_from(ROOTLESS)))
    for _ in range(draw(st.integers(0, 3))):
        p = p * (x - draw(root_values)) ** draw(st.integers(1, 3))
    for _ in range(draw(st.integers(0, 2)) if gauss else 0):
        z = GaussRat(draw(root_values), draw(nonzero_parts))
        p = p * (x - z) ** draw(st.integers(1, 2))
    return p


@settings(max_examples=100, deadline=None)
@given(fields.flatmap(planted_root_polys))
def test_rational_roots_equal_the_rational_root_theorem(p):
    assert factor_rational_roots(p) == rational_roots_reference(p)
