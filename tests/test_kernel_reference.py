"""Differential test of the exact kernel against sympy's dense polynomials.

Polynomials with large heights over QQ and over QQ_I are built once as
hyperode Polys and once as sympy Polys; every kernel operation must give
the same coefficients on both sides. sympy is a test-only dependency and
the module skips without it.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from hyperode.errors import DegreeOverflow  # noqa: E402
from hyperode.exactalg import (  # noqa: E402
    GaussRat,
    Poly,
    RatFunc,
    degree_cap,
    poly_gcd,
)

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
    assert hyper_pairs(hyper(a).compose(hyper(b))) == \
        ref_pairs(sa.compose(sb))
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


def test_degree_overflow_at_the_cap():
    x = Poly.x()
    top = Poly.from_pairs([(degree_cap(), F(1))])
    half = x ** (degree_cap() // 2)
    assert half * half == top
    assert x.substitute_power(degree_cap()) == top
    with pytest.raises(DegreeOverflow):
        top * x
    with pytest.raises(DegreeOverflow):
        x.substitute_power(degree_cap() + 1)
    with pytest.raises(DegreeOverflow):
        Poly.from_pairs([(degree_cap() + 1, F(1))])
