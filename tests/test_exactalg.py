"""Exact arithmetic layer: scalars, polynomials, rational functions."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperode.errors import DegreeOverflow
from hyperode.exactalg import (
    GaussRat,
    GenRatFunc,
    Poly,
    RatFunc,
    degree_cap,
    divisors,
    factor_rational_roots,
    factorize,
    gauss_sqrt,
    integrate_ratfunc,
    laurent_coefficients,
    pole_order,
    poly_gcd,
    rational_sqrt,
    residue_at,
    set_degree_cap,
    split_quadratic_gauss,
    squarefree_decomposition,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def poly_of(coeffs):
    return Poly(tuple(F(c) for c in coeffs))


class TestGaussRat:
    def test_field_axioms_sample(self):
        z = GaussRat(F(1, 2), F(-3))
        w = GaussRat(2, F(1, 3))
        assert (z + w) - w == z
        assert (z * w) / w == z
        assert z * (1 / z) == 1
        assert (z + w) * (z - w) == z * z - w * w

    def test_interop_with_fraction(self):
        z = GaussRat(1, 1)
        assert F(1, 2) + z == GaussRat(F(3, 2), 1)
        assert F(2) / z == GaussRat(1, -1)
        assert 3 * z == GaussRat(3, 3)
        assert z - 1 == GaussRat(0, 1)
        assert GaussRat(F(5, 7), 0) == F(5, 7)
        assert hash(GaussRat(F(5, 7), 0)) == hash(F(5, 7))

    def test_pow(self):
        i = GaussRat(0, 1)
        assert i ** 2 == -1
        assert i ** -1 == -i
        assert (1 + i) ** 2 == 2 * i

    @given(st.tuples(small_rationals, small_rationals).filter(
        lambda p: p[0] != 0 or p[1] != 0))
    def test_norm_multiplicative(self, parts):
        z = GaussRat(*parts)
        w = GaussRat(2, -3)
        assert (z * w).norm() == z.norm() * w.norm()


class TestPoly:
    def test_strip_and_degree(self):
        assert poly_of([1, 2, 0, 0]).degree == 1
        assert Poly().degree == -1
        assert Poly().is_zero

    def test_divmod_roundtrip(self):
        a = poly_of([3, -2, 0, 1, 4])
        b = poly_of([1, 1, 2])
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree

    def test_eval_matches_horner_by_hand(self):
        p = poly_of([5, -1, 2])
        assert p(F(3)) == 5 - 3 + 18
        assert p(GaussRat(0, 1)) == GaussRat(3, -1)

    def test_compose(self):
        p = poly_of([-1, 0, 1])  # x^2 - 1
        q = poly_of([1, 1])      # x + 1
        assert p.compose(q) == poly_of([0, 2, 1])

    def test_derivative_finite_difference_oracle(self):
        p = poly_of([F(1, 3), -2, 0, F(5, 7), 1])
        d = p.deriv()
        h = 1e-7
        for v in (0.3, 1.2, -0.8):
            approx = (p.eval(v + h) - p.eval(v - h)) / (2 * h)
            assert abs(float(d.eval(v)) - approx) < 1e-5

    def test_taylor_at(self):
        # (x-2)^3 + 5(x-2) + 7 expanded around 2
        base = poly_of([-2, 1])
        p = base ** 3 + 5 * base + Poly.const(7)
        assert p.taylor_at(F(2), 4) == [F(7), F(5), F(0), F(1)]

    def test_power_spreading(self):
        p = poly_of([1, 2, 3])
        s = p.substitute_power(3)
        assert s.coeffs == (F(1), F(0), F(0), F(2), F(0), F(0), F(3))
        assert s.compress_power(3) == p
        assert s.exponent_gcd() == 3

    def test_degree_cap(self):
        old = degree_cap()
        try:
            set_degree_cap(8)
            with pytest.raises(DegreeOverflow):
                poly_of([0, 1]) ** 9
        finally:
            set_degree_cap(old)

    @given(st.lists(small_rationals, min_size=1, max_size=5),
           st.lists(small_rationals, min_size=1, max_size=5))
    def test_mul_commutes_with_eval(self, ca, cb):
        a, b = Poly(ca), Poly(cb)
        v = F(3, 2)
        assert (a * b)(v) == a(v) * b(v)

    @given(st.lists(st.fractions(min_value=-6, max_value=6,
                                 max_denominator=4),
                    min_size=1, max_size=4))
    def test_roots_reconstruct(self, roots):
        p = Poly.const(F(1))
        for r in roots:
            p = p * Poly((-r, F(1)))
        _, found, rem = factor_rational_roots(p)
        assert rem.degree == 0 or rem == Poly.const(F(1))
        rebuilt = []
        for r, m in found.items():
            rebuilt.extend([r] * m)
        assert sorted(rebuilt) == sorted(roots)


class TestGcdAndFactoring:
    def test_gcd_known(self):
        a = poly_of([-1, 0, 1])       # (x-1)(x+1)
        b = poly_of([1, 2, 1])        # (x+1)^2
        assert poly_gcd(a, b) == poly_of([1, 1])

    def test_gcd_coprime(self):
        assert poly_gcd(poly_of([1, 1]), poly_of([3, 1])).degree == 0

    @given(st.lists(small_rationals, min_size=1, max_size=4),
           st.lists(small_rationals, min_size=1, max_size=4),
           st.lists(small_rationals, min_size=1, max_size=3))
    @settings(max_examples=50)
    def test_gcd_divides_products(self, ca, cb, cg):
        a, b, g = Poly(ca), Poly(cb), Poly(cg)
        if a.is_zero or b.is_zero or g.is_zero:
            return
        d = poly_gcd(a * g, b * g)
        assert (a * g) % d == Poly()
        assert (b * g) % d == Poly()
        if g.degree > 0:
            assert d % g.monic() == Poly()

    def test_linear_unit_and_root(self):
        unit, roots, rem = factor_rational_roots(poly_of([-3, 6]))
        assert unit == 6
        assert roots == {F(1, 2): 1}
        assert rem == Poly.const(F(1))

    def test_worked_denominator(self):
        # 4 t^2 (t-1)^2 (t+1)^2
        t = Poly.x()
        p = 4 * t ** 2 * (t - 1) ** 2 * (t + 1) ** 2
        unit, roots, rem = factor_rational_roots(p)
        assert unit == 4
        assert roots == {F(0): 2, F(1): 2, F(-1): 2}
        assert rem == Poly.const(F(1))

    def test_gaussian_quadratic_split(self):
        unit, roots, rem = factor_rational_roots(poly_of([1, 0, 1]))
        assert (unit, roots) == (1, {})
        assert set(split_quadratic_gauss(rem)) == {GaussRat(0, 1),
                                                   GaussRat(0, -1)}

    def test_irrational_block_preserved(self):
        unit, roots, rem = factor_rational_roots(poly_of([-2, 0, 1]))
        assert roots == {}
        assert rem == poly_of([-2, 0, 1])
        assert split_quadratic_gauss(rem) is None

    def test_squarefree_decomposition(self):
        x = Poly.x()
        p = (x - 2) * (x ** 2 + 1) ** 3 * (x + 5) ** 2
        parts = squarefree_decomposition(p)
        rebuilt = Poly.const(F(1))
        for f, m in parts:
            rebuilt = rebuilt * f ** m
        assert rebuilt == p.monic()
        assert sorted(m for _, m in parts) == [1, 2, 3]

    def test_factorize_and_divisors(self):
        assert factorize(360) == {2: 3, 3: 2, 5: 1}
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        # a product of two four-digit primes goes through the rho path
        n = 7919 * 9973
        assert factorize(n) == {7919: 1, 9973: 1}

    def test_rational_sqrt(self):
        assert rational_sqrt(F(9, 4)) == F(3, 2)
        assert rational_sqrt(F(2)) is None
        assert gauss_sqrt(F(-9, 4)) == GaussRat(0, F(3, 2))
        assert gauss_sqrt(GaussRat(3, 4)) == GaussRat(2, 1)
        assert gauss_sqrt(GaussRat(1, 1)) is None

    @given(st.tuples(small_rationals, small_rationals).filter(
        lambda p: p[0] != 0 or p[1] != 0))
    def test_gauss_sqrt_roundtrip(self, parts):
        w = GaussRat(*parts)
        r = gauss_sqrt(w * w)
        assert r is not None
        assert r == w or r == -w


class TestRatFunc:
    def test_reduction(self):
        f = RatFunc(poly_of([0, 2]), poly_of([0, 0, 4]))
        assert f.num == Poly.const(F(1, 2))
        assert f.den == poly_of([0, 1])

    def test_monic_denominator(self):
        f = RatFunc(poly_of([1]), poly_of([2, 4]))
        assert f.den.lc == 1
        assert f(F(1)) == F(1, 6)

    def test_arith(self):
        x = RatFunc.x()
        f = 1 / (x - 1) + 1 / (x + 1)
        assert f == 2 * x / (x * x - 1)
        assert (f / f) == RatFunc.const(1)

    def test_compose_power(self):
        x = RatFunc.x()
        f = 1 / (x - 1)
        g = f.compose(RatFunc(Poly.from_pairs([(3, F(1))])))
        assert g == 1 / (x ** 3 - 1)

    def test_compose_mobius_roundtrip(self):
        x = RatFunc.x()
        f = (x ** 2 + 3) / (x - 5)
        m = (2 * x + 1) / (x - 1)
        minv = (x + 1) / (x - 2)
        assert m.compose(minv) == x
        assert f.compose(m).compose(minv) == f

    def test_deriv_quotient_rule(self):
        x = RatFunc.x()
        f = (x ** 2 - 1) / (x ** 3 + 2)
        d = f.deriv()
        h = 1e-7
        for v in (0.4, 1.7):
            approx = (f.eval(v + h) - f.eval(v - h)) / (2 * h)
            assert abs(float(d.eval(v)) - approx) < 1e-4

    @given(st.lists(small_rationals, min_size=1, max_size=4),
           st.lists(small_rationals, min_size=2, max_size=4),
           st.lists(small_rationals, min_size=2, max_size=3))
    @settings(max_examples=60)
    def test_cancel_common_factor(self, cn, cd, cg):
        n, d, g = Poly(cn), Poly(cd), Poly(cg)
        if n.is_zero or d.is_zero or g.is_zero:
            return
        assert RatFunc(n * g, d * g) == RatFunc(n, d)

    def test_pole_order_and_residue(self):
        x = RatFunc.x()
        f = 3 / (x - 2) ** 2 + 5 / (x - 2) + x + 1
        assert pole_order(f, F(2)) == 2
        assert laurent_coefficients(f, F(2), 2, 2) == [F(3), F(5)]
        assert residue_at(f, F(2)) == 5
        assert pole_order(f, F(0)) == 0

    def test_laurent_at_gaussian_point(self):
        x = RatFunc.x()
        i = GaussRat(0, 1)
        f = 1 / (x ** 2 + 1)
        assert residue_at(f, i) == GaussRat(0, F(-1, 2))

    def test_laurent_regular_expansion(self):
        x = RatFunc.x()
        f = 1 / (1 - x)
        assert laurent_coefficients(f, F(0), 0, 4) == [F(1)] * 4


class TestGenRatFunc:
    def test_sqrt_x_derivative(self):
        g = GenRatFunc.x_power(1, 2)
        d = g.deriv()
        # (1/2) x^(-1/2): carrier 2, value 1/(2 sigma)
        assert d.carrier == 2
        assert d.fn == RatFunc(Poly.const(F(1, 2)), Poly.from_pairs([(1, F(1))]))

    def test_carrier_alignment(self):
        a = GenRatFunc.x_power(1, 2)
        b = GenRatFunc.x_power(1, 3)
        s = a * b  # x^(5/6)
        assert s.carrier == 6
        assert s.fn == RatFunc(Poly.from_pairs([(5, F(1))]))

    def test_reduce_carrier(self):
        a = GenRatFunc.x_power(1, 2)
        sq = a * a
        assert sq.carrier == 1
        assert sq.as_ratfunc() == RatFunc.x()

    def test_integer_carrier_matches_ratfunc(self):
        x = GenRatFunc(RatFunc.x(), 1)
        expr = (x ** 2 - 1) / (x + 3)
        direct = (RatFunc.x() ** 2 - 1) / (RatFunc.x() + 3)
        assert expr.as_ratfunc() == direct


def _integral_derivative(result):
    """Differentiate an IntegrationResult back to a rational function."""
    back = RatFunc(result.polynomial_part.deriv()) + \
        result.rational_part.deriv()
    for g, c in result.logarithms:
        back = back + RatFunc(g.deriv() * c, g)
    return back


class TestIntegrateRatfunc:
    def test_pure_polynomial(self):
        r = integrate_ratfunc(RatFunc(poly_of([1, 0, 3])))
        assert r.exact
        assert r.polynomial_part == poly_of([0, 1, 0, 1])
        assert r.rational_part.is_zero
        assert r.logarithms == ()

    def test_single_log(self):
        r = integrate_ratfunc(RatFunc(poly_of([1]), poly_of([0, 1])))
        assert r.exact
        assert r.logarithms == ((poly_of([0, 1]), F(1)),)

    def test_double_pole_has_no_log(self):
        r = integrate_ratfunc(RatFunc(Poly.const(F(1)), poly_of([0, 0, 1])))
        assert r.exact
        assert r.logarithms == ()
        assert r.rational_part == RatFunc(poly_of([-1]), poly_of([0, 1]))

    def test_high_multiplicity(self):
        den = poly_of([0, 0, 1]) * poly_of([-1, 1]) ** 3
        f = RatFunc(Poly.const(F(1)), den)
        r = integrate_ratfunc(f)
        assert r.exact
        assert _integral_derivative(r) == f

    def test_merged_quadratic_block(self):
        # equal residues at +-i stay merged as a single log of x^2 + 1
        f = RatFunc(poly_of([0, 1]), poly_of([1, 0, 1]))
        r = integrate_ratfunc(f)
        assert r.exact
        assert r.logarithms == ((poly_of([1, 0, 1]), F(1, 2)),)

    def test_gaussian_split_of_quadratic(self):
        # residues at +-i differ, so the block splits over Q(i)
        f = RatFunc(Poly.const(F(1)), poly_of([1, 0, 1]))
        r = integrate_ratfunc(f)
        assert r.exact
        assert len(r.logarithms) == 2
        assert _integral_derivative(r) == f

    def test_irrational_residues_flagged(self):
        f = RatFunc(Poly.const(F(1)), poly_of([-2, 0, 1]))
        r = integrate_ratfunc(f)
        assert not r.exact

    def test_merged_real_irrational_block(self):
        # x/(x^2 - 2): residues agree, so no splitting is needed
        f = RatFunc(poly_of([0, 1]), poly_of([-2, 0, 1]))
        r = integrate_ratfunc(f)
        assert r.exact
        assert r.logarithms == ((poly_of([-2, 0, 1]), F(1, 2)),)

    def test_quartic_block_merged(self):
        f = RatFunc(poly_of([0, 0, 0, 1]), poly_of([-2, 0, 0, 0, 1]))
        r = integrate_ratfunc(f)
        assert r.exact
        assert r.logarithms == ((poly_of([-2, 0, 0, 0, 1]), F(1, 4)),)

    @given(st.lists(st.tuples(small_rationals,
                              st.integers(min_value=1, max_value=3)),
                    min_size=1, max_size=3, unique_by=lambda t: t[0]),
           st.lists(small_rationals, min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_derivative_inverts_integration(self, poles, num_coeffs):
        den = Poly.const(F(1))
        for root, mult in poles:
            den = den * Poly((-root, F(1))) ** mult
        f = RatFunc(Poly(tuple(num_coeffs)), den)
        r = integrate_ratfunc(f)
        assert r.exact
        assert _integral_derivative(r) == f
