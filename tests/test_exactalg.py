"""Exact arithmetic layer: scalars, polynomials, rational functions."""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from math import gcd, isqrt, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperode.errors import CoefficientOverflow, DegreeOverflow
from hyperode.exactalg import (
    COEFF_BITS,
    DEGREE_CAP,
    GaussRat,
    GenRatFunc,
    Poly,
    RatFunc,
    _lifted_roots,
    factor_rational_roots,
    gauss_sqrt,
    integrate_ratfunc,
    poly_gcd,
    principal_part,
    rational_sqrt,
    split_quadratic_gauss,
    squarefree_decomposition,
)

from reference import ratfunc_at

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def poly_of(coeffs):
    return Poly(tuple(F(c) for c in coeffs))


def norm(c):
    """|c|^2 of an exact scalar, real (a Fraction) or Gaussian."""
    if isinstance(c, GaussRat):
        return c.re * c.re + c.im * c.im
    return c * c


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
        assert i ** 10 ** 1000 == 1

    def test_pow_stops_at_the_coefficient_cap(self):
        # a unit of norm 1 that is no root of unity: its powers grow
        # without bound, so the cap must refuse an early intermediate
        code = ("import time\n"
                "from fractions import Fraction as F\n"
                "from hyperode.errors import CoefficientOverflow\n"
                "from hyperode.exactalg import GaussRat\n"
                "start = time.perf_counter()\n"
                "try:\n"
                "    GaussRat(F(3, 5), F(4, 5)) ** 10 ** 12\n"
                "except CoefficientOverflow:\n"
                "    print(time.perf_counter() - start)\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert float(run.stdout) < 1.0

    @given(st.tuples(small_rationals, small_rationals).filter(
        lambda p: p[0] != 0 or p[1] != 0))
    def test_norm_multiplicative(self, parts):
        z = GaussRat(*parts)
        w = GaussRat(2, -3)
        assert norm(z * w) == norm(z) * norm(w)


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

    def test_complex_coeffs_read_the_scalars(self):
        for p in (Poly([F(1, 3), -2, 0, F(7, 6)]),
                  Poly([GaussRat(F(1, 2), -3), 0, F(5, 7)])):
            assert p.complex_coeffs() == [complex(c) for c in p.coeffs]
        assert Poly().complex_coeffs() == []
        with pytest.raises(OverflowError):
            Poly([10 ** 400, 1]).complex_coeffs()

    @given(st.lists(st.tuples(st.integers(0, 6), rationals), min_size=1,
                    max_size=8), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_from_pairs_sums_repeated_exponents(self, pairs, gaussian):
        if gaussian:
            pairs = pairs + [(0, GaussRat(F(1, 3), 2))]
        cs = [0] * (max(e for e, _ in pairs) + 1)
        for e, c in pairs:
            cs[e] += c
        assert Poly.from_pairs(pairs) == Poly(cs)

    def test_compose(self):
        p = poly_of([-1, 0, 1])  # x^2 - 1
        q = poly_of([1, 1])      # x + 1
        assert RatFunc(p).compose(q) == RatFunc(poly_of([0, 2, 1]))

    def test_derivative_finite_difference_oracle(self):
        p = poly_of([F(1, 3), -2, 0, F(5, 7), 1])
        d = p.deriv()
        h = F(1, 10 ** 6)
        for v in (F(3, 10), F(6, 5), F(-4, 5)):
            approx = (p.eval(v + h) - p.eval(v - h)) / (2 * h)
            assert abs(d.eval(v) - approx) < F(1, 10 ** 9)

    def test_eval_refuses_a_float(self):
        with pytest.raises(TypeError):
            poly_of([1, 1]).eval(0.5)

    def test_taylor_at(self):
        # (x-2)^3 + 5(x-2) + 7 expanded around 2
        base = poly_of([-2, 1])
        p = base ** 3 + 5 * base + Poly.const(7)
        assert p.taylor_at(F(2), 4) == [F(7), F(5), F(0), F(1)]

    @given(st.lists(st.tuples(small_rationals, small_rationals), max_size=7),
           small_rationals, small_rationals, st.booleans(),
           st.integers(0, 9))
    @settings(max_examples=80)
    def test_taylor_at_matches_the_scalar_loop(self, pairs, rr, ri, gauss,
                                               count):
        p = Poly([GaussRat(a, b) if gauss else a for a, b in pairs])
        r = GaussRat(rr, ri) if gauss else rr
        # the Taylor shift by synthetic division on exact scalars
        rem = list(p.coeffs)
        expected = []
        for _ in range(count):
            if not rem:
                expected.append(F(0))
                continue
            acc = rem[-1]
            new = [acc]
            for c in reversed(rem[:-1]):
                acc = acc * r + c
                new.append(acc)
            new.reverse()
            expected.append(new[0])
            rem = new[1:]
        got = p.taylor_at(r, count)
        assert got == expected
        assert [type(c) for c in got] == [type(c) for c in expected]

    def test_power_spreading(self):
        p = poly_of([1, 2, 3])
        s = p.substitute_power(3)
        assert s.coeffs == (F(1), F(0), F(0), F(2), F(0), F(0), F(3))
        assert s.compress_power(3) == p
        assert s.exponent_gcd() == 3

    def test_degree_cap(self):
        token = DEGREE_CAP.set(8)
        try:
            with pytest.raises(DegreeOverflow):
                poly_of([0, 1]) ** 9
        finally:
            DEGREE_CAP.reset(token)

    def test_power_builds_nothing_past_its_result(self):
        token = DEGREE_CAP.set(8)
        try:
            assert poly_of([0, 1]) ** 8 == Poly.from_pairs([(8, F(1))])
        finally:
            DEGREE_CAP.reset(token)
        assert Poly.const(2) ** (COEFF_BITS - 1) == \
            Poly.const(2 ** (COEFF_BITS - 1))
        assert GaussRat(1, 1) ** 3 == GaussRat(-2, 2)

    def test_coefficient_cap(self):
        top = 2 ** COEFF_BITS
        assert Poly.const(top - 1).coeffs == (F(top - 1),)
        assert Poly.const(F(1, top - 1)).lc == F(1, top - 1)
        for c in (top, F(1, top), GaussRat(1, -top)):
            with pytest.raises(CoefficientOverflow):
                Poly.const(c)
        half = Poly((F(2 ** (COEFF_BITS // 2)), F(1)))
        with pytest.raises(CoefficientOverflow):
            half * half

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

    def test_gauss_gcd_of_large_products_in_bounded_time(self):
        # degree-12 products over Q(i) sharing a quadratic factor, with
        # numerators up to 10^6 and denominators up to 10^4
        rng = random.Random(1)

        def draw(degree):
            return Poly([GaussRat(F(rng.randint(-10 ** 6, 10 ** 6),
                                    rng.randint(1, 10 ** 4)),
                                  F(rng.randint(-10 ** 6, 10 ** 6),
                                    rng.randint(1, 10 ** 4)))
                         for _ in range(degree + 1)])

        shared = draw(2)
        a, b = draw(10) * shared, draw(10) * shared
        start = time.perf_counter()
        g = poly_gcd(a, b)
        assert time.perf_counter() - start < 1.0
        assert g == shared.monic()

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

    def test_root_beyond_any_trial_division(self):
        # both the numerator and the denominator of the root are large
        n = 10 ** 20 + 39
        x = Poly.x()
        unit, roots, rem = factor_rational_roots(x ** 3 - F(8 * n ** 3, 27))
        assert unit == 1
        assert roots == {F(2 * n, 3): 1}
        assert rem == x ** 2 + F(2 * n, 3) * x + F(4 * n * n, 9)

    def test_no_candidate_past_cauchys_bound(self):
        # 0 is a double root of x^63 + x^2 + q modulo each odd prime up to
        # 2879, so the lifting runs at a prime past 2879 and its residues
        # lift to candidates of about 8000 bits; the polynomial is monic,
        # so every rational root r has |r| <= 1 + q
        q = prod(p for p in range(3, 2880, 2)
                 if all(p % d for d in range(3, isqrt(p) + 1, 2)))
        f = Poly.from_pairs([(63, F(1)), (2, F(1)), (0, F(q))])
        assert all(abs(r) <= 1 + q for r in _lifted_roots(f))

    def test_gaussian_polynomial_whose_real_part_vanishes_at_zero(self):
        # (x - i)(x - 2) = x^2 - (2 + i) x + 2i: the real part x^2 - 2x
        # has constant 0 although the polynomial's constant is 2i
        x = Poly.x()
        i = GaussRat(0, 1)
        unit, roots, rem = factor_rational_roots((x - i) * (x - 2))
        assert unit == 1
        assert roots == {F(2): 1}
        assert rem == x - i

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
        assert ratfunc_at(f, F(1)) == F(1, 6)

    def test_arith(self):
        x = RatFunc(Poly.x())
        f = 1 / (x - 1) + 1 / (x + 1)
        assert f == 2 * x / (x * x - 1)
        assert (f / f) == RatFunc.const(1)

    def test_compose_power(self):
        x = RatFunc(Poly.x())
        f = 1 / (x - 1)
        g = f.compose(RatFunc(Poly.from_pairs([(3, F(1))])))
        assert g == 1 / (x ** 3 - 1)

    def test_compose_mobius_roundtrip(self):
        x = RatFunc(Poly.x())
        f = (x ** 2 + 3) / (x - 5)
        m = (2 * x + 1) / (x - 1)
        minv = (x + 1) / (x - 2)
        assert m.compose(minv) == x
        assert f.compose(m).compose(minv) == f

    def test_deriv_quotient_rule(self):
        x = RatFunc(Poly.x())
        f = (x ** 2 - 1) / (x ** 3 + 2)
        d = f.deriv()
        h = F(1, 10 ** 6)
        for v in (F(2, 5), F(17, 10)):
            approx = (ratfunc_at(f, v + h) - ratfunc_at(f, v - h)) / (2 * h)
            assert abs(ratfunc_at(d, v) - approx) < F(1, 10 ** 9)

    @given(st.lists(small_rationals, min_size=1, max_size=4),
           st.lists(small_rationals, min_size=2, max_size=4),
           st.lists(small_rationals, min_size=2, max_size=3))
    @settings(max_examples=60)
    def test_cancel_common_factor(self, cn, cd, cg):
        n, d, g = Poly(cn), Poly(cd), Poly(cg)
        if n.is_zero or d.is_zero or g.is_zero:
            return
        assert RatFunc(n * g, d * g) == RatFunc(n, d)

    @given(st.lists(small_rationals, min_size=1, max_size=4),
           st.lists(small_rationals, min_size=1, max_size=4))
    @settings(max_examples=60)
    def test_from_coprime_equals_the_reducing_constructor(self, cn, cd):
        n, d = Poly(cn), Poly(cd)
        if d.is_zero or poly_gcd(n, d).degree > 0:
            return
        f = RatFunc.from_coprime(n, d)
        assert (f.num, f.den) == (RatFunc(n, d).num, RatFunc(n, d).den)

    def test_product_caps_the_result_not_the_unreduced_product(self):
        x = RatFunc(Poly.x())
        f = (x ** 40 + 1) / x ** 40
        assert f * x ** 40 == x ** 40 + 1
        assert x ** 40 * f == x ** 40 + 1
        assert f / (1 / x ** 40) == x ** 40 + 1

    def test_sum_caps_the_result_not_the_common_denominator(self):
        # the unreduced common denominator x^80 passes the cap of 64
        x = RatFunc(Poly.x())
        f = (x ** 40 + 1) / x ** 40
        g = 1 / x ** 40
        assert f - g == 1
        assert g + g == 2 / x ** 40
        assert (f + g).den == Poly.from_pairs([(40, F(1))])

    def test_pole_order_and_residue(self):
        x = RatFunc(Poly.x())
        f = 3 / (x - 2) ** 2 + 5 / (x - 2) + x + 1
        assert principal_part(f, F(2)) == [F(3), F(5)]
        assert principal_part(f, F(0)) == []

    def test_laurent_at_gaussian_point(self):
        x = RatFunc(Poly.x())
        i = GaussRat(0, 1)
        f = 1 / (x ** 2 + 1)
        assert principal_part(f, i) == [GaussRat(0, F(-1, 2))]

    def test_laurent_regular_expansion(self):
        x = RatFunc(Poly.x())
        f = 1 / (1 - x)
        assert principal_part(f, F(0)) == []
        assert principal_part(f, F(1)) == [F(-1)]
        assert principal_part(RatFunc(Poly.const(0)), F(0)) == []


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
        assert sq == RatFunc(Poly.x())

    def test_integer_carrier_matches_ratfunc(self):
        x = GenRatFunc(RatFunc(Poly.x()), 1)
        expr = (x ** 2 - 1) / (x + 3)
        direct = (RatFunc(Poly.x()) ** 2 - 1) / (RatFunc(Poly.x()) + 3)
        assert expr == direct


gauss_scalars = st.builds(GaussRat, small_rationals, small_rationals)
exact_scalars = st.one_of(small_rationals, gauss_scalars)
mixed_ratfuncs = st.builds(
    lambda n, d: RatFunc(Poly(n), Poly(d)),
    st.lists(exact_scalars, max_size=3),
    st.lists(exact_scalars, min_size=1, max_size=3).filter(any))
operands = st.one_of(
    small_rationals, gauss_scalars, mixed_ratfuncs,
    st.builds(GenRatFunc, mixed_ratfuncs, st.integers(1, 3)))


def _assert_canonical(v):
    if isinstance(v, GaussRat):
        assert v.im != 0
    elif isinstance(v, GenRatFunc):
        assert v.carrier >= 2
        assert gcd(v.fn.exponent_gcd(), v.carrier) == 1
        _assert_canonical(v.fn)
    elif isinstance(v, RatFunc):
        for c in v.num.coeffs + v.den.coeffs:
            _assert_canonical(c)
    else:
        assert isinstance(v, F)


class TestCanonicalValues:
    """Every exact value has one representation, whatever built it."""

    @given(operands, operands, st.integers(min_value=-2, max_value=2))
    @settings(max_examples=150, deadline=None)
    def test_results_are_canonical(self, a, b, n):
        results = [a, b, a + b, a - b, a * b]
        if b != 0:
            results.append(a / b)
        if a != 0 or n >= 0:
            results.append(a ** n)
        results.extend(v.deriv() for v in (a, b)
                       if isinstance(v, (RatFunc, GenRatFunc)))
        for v in results:
            _assert_canonical(v)


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
        assert r is not None
        assert r.polynomial_part == poly_of([0, 1, 0, 1])
        assert r.rational_part.is_zero
        assert r.logarithms == ()

    def test_single_log(self):
        r = integrate_ratfunc(RatFunc(poly_of([1]), poly_of([0, 1])))
        assert r is not None
        assert r.logarithms == ((poly_of([0, 1]), F(1)),)

    def test_double_pole_has_no_log(self):
        r = integrate_ratfunc(RatFunc(Poly.const(F(1)), poly_of([0, 0, 1])))
        assert r is not None
        assert r.logarithms == ()
        assert r.rational_part == RatFunc(poly_of([-1]), poly_of([0, 1]))

    def test_high_multiplicity(self):
        den = poly_of([0, 0, 1]) * poly_of([-1, 1]) ** 3
        f = RatFunc(Poly.const(F(1)), den)
        r = integrate_ratfunc(f)
        assert r is not None
        assert _integral_derivative(r) == f

    def test_merged_quadratic_block(self):
        # equal residues at +-i stay merged as a single log of x^2 + 1
        f = RatFunc(poly_of([0, 1]), poly_of([1, 0, 1]))
        r = integrate_ratfunc(f)
        assert r is not None
        assert r.logarithms == ((poly_of([1, 0, 1]), F(1, 2)),)

    def test_gaussian_split_of_quadratic(self):
        # residues at +-i differ, so the block splits over Q(i)
        f = RatFunc(Poly.const(F(1)), poly_of([1, 0, 1]))
        r = integrate_ratfunc(f)
        assert r is not None
        assert len(r.logarithms) == 2
        assert _integral_derivative(r) == f

    def test_irrational_residues_flagged(self):
        f = RatFunc(Poly.const(F(1)), poly_of([-2, 0, 1]))
        r = integrate_ratfunc(f)
        assert r is None

    def test_merged_real_irrational_block(self):
        # x/(x^2 - 2): residues agree, so no splitting is needed
        f = RatFunc(poly_of([0, 1]), poly_of([-2, 0, 1]))
        r = integrate_ratfunc(f)
        assert r is not None
        assert r.logarithms == ((poly_of([-2, 0, 1]), F(1, 2)),)

    def test_quartic_block_merged(self):
        f = RatFunc(poly_of([0, 0, 0, 1]), poly_of([-2, 0, 0, 0, 1]))
        r = integrate_ratfunc(f)
        assert r is not None
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
        assert r is not None
        assert _integral_derivative(r) == f
