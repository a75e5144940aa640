"""Normal form, transformation law, shifted invariant, power minimization."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperode.exactalg import GaussRat, GenRatFunc, Poly, RatFunc
from hyperode.invariants import (
    Mobius,
    apply_gauge,
    invariant_from_shifted,
    minimize_power_exponents,
    shifted_invariant,
    to_normal_form,
    transform_invariant,
)
from hyperode.odeio import LinearODE, parse_ode

from reference import (
    at_power,
    general_schwarzian,
    mobius_compose,
    mobius_inverse,
    pullback_ode,
    ratfunc_at,
)


def rf(nums, dens=(1,)):
    return RatFunc(Poly(tuple(F(c) for c in nums)),
                   Poly(tuple(F(c) for c in dens)))


X = RatFunc(Poly.x())

nonzero_rationals = st.fractions(min_value=-6, max_value=6,
                                 max_denominator=4).filter(bool)
small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
gauss_rationals = st.builds(GaussRat, small_rationals, nonzero_rationals)


def random_ratfuncs(max_deg=3):
    coeffs = st.lists(small_rationals, min_size=1, max_size=max_deg + 1)
    return st.tuples(coeffs, coeffs).filter(
        lambda p: any(p[0]) and any(p[1])).map(
        lambda p: RatFunc(Poly(p[0]), Poly(p[1])))


def mobius_strategy():
    return st.tuples(small_rationals, small_rationals,
                     small_rationals, small_rationals).filter(
        lambda t: t[0] * t[3] - t[1] * t[2] != 0).map(lambda t: Mobius(*t))


class TestMobius:
    def test_identity_and_inverse(self):
        m = Mobius.from_ints(2, 0, 1, -1)
        ident = mobius_compose(m, mobius_inverse(m)).canonical()
        assert ident == Mobius.from_ints(1, 0, 0, 1)

    def test_apply_points(self):
        f = Mobius.from_ints(2, 0, 1, -1).as_ratfunc()   # 2x/(x-1)
        assert ratfunc_at(f, F(0)) == 0
        assert f.den(F(1)) == 0 and f.num(F(1)) != 0
        assert f.num.degree == f.den.degree and f.num.lc / f.den.lc == 2
        assert ratfunc_at(f, F(-1)) == 1

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Mobius.from_ints(1, 2, 2, 4)

    def test_canonical_integers(self):
        m = Mobius(F(1), F(0), F(1, 2), F(-1, 2)).canonical()
        assert (m.a, m.b, m.c, m.d) == (2, 0, 1, -1)

    def test_canonical_signs_and_common_factor(self):
        m = Mobius(F(0), F(-6, 5), F(-4, 15), F(2, 3)).canonical()
        assert (m.a, m.b, m.c, m.d) == (0, 9, 2, -5)

    def test_canonical_gaussian(self):
        # a Gaussian entry scales the first nonzero entry to 1
        m = Mobius(F(0), GaussRat(2, 4), F(3), F(-1, 2)).canonical()
        assert (m.a, m.b) == (0, 1)
        assert (m.c, m.d) == (F(3) / GaussRat(2, 4), F(-1, 2) / GaussRat(2, 4))
        assert m.canonical() == m

    @given(mobius_strategy(), mobius_strategy())
    @settings(max_examples=50)
    def test_compose_matches_ratfunc_composition(self, m1, m2):
        lhs = mobius_compose(m1, m2).as_ratfunc()
        rhs = m1.as_ratfunc().compose(m2.as_ratfunc())
        assert lhs == rhs


class TestNormalForm:
    def test_zero(self):
        ode = LinearODE(RatFunc.const(0), RatFunc.const(0))
        n = to_normal_form(ode)
        assert n.I.is_zero
        assert apply_gauge(ode, -ode.A / 2) == ode

    def test_confluent_limit_seed(self):
        # A = 2/x, B = -1/x gives I = 1/x
        ode = LinearODE(rf([2], [0, 1]), rf([-1], [0, 1]))
        n = to_normal_form(ode)
        assert n.I == rf([1], [0, 1])
        # the gauge P'/P = -A/2 = -1/x carries u'' = I u back to the input
        assert apply_gauge(ode, rf([-1], [0, 1])) == \
            LinearODE(RatFunc.const(0), -n.I)

    def test_worked_example_normal_form(self):
        # fully degenerate instance of the worked family: applying the
        # k=2 reduction by hand lands on I = -1/((t-1)^2 (t+1)^2)
        ode = parse_ode(
            "y'' = ((-3*x^4 - 1)/(x^5 - x))*y'")
        n = to_normal_form(ode)
        j1 = shifted_invariant(n.I)
        j0_by_two = j1.compress_power(2) * F(1, 4)
        i0 = invariant_from_shifted(j0_by_two)
        assert i0 == rf([-1], [1, 0, -2, 0, 1])
        # with both parameters zero the support degenerates further and
        # the minimizer honestly finds the larger power
        k, _ = minimize_power_exponents(j1)
        assert k == 4

    def test_gauge_invariance_specific(self):
        # a power-product gauge leaves the invariant unchanged
        ode = LinearODE(rf([2], [0, 1]), rf([-1], [0, 1]))
        base = to_normal_form(ode).I
        log_deriv = rf([3], [0, 2]) + rf([-5], [1, 7])
        other = to_normal_form(apply_gauge(ode, log_deriv)).I
        assert other == base

    @given(random_ratfuncs(2), st.lists(
        st.tuples(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                  st.integers(min_value=-3, max_value=3)),
        min_size=1, max_size=3))
    @settings(max_examples=40)
    def test_gauge_invariance_random(self, b, gauge_parts):
        ode = LinearODE(RatFunc.const(0), b)
        base = to_normal_form(ode).I
        log_deriv = RatFunc.const(0)
        for exp, root in gauge_parts:
            if exp:
                log_deriv = log_deriv + RatFunc(
                    Poly.const(exp), Poly((F(-root), F(1))))
        transformed = to_normal_form(apply_gauge(ode, log_deriv)).I
        assert transformed == base


def pulled_back_invariant(i0, f):
    """The invariant of the equation of u(F(x)), u'' = I0 u."""
    return to_normal_form(pullback_ode(i0, f)).I


class TestSchwarzian:
    # the normal form of a pullback of u'' = 0 along F is S(F)

    def test_mobius_is_zero(self):
        m = Mobius.from_ints(3, 1, 2, 5).as_ratfunc()
        assert general_schwarzian(m).is_zero
        assert pulled_back_invariant(RatFunc.const(0), m).is_zero

    def test_power_three(self):
        assert general_schwarzian(X ** 3) == rf([2], [0, 0, 1])
        assert pulled_back_invariant(RatFunc.const(0), X ** 3) == \
            rf([2], [0, 0, 1])

    def test_power_identity(self):
        assert general_schwarzian(X).is_zero
        assert pulled_back_invariant(RatFunc.const(0), X).is_zero

    @given(mobius_strategy())
    @settings(max_examples=100)
    def test_general_schwarzian_vanishes_on_mobius(self, m):
        assert general_schwarzian(m.as_ratfunc()).is_zero

    @given(st.integers(min_value=2, max_value=6))
    def test_general_matches_power_formula(self, k):
        f = RatFunc(Poly.from_pairs([(k, F(1))]))
        expected = RatFunc(Poly.const(F(k * k - 1, 4)),
                           Poly.from_pairs([(2, F(1))]))
        assert general_schwarzian(f) == expected


class TestTransformInvariant:
    def test_zero_identity(self):
        out = transform_invariant(RatFunc.const(0),
                                  Mobius.from_ints(1, 0, 0, 1))
        assert out.is_zero

    def test_power_square_of_simple_pole(self):
        # I0 = 1/x under x -> x^2: 4x^2/x^2 + 3/(4x^2) = 4 + 3/(4x^2)
        i0 = rf([1], [0, 1])
        out = pulled_back_invariant(i0, X ** 2)
        assert out == rf([4]) + rf([F(3, 4)], [0, 0, 1])
        # the shifted invariant takes the power as J1(x) = k^2 J0(x^k)
        assert shifted_invariant(out) == \
            shifted_invariant(i0).substitute_power(2) * 4
        assert minimize_power_exponents(shifted_invariant(out)) == \
            (2, shifted_invariant(i0))

    def test_seed_reproduction_on_worked_example(self):
        # the model-equation invariant with differences (4/3, 1/3, 1/2),
        # i.e. parameters (1/4, -1/12, -1/3), mapped through 2t/(t-1),
        # must land on the reduced invariant of the worked example
        lam, mu, kap = F(4, 3), F(1, 2), F(1, 3)
        x = RatFunc(Poly.x())
        seed = ((lam * lam - 1) / 4) / (x * x) \
            + ((mu * mu - 1) / 4) / ((x - 1) ** 2) \
            + ((1 + kap * kap - lam * lam - mu * mu) / 4) / (x * (x - 1))
        out = transform_invariant(seed, Mobius.from_ints(2, 0, 1, -1))
        expected = RatFunc(
            Poly((F(14), F(-5), F(-73))),
            72 * Poly((F(0), F(0), F(1))) * Poly((F(-1), F(1))) ** 2
            * Poly((F(1), F(1))) ** 2)
        assert out == expected

    @given(random_ratfuncs(2), mobius_strategy())
    @settings(max_examples=30)
    def test_mobius_consistency_with_pullback(self, i0, m):
        f = m.as_ratfunc()
        if f.deriv().is_zero:
            return
        direct = transform_invariant(i0, m)
        via_ode = to_normal_form(pullback_ode(i0, f)).I
        assert direct == via_ode

    @given(random_ratfuncs(2), st.integers(min_value=2, max_value=4))
    @settings(max_examples=30)
    def test_power_consistency_with_pullback(self, i0, k):
        j1 = shifted_invariant(pulled_back_invariant(i0, X ** k))
        assert j1 == at_power(shifted_invariant(i0), k) * (k * k)
        # the minimizer finds the planted power, or a multiple of it when
        # the exponents of J0 share a factor too
        found, j0 = minimize_power_exponents(j1)
        assert (found / k).denominator == 1
        assert at_power(j0, found) * (found * found) == j1

    def test_fractional_power(self):
        out = pulled_back_invariant(rf([1], [0, 1]), GenRatFunc.x_power(3, 2))
        # (9/4) x^(2k-2) x^(-3/2) + (5/16)/x^2 = (9/4) x^(-1/2) + (5/16)/x^2
        assert isinstance(out, GenRatFunc)
        assert out.carrier == 2
        s = RatFunc(Poly.x())
        assert out.fn == F(9, 4) / s + F(5, 16) / (s ** 4)


class TestShiftedInvariant:
    def test_zero(self):
        j = shifted_invariant(RatFunc.const(0))
        assert j == RatFunc.const(F(1, 4))

    def test_double_pole(self):
        j = shifted_invariant(rf([1], [0, 0, 1]))
        assert j == RatFunc.const(F(5, 4))

    def test_cubic_drift_family_instance(self):
        # I = -x^4 - x gives J = 1/4 - x^6 - x^3
        j = shifted_invariant(rf([0, -1, 0, 0, -1]))
        assert j == rf([F(1, 4), 0, 0, -1, 0, 0, -1])

    def test_fractional_carrier(self):
        i = GenRatFunc.x_power(-1, 2)   # x^(-1/2)
        j = shifted_invariant(i)
        assert j.carrier == 2
        # x^2 * x^(-1/2) = x^(3/2) -> sigma^3 + 1/4
        assert j.fn == rf([F(1, 4), 0, 0, 1])


class TestMinimizePower:
    def test_cubic_drift_exponents(self):
        j = rf([F(1, 4), 0, 0, -1, 0, 0, -1])
        k, j0 = minimize_power_exponents(j)
        assert k == 3
        assert j0 == rf([F(1, 36), F(-1, 9), F(-1, 9)])

    def test_coprime_exponents(self):
        j = rf([1, 1, 0, 0, 0, 1])
        k, j0 = minimize_power_exponents(j)
        assert k == 1
        assert j0 == j

    def test_worked_example_value(self):
        ode = parse_ode(
            "y'' = ((1/3*x^2 - 3*x^4 - 8/3)/(x^5 - x))*y'"
            " + (19/12/(x^6 - x^2))*y")
        j1 = shifted_invariant(to_normal_form(ode).I)
        k, j0 = minimize_power_exponents(j1)
        assert k == 2
        i0 = invariant_from_shifted(j0)
        expected = RatFunc(
            Poly((F(14), F(-5), F(-73))),
            72 * Poly((F(0), F(0), F(1))) * Poly((F(-1), F(1))) ** 2
            * Poly((F(1), F(1))) ** 2)
        assert i0 == expected

    def test_constant_shifted(self):
        j = RatFunc.const(F(1))
        k, j0 = minimize_power_exponents(j)
        assert k == 1
        assert j0 == RatFunc.const(F(1))

    @given(st.lists(st.one_of(small_rationals, gauss_rationals),
                    min_size=1, max_size=5).filter(any),
           st.lists(st.one_of(small_rationals, gauss_rationals),
                    min_size=1, max_size=5).filter(any),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=80)
    def test_sign_choice_matches_composition(self, nums, dens, g):
        # reference: build J0(1/x) by composition and keep the candidate
        # with the smaller denominator degree, ties going to positive
        j1 = RatFunc(Poly(nums), Poly(dens)).substitute_power(g)
        n = j1.exponent_gcd()
        k, j0 = minimize_power_exponents(j1)
        if n == 0:
            assert (k, j0) == (1, j1)
            return
        pos = j1.compress_power(n) * F(1, n * n)
        neg = pos.compose(1 / X)
        expected = (-n, neg) if neg.den.degree < pos.den.degree else (n, pos)
        assert (k, j0) == expected

    def test_negative_power_preferred(self):
        # J1 = 1/x^3: positive k gives J0 = 1/(9s); negative k gives s/9
        j = rf([1], [0, 0, 0, 1])
        k, j0 = minimize_power_exponents(j)
        assert k == -3
        assert j0 == rf([0, F(1, 9)])

    def test_fractional_k(self):
        j = GenRatFunc(rf([F(1, 4), 0, 0, 1]), 2)   # 1/4 + x^(3/2)
        k, j0 = minimize_power_exponents(j)
        assert k == F(3, 2)
        assert j0 == rf([F(1, 9), F(4, 9)])

    @given(random_ratfuncs(2), st.sampled_from([1, 2, 3]))
    @settings(max_examples=60)
    def test_reconstruction_identity(self, j0_seed, k_plant):
        planted = at_power(j0_seed, k_plant) * (k_plant * k_plant)
        k, j0 = minimize_power_exponents(planted)
        recon = at_power(j0, k) * (k * k)
        assert recon == planted


class TestNormalFormOde:
    def test_roundtrip(self):
        # u'' = I u written out as text comes back with invariant I
        i = rf([3, 1], [0, 0, 1])
        ode = parse_ode("y'' = ((x + 3)/x^2)*y")
        assert ode.A.is_zero
        assert to_normal_form(ode).I == i
