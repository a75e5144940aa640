"""Numeric evaluation and residual oracle tests.

The series evaluator is cross-checked three independent ways: exact
rising-factorial partial sums, mpmath reference values, and a power
series continuation oracle that rebuilds a solution value from the
equation itself. The residual checker is then exercised on known good
solutions and on deliberately corrupted ones.
"""

import cmath
import contextvars
import json
import math
from fractions import Fraction as F
from itertools import islice

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperode import numverify
from hyperode.cli import cmd_solve, cmd_verify, load_corpus
from hyperode.equivalence import solve_equivalence
from hyperode.errors import EvalDiverged, PointRejected, SamplingFailed
from hyperode.exactalg import (
    DEGREE_CAP,
    GaussRat,
    GenRatFunc,
    Poly,
    RatFunc,
    poly_gcd,
)
from hyperode.numverify import (
    EvalPoint,
    ResidualReport,
    UnevaluatedIntegral,
    _candidate_points,
    _coefficient,
    _compile_jet,
    _preimages,
    _singular_points,
    eval_pfq,
    pfq_terms,
    residual_check,
)
from hyperode.odeio import (
    Add,
    Exp,
    Hyp,
    Intg,
    Leg,
    LinearODE,
    Mul,
    Num,
    Pow,
    X,
    add,
    differentiate_expr,
    hyp,
    legendre,
    mul,
    num,
    parse_ode,
    parse_solution,
    power,
    ratfunc_to_expr,
)
from hyperode.solutions import assemble
from reference import eval_expr, mp_eval
from test_odeio import exprs
from test_witness_digest import FRACTIONAL_K

WORKED_ODE = ("y'' = ((1/3*x^2 - 3*x^4 - 8/3)/(x^5 - x))*y'"
              " + (19/12/(x^6 - x^2))*y")
LEGENDRE_ODE = "y/4 + (2*x - 1)*y' + (x^2 - x)*y'' = 0"
CUBIC_DRIFT_ODE = "y'' + (x^4 + x)*y = 0"


def _pochhammer(a, k):
    out = F(1) if not isinstance(a, GaussRat) else GaussRat(1)
    for j in range(k):
        out = out * (a + j)
    return out


def _exact_term(upper, lower, z, k):
    """Series term k as a ratio of rising factorials, no recursion."""
    val = F(z) ** k / math.factorial(k)
    for u in upper:
        val = val * _pochhammer(u, k)
    for l in lower:
        val = val / _pochhammer(l, k)
    return val


def _to_complex(v):
    if isinstance(v, GaussRat):
        return complex(float(v.re), float(v.im))
    return complex(float(v), 0.0)


_params = st.fractions(
    min_value=F(-4), max_value=F(4), max_denominator=6)


class TestEvalPfq:
    def test_gauss_at_zero_is_one(self):
        assert eval_pfq("2F1", (F(1, 3), F(-2, 7)), (F(5, 4),), 0.0)[0] == 1.0

    def test_kummer_with_equal_parameters_is_exp(self):
        got = eval_pfq("1F1", (F(5, 7),), (F(5, 7),), 0.3)[0]
        assert abs(got - cmath.exp(0.3)) < 1e-12

    def test_geometric_series_instance(self):
        got = eval_pfq("2F1", (F(1), F(1)), (F(1),), 0.5)[0]
        assert abs(got - 2.0) < 1e-12

    @given(a=_params, b=_params, c=_params, )
    @settings(max_examples=60, deadline=None)
    def test_term_recursion_matches_factorial_ratios(self, a, b, c):
        if c.denominator == 1 and c <= 0:
            c = c + F(9)
        z = F(3, 10)
        got = list(islice(pfq_terms((a, b), (c,), float(z)), 10))
        for k, term in enumerate(got):
            want = _to_complex(_exact_term((a, b), (c,), z, k))
            assert abs(term - want) <= 1e-13 * max(1.0, abs(want))

    def test_terms_stop_at_an_upper_parameter_before_a_lower_zero(self):
        # 2F1(0, 3; 0; z): term 1 would divide 0 by 0
        assert list(pfq_terms((F(0), F(3)), (F(0),), 0.5)) == [1]
        # 2F1(-2, 1; -2; z) = 1 + z + z^2
        assert list(pfq_terms((F(-2), F(1)), (F(-2),), 0.5)) == \
            [1, 0.5, 0.25]

    def test_gauss_disc_guard(self):
        with pytest.raises(EvalDiverged):
            eval_pfq("2F1", (F(1, 2), F(1, 2)), (F(1),), 0.81)

    def test_lower_nonpositive_integer_rejected(self):
        with pytest.raises(EvalDiverged):
            eval_pfq("1F1", (F(1, 2),), (F(-3),), 0.2)

    def test_terminating_upper_saves_bad_lower(self):
        got = eval_pfq("2F1", (F(-3), F(1)), (F(-5),), 0.5)[0]
        want = sum(
            _to_complex(_exact_term((F(-3), F(1)), (F(-5),), F(1, 2), k))
            for k in range(4))
        assert abs(got - want) < 1e-14

    def test_divergence_budget(self):
        with pytest.raises(EvalDiverged):
            eval_pfq("1F1", (F(1),), (F(2),), 1e5)

    def test_matches_mpmath_at_complex_arguments(self):
        z = 0.31 - 0.44j
        got = eval_pfq("2F1", (F(1, 3), F(-1, 4)), (F(7, 5),), z)[0]
        want = complex(mpmath.hyp2f1(F(1, 3), F(-1, 4), F(7, 5), z))
        assert abs(got - want) < 1e-13
        got = eval_pfq("1F1", (F(2, 3),), (F(4, 3),), 2.0 + 1.5j)[0]
        want = complex(mpmath.hyp1f1(F(2, 3), F(4, 3), 2.0 + 1.5j))
        assert abs(got - want) < 1e-12
        got = eval_pfq("0F1", (), (F(3, 2),), -4.7 + 0.2j)[0]
        want = complex(mpmath.hyp0f1(F(3, 2), -4.7 + 0.2j))
        assert abs(got - want) < 1e-12

    def test_gaussian_rational_parameters(self):
        a = GaussRat(F(2, 3), F(1, 6))
        b = GaussRat(F(2, 3), F(-1, 6))
        got = eval_pfq("2F1", (a, b), (F(4, 3),), 0.25)[0]
        want = complex(mpmath.hyp2f1(
            mpmath.mpc(2, 0.5) / 3, mpmath.mpc(2, -0.5) / 3, F(4, 3), 0.25))
        assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("upper, lower", [
        ((F(1, 3), F(-5, 7)), (F(4, 5),)),
        ((GaussRat(F(1, 2), F(1, 3)), F(2, 3)),
         (GaussRat(F(3, 2), F(-1, 4)),)),
    ], ids=["rational", "gaussian"])
    @pytest.mark.parametrize("z", [-2, -1 + 0.5j, -3], ids=str)
    def test_pfaff_step_matches_mpmath_outside_the_disc(self, upper, lower,
                                                        z):
        # z/(z-1) lies in the disc |w| <= 0.8 while z does not
        got = eval_pfq("2F1", upper, lower, z)[0]
        want = complex(mpmath.hyp2f1(*(complex(v) for v in upper + lower),
                                     z))
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("z", [0.9, 3, -3j, 1], ids=str)
    def test_no_pfaff_step_when_both_arguments_leave_the_disc(self, z):
        # |z/(z-1)| is 9, 1.5 and 0.95, and undefined at z = 1
        with pytest.raises(EvalDiverged):
            eval_pfq("2F1", (F(1, 3), F(-5, 7)), (F(4, 5),), z)

    @pytest.mark.parametrize("upper, lower", [
        ((1, -2), (-3,)), ((-2, 1), (-3,)), ((2, -1), (-2,))], ids=str)
    def test_no_pfaff_step_when_c_is_a_nonpositive_integer(self, upper,
                                                           lower):
        # 2F1(1, -2; -3; z) = 1 + 2z/3 + z^2/3 is 2/3 at z = -1, while
        # (1-z)^-1 2F1(1, -1; -3; z/(z-1)) is 7/12
        with pytest.raises(EvalDiverged):
            eval_pfq("2F1", upper, lower, -1)


def _mp(p):
    """An exact or complex parameter as an mpmath number."""
    if isinstance(p, F):
        return mpmath.mpf(p.numerator) / p.denominator
    return mpmath.mpmathify(p)


def _mp_pfq(kind, upper, lower, z):
    """pFq(upper; lower; z) by mpmath, for the three kinds."""
    fn = {"2F1": mpmath.hyp2f1, "1F1": mpmath.hyp1f1,
          "0F1": mpmath.hyp0f1}[kind]
    return fn(*(_mp(p) for p in upper + lower), z)


def _mp_contiguous_jet(kind, upper, lower, z):
    """(F, F', F'') by mpmath from the contiguous rule d/dz F(u; l; z) =
    prod u / prod l * F(u + 1; l + 1; z) (DLMF 16.3.1)."""
    out = []
    factor = mpmath.mpf(1)
    for n in range(3):
        out.append(factor * _mp_pfq(kind, tuple(u + n for u in upper),
                                    tuple(l + n for l in lower), z))
        for v in upper:
            factor *= _mp(v + n)
        for v in lower:
            factor /= _mp(v + n)
    return out


def _mp_polynomial_jet(upper, lower, z):
    """(F, F', F'') by mpmath of a series an upper -n ends: the
    polynomial of its first n + 1 terms, coefficients from rising
    factorials, differentiated term by term."""
    n = min(-int(u) for u in upper if u.denominator == 1 and u <= 0)
    coeffs = []
    for k in range(n + 1):
        c = mpmath.mpf(1) / mpmath.factorial(k)
        for u in upper:
            c *= mpmath.rf(mpmath.mpf(u.numerator) / u.denominator, k)
        for l in lower:
            c /= mpmath.rf(mpmath.mpf(l.numerator) / l.denominator, k)
        coeffs.append(c)
    z = mpmath.mpc(z)
    return [mpmath.fsum(c * mpmath.ff(k, d) * z ** (k - d)
                        for k, c in enumerate(coeffs) if k >= d)
            for d in range(3)]


class TestSeriesJet:
    """(F, F', F'') from eval_pfq against mpmath at 30 digits."""

    SERIES = [
        ("2F1", (F(1, 3), F(-5, 7)), (F(4, 5),)),
        ("2F1", (F(9, 5), F(1, 8)), (F(-5, 4),)),
        ("1F1", (F(2, 3),), (F(4, 3),)),
        ("1F1", (F(-7, 4),), (F(1, 6),)),
        ("0F1", (), (F(3, 2),)),
        ("0F1", (), (F(-2, 3),)),
    ]

    def _close(self, got, want):
        assert len(got) == 3
        for g, w in zip(got, want):
            w = complex(w)
            assert abs(g - w) <= 1e-12 * abs(w), (g, w)

    @pytest.mark.parametrize("kind, upper, lower", SERIES)
    @pytest.mark.parametrize("z", [0.31 - 0.44j, -0.62, 0.07j, 0.55 + 0.5j],
                             ids=str)
    def test_inside_the_disc(self, kind, upper, lower, z):
        with mpmath.workdps(30):
            want = _mp_contiguous_jet(kind, upper, lower, z)
        self._close(eval_pfq(kind, upper, lower, z), want)

    @pytest.mark.parametrize("kind, upper, lower",
                             [s for s in SERIES if s[0] == "2F1"])
    @pytest.mark.parametrize("z", [-1.5, -2 + 0.5j, -0.9 + 0.3j,
                                   -1.2 + 1.5j],
                             ids=str)
    def test_in_the_pfaff_region(self, kind, upper, lower, z):
        assert abs(z) > 0.8 and abs(z / (z - 1)) <= 0.8
        with mpmath.workdps(30):
            want = _mp_contiguous_jet(kind, upper, lower, z)
        self._close(eval_pfq(kind, upper, lower, z), want)

    @pytest.mark.parametrize("kind, upper, lower", SERIES)
    def test_at_zero(self, kind, upper, lower):
        with mpmath.workdps(30):
            want = _mp_contiguous_jet(kind, upper, lower, 0)
        got = eval_pfq(kind, upper, lower, 0)
        assert got[0] == 1
        self._close(got, want)

    @pytest.mark.parametrize("kind, upper, lower", [
        ("2F1", (F(-3), F(2, 5)), (F(7, 3),)),
        ("2F1", (F(1, 2), F(-4)), (F(-1, 3),)),
        ("1F1", (F(-5),), (F(3, 4),)),
        # an upper -n ends the series before a lower -m, m >= n
        ("2F1", (F(-2), F(1, 3)), (F(-2),)),
        ("2F1", (F(5, 6), F(-2)), (F(-4),)),
        ("1F1", (F(-1),), (F(-3),)),
    ])
    @pytest.mark.parametrize("z", [0.41 + 0.13j, -0.7, 0], ids=str)
    def test_terminating_series(self, kind, upper, lower, z):
        with mpmath.workdps(30):
            want = _mp_polynomial_jet(upper, lower, z)
        self._close(eval_pfq(kind, upper, lower, z), want)

    @pytest.mark.parametrize("kind, upper, lower, z", [
        ("2F1", (F(20), F(30)), (F(7, 3),), -0.7),
        ("2F1", (F(20), F(30)), (F(7, 3),), 0.7j),
        ("2F1", (F(70), F(1)), (F(1),), -0.79),
        ("1F1", (F(5, 6),), (F(1, 7),), -11.7 + 2.2j),
    ], ids=["a=20,b=30,z=-0.7", "a=20,b=30,z=0.7i", "a=70,z=-0.79",
            "kummer,z=-11.7+2.2i"])
    def test_cancelling_sums_are_summed_again(self, monkeypatch, kind,
                                              upper, lower, z):
        # the double sums keep no correct digit of F here; the fixed-point
        # pass restores all of them
        calls = []

        def counted(*args):
            calls.append(args)
            return fixed_point_sums(*args)

        fixed_point_sums = numverify._fixed_point_sums
        monkeypatch.setattr(numverify, "_fixed_point_sums", counted)
        with mpmath.workdps(40):
            want = _mp_contiguous_jet(kind, upper, lower, z)
        self._close(eval_pfq(kind, upper, lower, z), want)
        assert len(calls) == 1

    @pytest.mark.parametrize("kind, upper, lower, z, resums", [
        # the fixed-point pass takes the complex lower parameter from the
        # exact value of its double
        ("1F1", (5,), (1 / 7 + 1j,), -30.0, 1),
        ("2F1", (0.5 + 0.25j, 2), (1.5 - 1j,), 0.3 + 0.2j, 0),
    ], ids=["kummer,c=1/7+i,z=-30", "gauss,complex a and c"])
    def test_complex_parameters(self, monkeypatch, kind, upper, lower, z,
                                resums):
        calls = []

        def counted(*args):
            calls.append(args)
            return fixed_point_sums(*args)

        fixed_point_sums = numverify._fixed_point_sums
        monkeypatch.setattr(numverify, "_fixed_point_sums", counted)
        with mpmath.workdps(40):
            want = _mp_contiguous_jet(kind, upper, lower, z)
        self._close(eval_pfq(kind, upper, lower, z), want)
        assert len(calls) == resums

    def test_sums_without_cancellation_are_not_summed_again(
            self, monkeypatch):
        def refuse(*args):
            raise AssertionError("summed again: %r" % (args,))

        monkeypatch.setattr(numverify, "_fixed_point_sums", refuse)
        for kind, upper, lower in self.SERIES:
            for z in (0.31 - 0.44j, -0.62, 0.07j, -1.5):
                if kind == "2F1" or abs(z) < 1:
                    eval_pfq(kind, upper, lower, z)

    def test_one_summation_per_point(self, monkeypatch):
        # the jet comes from one pass over one ratio table per series, not
        # from shifted series: per point one _series_jet call, no
        # pfq_terms pass, and each ratio read once, in order
        reads = []

        class Table(list):
            def __getitem__(self, k):
                reads.append(k)
                return list.__getitem__(self, k)

        def counted(*args):
            calls.append(args)
            return series_jet(*args)

        calls = []
        series_jet = numverify._series_jet
        monkeypatch.setattr(numverify, "_series_jet", counted)
        monkeypatch.setattr(numverify, "pfq_terms", None)
        gauss = numverify._series("2F1", (F(1, 3), F(-5, 7)), (F(4, 5),))
        kummer = numverify._series("1F1", (F(2, 3),), (F(4, 3),))
        for series in (gauss, gauss.pfaff, kummer):
            series.ratios = Table()
        for series, z, summed in ((gauss, -1.5, gauss.pfaff),
                                  (kummer, 0.4, kummer)):
            del calls[:], reads[:]
            eval_pfq(series, None, None, z)
            assert [c[0] for c in calls] == [summed]
            assert reads == list(range(len(reads))) and len(reads) > 10


def _reference_jet(upper, lower, z):
    """sum t_k, sum k t_k, sum k (k-1) t_k over pfq_terms, each with the
    sum of the magnitudes of its terms, stopping where the jet's rule
    does."""
    sums = [0j, 0j, 0j]
    mass = [0.0, 0.0, 0.0]
    for k, t in enumerate(pfq_terms(upper, lower, z)):
        parts = (t, k * t, k * (k - 1) * t)
        for i, p in enumerate(parts):
            sums[i] += p
            mass[i] += abs(p)
        if all(abs(p) <= 1e-16 * abs(q) for p, q in zip(parts, sums)):
            break
    return sums, mass


class TestRatioTable:
    """The term ratios each prepared series keeps for every point."""

    PARAMS = [
        ("2F1", (F(1, 3), F(-5, 7)), (F(4, 5),)),
        ("2F1", (F(9, 5), F(1, 8)), (F(-5, 4),)),
        ("2F1", (GaussRat(F(1, 2), F(1, 3)), F(2, 3)),
         (GaussRat(F(3, 2), F(-1, 4)),)),
        ("1F1", (F(2, 3),), (F(4, 3),)),
        ("1F1", (F(-7, 4),), (F(1, 6),)),
        ("0F1", (), (F(3, 2),)),
    ]
    POINTS = [0.31 - 0.44j, -0.62, 0.07j, 0.55 + 0.5j, -0.79, 0.2 + 0.7j]

    @pytest.mark.parametrize("kind, upper, lower", PARAMS)
    def test_sums_agree_with_pfq_terms(self, kind, upper, lower):
        # one table serves every point, the Pfaff twin's too; each sum
        # keeps to a few ulps of the magnitudes it adds up
        series = numverify._series(kind, upper, lower)
        plain = [(series, z) for z in self.POINTS]
        if series.pfaff is not None:
            plain += [(series.pfaff, z / (z - 1))
                      for z in (-1.5, -2 + 0.5j, -0.9 + 0.3j, -1.2 + 1.5j)]
        for s, z in plain:
            got = numverify._series_jet(s, z)
            sums, mass = _reference_jet(s.upper, s.lower, z)
            scaled = (got[0], got[1] * z, got[2] * z * z)
            for g, want, m in zip(scaled, sums, mass):
                assert abs(g - want) <= 8 * 2.0 ** -52 * m, (z, g, want)
        assert not series.ended

    @pytest.mark.parametrize("kind, upper, lower", [
        ("2F1", (F(-3), F(2, 5)), (F(7, 3),)),
        ("1F1", (F(-5),), (F(3, 4),)),
        # an upper -n ends the series before a lower -m, m >= n
        ("2F1", (F(-2), F(1, 3)), (F(-2),)),
        ("2F1", (F(5, 6), F(-2)), (F(-4),)),
        ("1F1", (F(-1),), (F(-3),)),
    ])
    def test_a_terminating_series_ends_where_pfq_terms_does(
            self, kind, upper, lower):
        series = numverify._series(kind, upper, lower)
        for z in (0.41 + 0.13j, -0.7):
            got = numverify._series_jet(series, z)
            terms = list(pfq_terms(series.upper, series.lower, z))
            assert series.ended and len(series.ratios) == len(terms) - 1
            want = sum(terms)
            assert abs(got[0] - want) <= 1e-15 * sum(map(abs, terms))

    @pytest.mark.parametrize("kind, upper, lower, z", [
        ("1F1", (F(1),), (F(1),), -750.0 + 300j),
        ("0F1", (), (F(1, 2),), 3e5),
        ("2F1", (F(10) ** 200, F(10) ** 200), (F(1),), 0.5),
    ], ids=["exp(-750+300i)", "0F1 at 3e5", "huge a b"])
    def test_an_overflowing_term_raises(self, kind, upper, lower, z):
        # terms pass double range while the sums cancel; with a and b
        # at 1e200 the first ratio is already infinite and the term nan
        with pytest.raises(EvalDiverged, match="overflowed"):
            eval_pfq(kind, upper, lower, z)


class TestEvalExpr:
    def test_principal_square_root(self):
        assert abs(eval_expr(power(X, F(1, 2)), 4.0) - 2.0) < 1e-15
        got = eval_expr(power(X, F(1, 2)), -1.0 + 0.0j)
        assert abs(got - 1j) < 1e-15

    def test_free_constants_evaluate_to_one(self):
        s = parse_solution("C1 + C2*x")
        assert eval_expr(s, 0.25) == 1.25

    def test_exp_and_product(self):
        s = mul(power(X, 2), Exp(mul(num(F(-1, 2)), X)))
        got = eval_expr(s, 1.2)
        assert abs(got - 1.44 * math.exp(-0.6)) < 1e-14

    def test_pole_guard(self):
        with pytest.raises(PointRejected):
            eval_expr(power(X, -1), 1e-12)

    def test_branch_point_guard(self):
        with pytest.raises(PointRejected):
            eval_expr(power(X, F(1, 3)), 0.0)

    def test_integral_has_no_value(self):
        with pytest.raises(ValueError):
            eval_expr(Intg(X), 0.5)

    def test_worked_solution_matches_series_continuation(self):
        # independent oracle: take y and y' at 2/5 as data, rebuild the
        # value at 3/10 through the equation's own power series
        # recursion with exact Taylor coefficients, 30 terms
        ode = parse_ode(WORKED_ODE)
        pair = assemble(solve_equivalence(ode))
        x0 = F(2, 5)
        target = F(3, 10)
        n = 30

        def shifted(p, base):
            out = [F(0)]
            for c in reversed(p.coeffs):
                carry = [F(0)] * (len(out) + 1)
                for i, v in enumerate(out):
                    carry[i + 1] += v
                    carry[i] += v * base
                carry[0] += c
                out = carry
            return [F(c) for c in out[:n]] + [F(0)] * max(0, n - len(out))

        def series_inv(d):
            inv = [F(0)] * n
            inv[0] = 1 / d[0]
            for k in range(1, n):
                acc = F(0)
                for j in range(1, k + 1):
                    acc += d[j] * inv[k - j]
                inv[k] = -acc / d[0]
            return inv

        def series_mul(a, b):
            out = [F(0)] * n
            for i, av in enumerate(a):
                if not av:
                    continue
                for j in range(n - i):
                    out[i + j] += av * b[j]
            return out

        def taylor(f):
            return series_mul(shifted(f.num, x0), series_inv(shifted(f.den, x0)))

        a_ser = taylor(ode.A)
        b_ser = taylor(ode.B)
        c = [eval_expr(pair.y1, complex(x0)),
             eval_expr(differentiate_expr(pair.y1), complex(x0))]
        for k in range(n - 2):
            acc = 0j
            for j in range(k + 1):
                acc += (j + 1) * c[j + 1] * complex(a_ser[k - j])
                acc += c[j] * complex(b_ser[k - j])
            c.append(-acc / ((k + 1) * (k + 2)))
        h = complex(target - x0)
        series_val = sum(ck * h ** k for k, ck in enumerate(c))
        direct = eval_expr(pair.y1, complex(target))
        assert abs(series_val - direct) < 1e-12 * max(1.0, abs(direct))

    def test_legendre_p_matches_gauss_form(self):
        node = Leg("P", F(-1, 2), add(mul(num(2), X), num(-1)))
        rep = hyp("2F1", (F(1, 2), F(1, 2)), (F(1),),
                  add(num(1), mul(num(-1), X)))
        got = eval_expr(node, 0.7)
        want = eval_expr(rep, 0.7)
        assert abs(got - want) < 1e-10
        assert abs(got - complex(mpmath.legenp(-0.5, 0, 0.4, type=3))) < 1e-12

    def test_legendre_q_matches_mpmath(self):
        for z in (2.5 + 0.0j, 1.8 + 0.9j, -2.2 + 1.1j):
            got = eval_expr(Leg("Q", F(-1, 2), X), z)
            want = complex(mpmath.legenq(-0.5, 0, mpmath.mpc(z), type=3))
            assert abs(got - want) < 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("degree", [F(171), F(200), F(-715, 4),
                                        F(-717, 4), F(-721, 4)], ids=str)
    def test_legendre_q_past_the_gamma_range_matches_mpmath(self, degree):
        # the gammas of Q's normalization overflow above degree 170, and
        # below -170 they lose their digits or underflow to zero
        for z in (2.5 + 0.0j, 1.8 + 0.9j, -2.2 + 1.1j):
            got = eval_expr(Leg("Q", degree, X), z)
            with mpmath.workdps(40):
                want = complex(mpmath.legenq(_mp(degree), 0, mpmath.mpc(z),
                                             type=3))
            assert abs(got - want) <= 1e-9 * abs(want)

    @pytest.mark.parametrize("degree", [F(-1, 3), F(-5, 4), F(-7, 4),
                                        F(-11, 4)], ids=str)
    def test_legendre_q_where_a_gamma_is_negative_matches_mpmath(self,
                                                                 degree):
        # Q's normalization takes one sign flip per gamma argument t < 0
        # with an odd floor: none at -1/3 (where the floors of v+1 and
        # v+3/2 differ), one at -5/4, two at -7/4 and none at -11/4
        for z in (2.5 + 0.0j, 1.8 + 0.9j, -2.2 + 1.1j):
            got = eval_expr(Leg("Q", degree, X), z)
            with mpmath.workdps(40):
                want = complex(mpmath.legenq(_mp(degree), 0, mpmath.mpc(z),
                                             type=3))
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_derivatives_match_central_differences(self):
        ode = parse_ode(WORKED_ODE)
        pair = assemble(solve_equivalence(ode))
        cases = [
            (pair.y1, (0.31, 0.44 + 0.2j, -0.35 + 0.3j, 0.52j, 0.27 - 0.3j)),
            (Leg("P", F(-1, 2), add(mul(num(2), X), num(-1))),
             (0.55, 0.71, 0.6 + 0.1j, 0.42, 0.8 - 0.05j)),
            (Leg("Q", F(-1, 2), X),
             (2.2, 2.5 + 0.4j, -2.4 + 1.0j, 3.1, 1.9 + 0.8j)),
            (mul(power(X, F(3, 2)), Exp(mul(num(F(-1, 3)), X))),
             (0.9, 1.4, 2.0 + 0.5j, 0.7 + 0.2j, 1.1)),
            (hyp("1F1", (F(1, 4),), (F(5, 4),), mul(num(-1), X)),
             (0.3, 1.1, -0.8 + 0.4j, 2.3, 0.2 - 0.9j)),
        ]
        h = 1e-5
        for s, points in cases:
            ds = differentiate_expr(s)
            for z in points:
                grad = (eval_expr(s, z + h) - eval_expr(s, z - h)) / (2 * h)
                exact = eval_expr(ds, z)
                assert abs(grad - exact) <= 1e-7 * max(1.0, abs(exact))


class TestJet:
    @given(exprs(depth=3, numeric_safe=True),
           st.sampled_from([0.337, 0.561 + 0.2j, -0.42 - 0.31j]))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_exact_derivatives(self, s, z):
        d1 = differentiate_expr(s)
        d2 = differentiate_expr(d1)
        try:
            got = _compile_jet(s)(z)
        except (PointRejected, EvalDiverged, OverflowError,
                ZeroDivisionError, ValueError):
            return
        if not all(cmath.isfinite(g) for g in got):
            return
        with mpmath.workdps(30):
            want = [complex(mp_eval(e, z)) for e in (s, d1, d2)]
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-9 * max(abs(g), abs(w), 1.0)

    @pytest.mark.parametrize("node, points", [
        (Leg("P", F(-1, 2), add(mul(num(2), X), num(-1))),
         (0.55, 0.6 + 0.1j, 0.42)),
        (Leg("Q", F(3, 2), X), (2.5 + 0.0j, 1.8 + 0.9j, -2.2 + 1.1j)),
    ])
    def test_legendre_matches_the_reference(self, node, points):
        d1 = differentiate_expr(node)
        d2 = differentiate_expr(d1)
        for z in points:
            with mpmath.workdps(30):
                want = [complex(mp_eval(e, z)) for e in (node, d1, d2)]
            for g, w in zip(_compile_jet(node)(z), want):
                assert abs(g - w) <= 1e-12 * max(1.0, abs(w))

    @pytest.mark.parametrize("node, ref", [
        (hyp("2F1", (F(1, 3), F(-1, 4)), (F(7, 5),),
             add(mul(num(F(1, 2)), power(X, 2)), mul(num(F(-1, 3)), X))),
         lambda t: mpmath.hyp2f1(F(1, 3), F(-1, 4), F(7, 5),
                                 t * t / 2 - t / 3)),
        (hyp("1F1", (F(2, 3),), (F(4, 3),),
             add(mul(num(-1), power(X, 2)), mul(num(F(1, 2)), X))),
         lambda t: mpmath.hyp1f1(F(2, 3), F(4, 3), -t * t + t / 2)),
        (hyp("0F1", (), (F(3, 2),), mul(num(F(-1, 9)), power(X, 3))),
         lambda t: mpmath.hyp0f1(F(3, 2), -t ** 3 / 9)),
        (legendre("P", F(3, 2), add(mul(num(2), X), num(F(-1, 3)))),
         lambda t: mpmath.legendre(F(3, 2), 2 * t - F(1, 3))),
    ])
    def test_matches_mpmath(self, node, ref):
        for z in (0.41 + 0.13j, 0.27, 0.6 - 0.2j):
            with mpmath.workdps(30):
                want = [complex(mpmath.diff(ref, mpmath.mpc(z), n))
                        for n in range(3)]
            for g, w in zip(_compile_jet(node)(z), want):
                assert abs(g - w) <= 1e-12 * max(1.0, abs(w))

    def test_undefined_second_derivative_raises_before_any_point(
            self, monkeypatch):
        # term 2 of 1F1(1/2; -1; x) divides by (-1)_2 = 0, so no point
        # evaluates y; the jet's rule refuses the series once
        calls = []

        def counted(*args):
            calls.append(args)
            return eval_pfq(*args)

        monkeypatch.setattr(numverify, "eval_pfq", counted)
        s = mul(X, hyp("1F1", (F(1, 2),), (F(-1),), X, degenerate=True))
        with pytest.raises(ValueError, match="lower parameter -1"):
            residual_check(parse_ode("y'' = 0"), s, 8)
        assert calls == []
        residual_check(parse_ode("y'' = 0"), parse_solution(
            "hypergeom([1/2], [3/2], x)"), 1)
        assert calls


class TestRefusalsBeforeSampling:
    """The jet's one walk over a solution refuses what no point could
    evaluate, so residual_check draws no sample point for it."""

    BEYOND = ("no sample point is admissible: the constant "
              "10000000000000000000...00000000 (401 characters) is beyond "
              "double range")

    @pytest.fixture(autouse=True)
    def no_sampling(self, monkeypatch):
        def sample(*args):
            raise AssertionError("a sample point was drawn")

        monkeypatch.setattr(numverify, "_candidate_points", sample)

    # (solution, error type, message); each test is named by its solution
    REFUSALS = [
        ("Int(x, x)", UnevaluatedIntegral,
         "solution contains an unevaluated integral; exclude it from "
         "pointwise residual checks"),
        ("exp(10^400*x)", SamplingFailed, BEYOND),
        ("hypergeom([],[-2],x)", ValueError,
         "0F1 with lower parameter -2 has no value: no upper parameter "
         "ends the series before its terms divide by zero"),
        ("LegendreQ(-2, x)", SamplingFailed,
         "no sample point is admissible: LegendreQ degree -2 has no "
         "finite value"),
        ("LegendreQ(2+I, x)", SamplingFailed,
         "no sample point is admissible: LegendreQ degree 2+I is not "
         "real"),
        ("LegendreQ(-3/2, x)", SamplingFailed,
         "no sample point is admissible: the gamma of LegendreQ's "
         "normalization has a pole at degree -3/2"),
        ("LegendreQ(10^307, x)", SamplingFailed,
         "no sample point is admissible: the log-gamma of LegendreQ's "
         "normalization is beyond double range"),
        # the walk meets a node's own numbers before its children, and
        # children from left to right
        ("10^400*Int(x, x)", SamplingFailed, BEYOND),
        ("hypergeom([10^400], [-2], x)", SamplingFailed, BEYOND),
        ("LegendreQ(-2, 10^400*x)", SamplingFailed,
         "no sample point is admissible: LegendreQ degree -2 has no "
         "finite value"),
        ("x/10^400", SamplingFailed,
         "no sample point is admissible: the constant "
         "1/100000000000000000...00000000 (403 characters) underflows "
         "double range"),
        # no gamma argument is a pole, but v + 1 rounds to one as a double
        ("LegendreQ(-10^20-1/3, 3*x)", SamplingFailed,
         "no sample point is admissible: doubles cannot resolve the gamma "
         "of LegendreQ's normalization at degree "
         "-300000000000000000001/3"),
    ]

    @pytest.mark.parametrize("solution, error, message", REFUSALS,
                             ids=[row[0] for row in REFUSALS])
    def test_refused_with_its_type_and_message(self, solution, error,
                                               message):
        with pytest.raises((ValueError, SamplingFailed)) as info:
            residual_check(parse_ode("y'' = 0"), parse_solution(solution), 8)
        assert type(info.value) is error
        assert str(info.value) == message
        payload, code = cmd_verify("y'' = 0", solution)
        assert code == 1
        assert payload["error"] == {"type": "verification_impossible",
                                    "message": message}


@st.composite
def power_equations(draw):
    """Equations whose denominators are x^j q(x^g), g in {2, 3, 4, 6}.

    q has a repeated factor, B shares a factor with A, and A sometimes
    lives on the carrier x^(1/2) or x^(1/3), as a GenRatFunc.
    """
    g = draw(st.sampled_from((2, 3, 4, 6)))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    lows = coeffs.filter(lambda c: abs(c) >= F(1, 4))

    def factor():
        cs = [draw(lows)] + [draw(coeffs) for _ in
                             range(draw(st.integers(0, 1)))] + [F(1)]
        return Poly(cs).substitute_power(g)

    shared, own_a, own_b = factor(), factor(), factor()
    x = Poly.x()
    den_a = x ** draw(st.integers(0, 2)) * shared ** 2 * own_a
    den_b = x ** draw(st.integers(0, 2)) * shared * own_b ** 2
    b = RatFunc(Poly.const(draw(lows)), den_b)
    carrier = draw(st.sampled_from((1, 1, 2, 3)))
    if carrier == 1:
        return LinearODE(RatFunc(x + 1, den_a), b)
    return LinearODE(GenRatFunc(RatFunc(x + 1, den_a), carrier), b)


class TestSingularPoints:
    @given(power_equations())
    @settings(max_examples=40, deadline=None)
    def test_search_in_x_to_the_g_finds_the_separate_roots(self, ode):
        want = self._separate_searches(ode)
        got = _singular_points(ode)
        for i, r in enumerate(got):
            assert all(abs(r - q) > 1e-9 for q in got[:i])
        for r in want:
            assert min(abs(r - g) for g in got) < 1e-10
        for g in got:
            assert min(abs(g - r) for r in want) < 1e-10

    def test_clustered_roots_search_the_cube(self, monkeypatch):
        # the poles of B are poles of A: x = 0 and the cube roots of
        # three t. The search on x, of degree 10, ran to the iteration cap
        ode = parse_ode(
            "y'' + (4*x^9 - 607/84*x^6 - 437/672*x^3 + 30/7)"
            "/(x^10 - 325/84*x^7 + 419/84*x^4 - 15/7*x)*y'"
            " + (11/224*x^4)/(x^12 - 437/84*x^9 + 2557/252*x^6"
            " - 554/63*x^3 + 20/7)*y = 0")
        degrees = []

        def counted(coeffs):
            degrees.append(len(coeffs) - 1)
            return poly_roots(coeffs)

        poly_roots = numverify._poly_roots
        monkeypatch.setattr(numverify, "_poly_roots", counted)
        got = _singular_points(ode)
        want = self._separate_searches(ode)
        assert degrees == [3]
        assert len(got) == 10
        for r in want:
            assert min(abs(r - g) for g in got) < 1e-10
        for g in got:
            assert min(abs(g - r) for r in want) < 1e-10

    def test_repeated_factors_give_accurate_roots(self):
        ode = parse_ode("y'' + (1/((x - 1/3)^3*(x^2 + 2)^2))*y' = 0")
        got = _singular_points(ode)
        exact = [1 / 3, 2 ** 0.5 * 1j, -(2 ** 0.5) * 1j]
        assert len(got) == 3
        for r in exact:
            assert min(abs(r - g) for g in got) < 1e-10

    @staticmethod
    def _separate_searches(ode):
        """The poles of A and B by mpmath, one coefficient at a time."""
        out = []
        for f in (ode.A, ode.B):
            fn, carrier = ((f.fn, f.carrier) if isinstance(f, GenRatFunc)
                           else (f, 1))
            den = fn.den // poly_gcd(fn.den, fn.den.deriv())
            roots = []
            if den.degree > 0:
                roots = [complex(r) for r in mpmath.polyroots(
                    den.complex_coeffs()[::-1], maxsteps=200, extraprec=60)]
            if carrier > 1:
                roots = [0j] + [r ** carrier for r in roots]
            out += roots
        return out

    @pytest.mark.parametrize("text, searches", [
        ("y'' + (1/(x*(x - 1)*(x^2 + 2)))*y'"
         " + (3/(x^2*(x - 1)^2*(x^2 + x + 1)))*y = 0", 1),
        ("y'' + x^(1/2)/(x - 2)*y' + 1/(x*(x + 3))*y = 0", 2),
        ("y'' + 1/x^40*y' + 1/x^40*y = 0", 1),
    ], ids=["shared-factors", "mixed-carriers", "pole-of-order-40"])
    def test_one_search_finds_the_union_of_separate_searches(
            self, monkeypatch, text, searches):
        ode = parse_ode(text)
        want = self._separate_searches(ode)
        calls = []

        def counted(coeffs):
            calls.append(coeffs)
            return poly_roots(coeffs)

        poly_roots = numverify._poly_roots
        monkeypatch.setattr(numverify, "_poly_roots", counted)
        got = _singular_points(ode)
        assert len(calls) == searches
        assert len(got) == len(set(got))
        for r in want:
            assert min(abs(r - g) for g in got) < 1e-10
        for g in got:
            assert min(abs(g - r) for r in want) < 1e-10

    def test_lcm_may_exceed_the_degree_cap(self):
        # each square-free denominator fits a cap of 3, their lcm does not
        def under_cap():
            DEGREE_CAP.set(3)
            return _singular_points(
                parse_ode("y'' + 1/(x^2 - 2)*y' + 1/(x^2 - 3)*y = 0"))

        got = contextvars.copy_context().run(under_cap)
        want = [2 ** 0.5, -(2 ** 0.5), 3 ** 0.5, -(3 ** 0.5)]
        assert len(got) == 4
        for r in want:
            assert min(abs(r - g) for g in got) < 1e-10


def _tree_value(f, z):
    """The coefficient as the expression tree the oracle once evaluated."""
    try:
        return eval_expr(ratfunc_to_expr(f), z)
    except PointRejected:
        return None


def _horner_value(f, z):
    try:
        return _coefficient(f)(z)
    except PointRejected:
        return None


class TestCoefficients:
    X1 = RatFunc(Poly.x())
    COEFFICIENTS = [
        RatFunc.const(F(-7, 3)),
        (X1 ** 2 + 1) / 4,
        3 / X1 ** 3,
        (X1 - 2) / (X1 ** 2 - X1 / 3),
        (X1 + GaussRat(1, 2)) / (X1 ** 2 + 1),
        GenRatFunc(RatFunc(Poly((F(1), F(0), F(2)))), 3),
        GenRatFunc(1 / RatFunc(Poly((F(0), F(0), F(1)))), 3),
        GenRatFunc(RatFunc(Poly((F(1), F(1))), Poly((F(-1, 4), F(0), F(1)))),
                   2),
    ]
    POINTS = [0.7 + 0.2j, -1.3 + 0.4j, 2.5 - 1j, 1e-10 + 0j, 1e-4 + 1e-4j,
              0.5 + 1e-12j, 1j, 1 / 3 + 1e-11j, 0.25 + 1e-12j]

    @pytest.mark.parametrize("f", COEFFICIENTS)
    def test_matches_the_expression_tree(self, f):
        for z in self.POINTS:
            want, got = _tree_value(f, z), _horner_value(f, z)
            assert (want is None) == (got is None), z
            if want is not None:
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_power_of_x_is_guarded_at_x_only(self):
        # |z^3| is far below the pole guard, |z| is not
        assert _horner_value(3 / self.X1 ** 3, 1e-4 + 1e-4j) is not None
        assert _horner_value(3 / self.X1 ** 3, 1e-10 + 0j) is None

    @pytest.mark.parametrize("ode", [
        "y'' + 7^(1400)*y = 0", "y'' + 7^(1400)/(x - 1)*y' = 0",
        "y'' + 1/(x - 7^(1400))*y' = 0"])
    def test_coefficient_beyond_double_range_admits_no_point(self, ode):
        with pytest.raises(SamplingFailed, match="only 0 of 8"):
            residual_check(parse_ode(ode), parse_solution("x"), 8)


class TestResidualCheck:
    def test_straight_line_solution_is_exact(self):
        rep = residual_check(parse_ode("y'' = 0"),
                             parse_solution("C1 + C2*x"), 8)
        assert rep.max_residual == 0.0
        assert len(rep.points) == 8

    def test_worked_example_pair(self):
        ode = parse_ode(WORKED_ODE)
        pair = assemble(solve_equivalence(ode))
        for s in (pair.y1, pair.y2):
            assert residual_check(ode, s, 8).max_residual < 1e-7

    def test_legendre_pair(self):
        ode = parse_ode(LEGENDRE_ODE)
        pair = assemble(solve_equivalence(ode))
        for s in (pair.y1, pair.y2):
            assert residual_check(ode, s, 8).max_residual < 1e-7

    def test_kummer_class_pair_with_complex_parameters(self):
        ode = parse_ode(CUBIC_DRIFT_ODE)
        pair = assemble(solve_equivalence(ode))
        for s in (pair.y1, pair.y2):
            assert residual_check(ode, s, 8).max_residual < 1e-7

    def test_fractional_power_coefficients(self):
        ode = parse_ode("y'' = (5/16/x^2 + 9/4*x)*y")
        pair = assemble(solve_equivalence(ode))
        for s in (pair.y1, pair.y2):
            assert residual_check(ode, s, 8).max_residual < 1e-7

    def test_fractional_power_input_samples_the_right_half_plane(self):
        # the only singular point is the branch point x = 0, so the
        # ladder's scale is 1 and every point keeps Re x >= 0.05
        payload, code = cmd_solve("y'' + x^(1/2)*y = 0", verify=True)
        assert code == 0
        assert payload["witness"]["class"] == "0F1"
        for name in ("y1", "y2"):
            points = payload["residuals"][name]["points"]
            assert len(points) == 8
            assert all(p["z"][0] >= 0.05 for p in points)

    def test_half_plane_rule_holds_on_the_ladder_and_the_rings(self):
        # rings around x = 0 cross the imaginary axis; the rule drops
        # their left halves relative to the distance d = 1
        points = [z for z, _ in _candidate_points([0j], True)]
        assert all(z.real >= 0.05 for z in points)
        assert any(abs(z) < 0.5 for z in points)
        both = [z for z, _ in _candidate_points([0j], False)]
        assert any(z.real < 0.05 for z in both)

    @pytest.mark.parametrize("fractional", [False, True])
    def test_points_depend_on_the_singular_set_alone(self, fractional):
        # the rings share one generator, drawn in the set's sorted order
        bad = [0j, 1 + 0j, -0.5 + 0.8660254037844386j,
               -0.5 - 0.8660254037844386j, 2.5j, 1 + 1e-12j]
        want = list(_candidate_points(bad, fractional))
        for order in ([5, 4, 3, 2, 1, 0], [2, 0, 5, 3, 1, 4],
                      [3, 2, 1, 0, 5, 4]):
            assert list(_candidate_points(
                [bad[i] for i in order], fractional)) == want

    def test_corrupted_parameter_is_loud(self):
        ode = parse_ode(WORKED_ODE)
        pair = assemble(solve_equivalence(ode))

        def bump(e):
            if isinstance(e, Hyp):
                up = (e.upper[0] + F(1, 10),) + e.upper[1:]
                return hyp(e.kind, up, e.lower, e.arg, degenerate=True)
            if isinstance(e, Mul):
                return Mul(tuple(bump(f) for f in e.factors))
            if isinstance(e, Add):
                return Add(tuple(bump(t) for t in e.terms))
            if isinstance(e, Pow):
                return Pow(bump(e.base), e.exponent)
            return e

        rep = residual_check(ode, bump(pair.y1), 8)
        assert rep.max_residual > 1e-3

    def test_integral_solutions_are_refused(self):
        with pytest.raises(ValueError):
            residual_check(parse_ode("y'' = 0"), Intg(X), 4)

    def test_sampling_failure_is_detected(self):
        # the constant argument 5 leaves the disc and Pfaff's at every point
        blocked = hyp("2F1", (F(1), F(1)), (F(2),), num(5))
        with pytest.raises(SamplingFailed):
            residual_check(parse_ode("y'' = 0"), blocked, 8)

    def test_a_large_linear_argument_gets_a_verdict(self):
        # 100x is small only within about 0.008 of 0, where the ladder
        # never lands; its preimages of |w| = 0.4 lie at |x| = 0.004
        payload, code = cmd_verify("y'' = 0", "hypergeom([1, 1], [2], 100*x)")
        assert code == 2
        assert all(abs(complex(*p["z"])) == pytest.approx(0.004)
                   for p in payload["residual_report"]["points"])

    @pytest.mark.parametrize("solution, code", [
        ("hypergeom([9/5, 1/8], [-5/4], ((3/2)*x + 3/2)/(x + 5/4))", 0),
        ("(((3/2)*x + 3/2)/(x + 5/4))^(9/4)"
         "*hypergeom([19/8, 81/20], [13/4], ((3/2)*x + 3/2)/(x + 5/4))", 0),
        ("hypergeom([19/10, 1/8], [-5/4], ((3/2)*x + 3/2)/(x + 5/4))", 2),
    ], ids=["y1", "y2", "control"])
    def test_rings_around_a_singular_point_give_a_verdict(self, solution,
                                                          code):
        # seed-5 draw 297 of the verify-given benchmark: 2F1(9/5, 1/8;
        # -5/4) along M = (6x+6)/(4x+5), k = 1. M is small only near
        # x = -1, where no point of the ladder lands
        ode = ("y'' + (2*x^2 + 931/160*x + 159/40)/(x^3 + 11/4*x^2"
               " + 19/8*x + 5/8)*y' + (27/640)/(x^4 + 4*x^3 + 93/16*x^2"
               " + 115/32*x + 25/32)*y = 0")
        payload, got = cmd_verify(ode, solution)
        assert got == code
        assert len(payload["residual_report"]["points"]) == 8

    def test_reports_are_deterministic(self):
        ode = parse_ode(WORKED_ODE)
        pair = assemble(solve_equivalence(ode))
        assert residual_check(ode, pair.y1, 6) == residual_check(
            ode, pair.y1, 6)

    def test_report_shape_and_json(self):
        ode = parse_ode(WORKED_ODE)
        pair = assemble(solve_equivalence(ode))
        rep = residual_check(ode, pair.y1, 5)
        assert isinstance(rep, ResidualReport)
        assert len(rep.points) == 5 == len(rep.residuals)
        assert rep.max_residual == max(rep.residuals)
        assert all(isinstance(p, EvalPoint) and p.radius_guard > 0
                   for p in rep.points)
        data = json.loads(json.dumps(rep.to_json()))
        assert data["max_residual"] == rep.max_residual
        assert len(data["points"]) == 5
        assert data["points"][0]["z"] == [rep.points[0].z.real,
                                          rep.points[0].z.imag]


def _moebius_of_power(k):
    """(t - 1)/(t + 1) at t = x^k, as a solution tree: |w| < 1 has its
    preimages at Re t > 0, where some g-th root is principal."""
    t = power(X, k)
    return mul(add(t, num(-1)), power(add(t, num(1)), -1))


class TestPreimages:
    """Before the ladder, the sampler draws the points where each 2F1
    argument takes the values of numverify._TARGETS."""

    @pytest.mark.parametrize("arg", [
        "100*x",
        "((3/2)*x + 3/2)/(x + 5/4)",
        "(3*x^2 - 1)/(x^2 + 2)",
        "2/x^3",
        "(I*x + 1)/(x - 2)",
        "(2*x^(1/2) - 2)/(x^(1/2) + 1/3)",
        "((3/5)*x^(2/3) - 4/5)/(x^(2/3) + 2/5)",
    ])
    def test_each_preimage_takes_its_target(self, arg):
        tree = parse_solution(arg)
        points = _preimages(tree)
        assert points
        value = _compile_jet(tree)
        for z in points:
            r = value(z)[0]
            assert min(abs(r - w) / max(1.0, abs(w))
                       for w in numverify._TARGETS) <= 1e-9

    @pytest.mark.parametrize("k", FRACTIONAL_K, ids=str)
    def test_fractional_powers_take_the_principal_root(self, k):
        # M(s^p) with s the principal x^(1/L) must be a target; another
        # L-th root of x gives another value of M
        points = _preimages(_moebius_of_power(k))
        assert points
        for z in points:
            t = (z ** (1.0 / k.denominator)) ** k.numerator
            r = (t - 1) / (t + 1)
            assert min(abs(r - w) for w in numverify._TARGETS) <= 1e-9

    @pytest.mark.parametrize("arg", [
        parse_solution("exp(x)"),
        parse_solution("x^2 + x"),
        parse_solution("(x + 1)^(1/2)"),
        parse_solution("5"),
        parse_solution("10^400*x + 1"),              # beyond double range
        Pow(add(X, num(1)), F(100)),                  # past DEGREE_CAP
        Mul((Num(F(10) ** 2000), X)),                 # past COEFF_BITS
        Pow(Add((X, Mul((Num(F(-1)), X)))), F(-1)),   # 1/0
    ], ids=["exp", "quadratic", "root-of-sum", "constant", "overflow",
            "degree", "coefficient", "zero-division"])
    def test_other_arguments_draw_no_points(self, arg):
        assert _preimages(arg) == []
        bad = [1 + 0j, -2j]
        assert (list(_candidate_points(bad, False, [arg]))
                == list(_candidate_points(bad, False)))

    def test_a_member_whose_argument_avoids_both_discs_still_fails(self):
        # k = -1/2: M(s) = (2s + 2)/(s + 1/3) takes no value with |w| <= 0.8
        # or |w/(w-1)| <= 0.8 for Re s > 0, so neither the preimages nor
        # the ladder admit a point (the 1/z or 1-z connection formulas
        # would)
        ode = ("y'' + ((3/2*x^(3/2) + 83/60*x + 59/180*x^(1/2) + 5/18)"
               "/(x^(5/2) + 3*x^2 + 23/9*x^(3/2) + 5/9*x))*y'"
               " + ((16/45)/(x^3 + 10/3*x^(5/2) + 32/9*x^2 + 38/27*x^(3/2)"
               " + 5/27*x))*y = 0")
        member = ("hypergeom([2, 4/5], [-3/4], "
                  "(2*x^(1/2) + 2)/(x^(1/2) + 1/3))")
        with pytest.raises(SamplingFailed):
            residual_check(parse_ode(ode), parse_solution(member), 8)
        payload, code = cmd_verify(ode, member)
        assert code == 1
        assert payload["error"]["message"] == (
            "only 0 of 8 sample points were admissible")

    def test_corpus_gauss_members_stay_within_the_point_budget(
            self, monkeypatch):
        # eval_pfq calls over both members of every integral-free 2F1
        # entry of the bundled corpus: 220 with the preimages (8 per
        # member, 62 for each Legendre y1, whose series are not steered)
        # against 342 from the ladder alone; the bound leaves 30 calls
        calls = []
        real = numverify.eval_pfq

        def counted(*args):
            calls.append(args)
            return real(*args)

        members = 0
        for entry in load_corpus():
            payload, code = cmd_solve(entry.ode_text)
            if (code or payload["witness"]["class"] != "2F1"
                    or not payload["solutions"]["integral_free"]):
                continue
            ode = parse_ode(entry.ode_text)
            for name in ("y1", "y2"):
                s = parse_solution(payload["solutions"][name])
                monkeypatch.setattr(numverify, "eval_pfq", counted)
                residual_check(ode, s, 8)
                monkeypatch.setattr(numverify, "eval_pfq", real)
                members += 1
        assert members == 14
        assert len(calls) <= 250


class TestRelativeGate:
    """The residual is |y'' + A y' + B y| over the largest of its three
    terms, so neither a constant factor of y nor the scale of the
    equation can carry a wrong solution through the gate."""

    @pytest.mark.parametrize("ode, solution", [
        ("y'' + y = 0", "1/10^10"),
        ("y'' + 1/(x - 10^8)*y = 0", "1"),
    ])
    def test_small_or_far_wrong_solutions_fail(self, ode, solution):
        payload, code = cmd_verify(ode, solution)
        assert code == 2
        assert payload["residual_report"]["max_residual"] == 1.0

    def test_the_zero_solution_admits_no_point(self):
        # 0 solves every equation, but a jet of zeros is no evidence
        payload, code = cmd_verify("y'' + y = 0", "0")
        assert code == 1
        assert payload["error"] == {
            "type": "verification_impossible",
            "message": "only 0 of 8 sample points were admissible; the "
                       "values underflowed or overflowed at 600 of the points "
                       "tried"}

    def test_a_member_that_underflows_everywhere_gets_no_verdict(self):
        # Legendre's equation at degree 1000: Q_1000 is below the
        # smallest double at nearly every point
        payload, code = cmd_solve(
            "x*(1-x)*y'' + (1-2*x)*y' + 1001000*y = 0", verify=True)
        assert code == 1
        assert "underflowed or overflowed" in payload["error"]["message"]


GATE_ODES = (WORKED_ODE, LEGENDRE_ODE, CUBIC_DRIFT_ODE,
             "x*y'' + (1/2 - x)*y' - 1/3*y = 0",
             "x^2*y'' + x*y' + (x^2 - 1/9)*y = 0")


def _gate_cases():
    """(equation, solution text, exit code) for both members of each
    equation in GATE_ODES and a control per member, which multiplies it
    by 1 + x/10."""
    out = []
    for ode in GATE_ODES:
        payload, _ = cmd_solve(ode)
        for member in ("y1", "y2"):
            s = payload["solutions"][member]
            out.append((ode, s, 0))
            out.append((ode, "(%s)*(1 + x/10)" % s, 2))
    return out


GATE_CASES = _gate_cases()


def _scaled(text, j):
    return "10^%d*(%s)" % (j, text) if j >= 0 else "(%s)/10^%d" % (text, -j)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(GATE_CASES), st.integers(-300, 300))
def test_a_constant_factor_never_moves_the_verdict(case, j):
    ode, solution, code = case
    assert cmd_verify(ode, solution)[1] == code
    payload, got = cmd_verify(ode, _scaled(solution, j))
    if got == 1:
        # near 10^+-300 the jet leaves double range
        assert abs(j) >= 280
        assert ("underflow" in payload["error"]["message"]
                or "overflow" in payload["error"]["message"])
    else:
        assert got == code


@settings(max_examples=60, deadline=None)
@given(st.integers(-300, 300),
       st.sampled_from(["1", "x", "x^2", "1 + x", "exp(x)", "x^(1/2)"]),
       st.integers(-300, 300))
def test_a_far_centre_never_passes_a_wrong_solution(j, solution, k):
    ode = "y'' + 1/(x - %s)*y = 0" % _scaled("1", j)
    assert cmd_verify(ode, _scaled(solution, k))[1] != 0
