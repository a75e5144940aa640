"""Numeric evaluation and residual oracle tests.

The series evaluator is cross-checked three independent ways: exact
rising-factorial partial sums, mpmath reference values, and a power
series continuation oracle that rebuilds a solution value from the
equation itself. The residual checker is then exercised on known good
solutions and on deliberately corrupted ones.
"""

import cmath
import json
import math
from fractions import Fraction as F
from itertools import islice

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperode.equivalence import solve_equivalence
from hyperode.errors import EvalDiverged, PointRejected, SamplingFailed
from hyperode.exactalg import GaussRat
from hyperode.numverify import (
    EvalPoint,
    ResidualReport,
    eval_expr,
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
    Mul,
    Pow,
    X,
    add,
    differentiate_expr,
    hyp,
    mul,
    num,
    parse_ode,
    parse_solution,
    power,
)
from hyperode.solutions import assemble

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
        assert eval_pfq("2F1", (F(1, 3), F(-2, 7)), (F(5, 4),), 0.0) == 1.0

    def test_kummer_with_equal_parameters_is_exp(self):
        got = eval_pfq("1F1", (F(5, 7),), (F(5, 7),), 0.3)
        assert abs(got - cmath.exp(0.3)) < 1e-12

    def test_geometric_series_instance(self):
        got = eval_pfq("2F1", (F(1), F(1)), (F(1),), 0.5)
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

    def test_gauss_disc_guard(self):
        with pytest.raises(EvalDiverged):
            eval_pfq("2F1", (F(1, 2), F(1, 2)), (F(1),), 0.81)

    def test_lower_nonpositive_integer_rejected(self):
        with pytest.raises(EvalDiverged):
            eval_pfq("1F1", (F(1, 2),), (F(-3),), 0.2)

    def test_terminating_upper_saves_bad_lower(self):
        got = eval_pfq("2F1", (F(-3), F(1)), (F(-5),), 0.5)
        want = sum(
            _to_complex(_exact_term((F(-3), F(1)), (F(-5),), F(1, 2), k))
            for k in range(4))
        assert abs(got - want) < 1e-14

    def test_divergence_budget(self):
        with pytest.raises(EvalDiverged):
            eval_pfq("1F1", (F(1),), (F(2),), 1e5)

    def test_matches_mpmath_at_complex_arguments(self):
        z = 0.31 - 0.44j
        got = eval_pfq("2F1", (F(1, 3), F(-1, 4)), (F(7, 5),), z)
        want = complex(mpmath.hyp2f1(F(1, 3), F(-1, 4), F(7, 5), z))
        assert abs(got - want) < 1e-13
        got = eval_pfq("1F1", (F(2, 3),), (F(4, 3),), 2.0 + 1.5j)
        want = complex(mpmath.hyp1f1(F(2, 3), F(4, 3), 2.0 + 1.5j))
        assert abs(got - want) < 1e-12
        got = eval_pfq("0F1", (), (F(3, 2),), -4.7 + 0.2j)
        want = complex(mpmath.hyp0f1(F(3, 2), -4.7 + 0.2j))
        assert abs(got - want) < 1e-12

    def test_gaussian_rational_parameters(self):
        a = GaussRat(F(2, 3), F(1, 6))
        b = GaussRat(F(2, 3), F(-1, 6))
        got = eval_pfq("2F1", (a, b), (F(4, 3),), 0.25)
        want = complex(mpmath.hyp2f1(
            mpmath.mpc(2, 0.5) / 3, mpmath.mpc(2, -0.5) / 3, F(4, 3), 0.25))
        assert abs(got - want) < 1e-12


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
        blocked = hyp("2F1", (F(1), F(1)), (F(2),), mul(num(100), X))
        with pytest.raises(SamplingFailed):
            residual_check(parse_ode("y'' = 0"), blocked, 8)

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
