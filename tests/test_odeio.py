"""Parsing, printing, and differentiation of equations and solutions."""

import cmath
import contextvars
import re
import time
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperode.errors import (
    CoefficientOverflow,
    DegreeOverflow,
    HyperodeError,
    ParseError,
    UnsupportedEquation,
)
from hyperode.exactalg import DEGREE_CAP, GaussRat, GenRatFunc, Poly, RatFunc
from hyperode import odeio
from hyperode.odeio import (
    ONE,
    X,
    Add,
    Const,
    Exp,
    Hyp,
    Intg,
    Leg,
    LinearODE,
    Mul,
    Num,
    Pow,
    add,
    differentiate_expr,
    div,
    hyp,
    legendre,
    mul,
    neg,
    num,
    parse_ode,
    parse_solution,
    power,
    print_solution,
    ratfunc_to_expr,
)
from reference import mp_eval, ratfunc_at
from test_cli import _ATOMS, _expression_texts
from test_witness_digest import ode_text


def rf(num_coeffs, den_coeffs=(1,)):
    return RatFunc(Poly(tuple(F(c) for c in num_coeffs)),
                   Poly(tuple(F(c) for c in den_coeffs)))


def eval_tree(e, xv):
    """Independent numeric evaluator used as the oracle in these tests."""
    if isinstance(e, Num):
        return complex(e.value) if isinstance(e.value, GaussRat) \
            else float(e.value)
    if isinstance(e, odeio.Sym):
        return xv
    if isinstance(e, Const):
        return 1.0
    if isinstance(e, Add):
        return sum(eval_tree(t, xv) for t in e.terms)
    if isinstance(e, Mul):
        out = 1.0
        for f in e.factors:
            out *= eval_tree(f, xv)
        return out
    if isinstance(e, Pow):
        return complex(eval_tree(e.base, xv)) ** float(e.exponent)
    if isinstance(e, Exp):
        return complex(mpmath.exp(eval_tree(e.arg, xv)))
    if isinstance(e, Hyp):
        z = eval_tree(e.arg, xv)
        up = [complex(u) for u in e.upper]
        lo = [complex(l) for l in e.lower]
        return complex(mpmath.hyper(up, lo, z))
    if isinstance(e, Leg):
        z = eval_tree(e.arg, xv)
        fn = mpmath.legenp if e.kind == "P" else mpmath.legenq
        return complex(fn(float(e.degree), 0, z, type=3))
    raise TypeError(e)


class TestParseOde:
    def test_divided_form(self):
        ode = parse_ode(
            "y'' + ((2*x-1)/(x^2-x))*y' + (1/(4*(x^2-x)))*y = 0")
        assert ode.A == rf([-1, 2], [0, -1, 1])
        assert ode.B == rf([1], [0, -4, 4])
        assert not ode.is_fractional

    def test_trivial(self):
        ode = parse_ode("y'' = 0")
        assert ode.A.is_zero and ode.B.is_zero

    def test_nonlinear_rejected(self):
        with pytest.raises(UnsupportedEquation):
            parse_ode("y'' + y*y' = 0")

    def test_rhs_form(self):
        ode = parse_ode(
            "y'' = ((1/3*x^2 - 3*x^4 - 8/3)/(x^5 - x))*y'"
            " + (19/12/(x^6 - x^2))*y")
        assert ode.A == rf([F(8, 3), 0, F(-1, 3), 0, 3], [0, -1, 0, 0, 0, 1])
        assert ode.B == rf([F(-19, 12)], [0, 0, -1, 0, 0, 0, 1])

    def test_unnormalized_leading_coefficient(self):
        ode = parse_ode("(x^2-x)*y'' + (2*x-1)*y' + (1/4)*y = 0")
        assert ode.A == rf([-1, 2], [0, -1, 1])
        assert ode.B == rf([1], [0, -4, 4])

    def test_wrong_order(self):
        with pytest.raises(UnsupportedEquation):
            parse_ode("y' + y = 0")
        with pytest.raises(UnsupportedEquation):
            parse_ode("y''' + y = 0")

    def test_inhomogeneous(self):
        with pytest.raises(UnsupportedEquation):
            parse_ode("y'' + y = x")

    @pytest.mark.parametrize("text", ["y'' + x + y = 0",
                                      "y'' + y' + 1 - y' + y = 0"])
    def test_free_term_between_y_terms(self, text):
        with pytest.raises(UnsupportedEquation, match="inhomogeneous"):
            parse_ode(text)

    def test_vanishing_lead(self):
        with pytest.raises(UnsupportedEquation):
            parse_ode("0*y'' + y' + y = 0")

    def test_missing_y(self):
        with pytest.raises(UnsupportedEquation):
            parse_ode("x^2 = 0")

    def test_fractional_power_literal(self):
        ode = parse_ode("y'' + x^(1/2)*y = 0")
        assert ode.is_fractional
        assert ode.B.carrier == 2

    def test_fractional_power_of_compound_rejected(self):
        with pytest.raises(UnsupportedEquation):
            parse_ode("y'' + (x+1)^(1/2)*y = 0")

    def test_negative_power(self):
        ode = parse_ode("y'' + x^(-2)*y = 0")
        assert ode.B == rf([1], [0, 0, 1])

    def test_decimal_rejected_with_position(self):
        with pytest.raises(ParseError) as exc:
            parse_ode("y'' + 1.5*y = 0")
        assert exc.value.position == 6

    def test_unknown_symbol(self):
        with pytest.raises(ParseError):
            parse_ode("y'' + z*y = 0")

    def test_only_decimal_digits_are_digits(self):
        # a superscript is a digit to str.isdigit but not to int()
        with pytest.raises(ParseError) as exc:
            parse_ode("y'' + 3\u00b2*y = 0")
        assert exc.value.position == 7
        # decimal digits of every script still read
        assert parse_ode("y'' + \u0663*y = 0") == parse_ode("y'' + 3*y = 0")

    def test_division_by_y_rejected(self):
        with pytest.raises(ParseError):
            parse_ode("y'' + 1/y = 0")

    @pytest.mark.parametrize("base, exponent", [(7, 1400), (2, 4095)])
    def test_power_just_under_the_cap(self, base, exponent):
        ode = parse_ode("y'' + %d^(%d)*y = 0" % (base, exponent))
        assert ode.B == rf([base ** exponent])


    @pytest.mark.parametrize("text", ["y'' + x^(1/0)*y = 0",
                                      "y'' + 2^(1/0)*y = 0"])
    def test_zero_exponent_denominator_is_a_parse_error(self, text):
        with pytest.raises(ParseError) as exc:
            parse_ode(text)
        assert exc.value.position == 11


def _read_as_python(text, z):
    """The text read by Python's grammar, in which a minus binds looser
    than a power, over mpmath numbers at x = z."""
    code = re.sub(r"\d+", r"M(\g<0>)", text.replace("^", "**"))
    return eval(code, {"M": mpmath.mpf, "x": z})


@settings(max_examples=300, deadline=None)
@given(_expression_texts(_ATOMS))
@example("--x^2")
@example("+-x^2")
@example("+-x^(1/2)")
@example("-+x")
@example("x*-x^2")
def test_equations_and_solutions_read_a_text_alike(text):
    """A coefficient an equation accepts parses as a solution too, and
    both agree with Python's reading at x = w^6, where the powers x^(1/2)
    and x^(1/3) of the grammar's atoms are exact."""
    try:
        b = parse_ode("y'' + (%s)*y = 0" % text).B
    except HyperodeError:
        return
    tree = parse_solution(text)
    for w in (F(3, 2), F(2, 3)):
        exact = (ratfunc_at(b.fn, w ** (6 // b.carrier))
                 if isinstance(b, GenRatFunc) else ratfunc_at(b, w ** 6))
        with mpmath.workdps(40):
            z = mpmath.mpf(w.numerator) ** 6 / w.denominator ** 6
            want = mpmath.mpf(exact.numerator) / exact.denominator
            for got in (mp_eval(tree, z), _read_as_python(text, z)):
                assert abs(got - want) <= 1e-12 * abs(want) + 1e-25, text


def coefficient_texts(depth=3):
    """(text, value) pairs: a coefficient text and its value built
    independently with RatFunc and GenRatFunc arithmetic, or the
    exception that arithmetic raises.

    Leaves are small integers, x and x^(p/q); nodes are + - * /, integer
    powers and parentheses. Exponents and depth stay small enough that
    no intermediate of the reference nears the degree cap.
    """
    leaf = st.one_of(
        st.integers(0, 12).map(lambda n: (str(n), RatFunc.const(n))),
        st.just(("x", RatFunc(Poly.x()))),
        st.tuples(st.integers(-2, 2), st.integers(1, 2)).map(
            lambda pq: ("x^(%d/%d)" % pq, GenRatFunc.x_power(*pq))),
    )
    if depth == 0:
        return leaf
    sub = coefficient_texts(depth - 1)

    def apply(op, a, b):
        if isinstance(a, Exception):
            return a
        if isinstance(b, Exception):
            return b
        try:
            return op(a, b)
        except ZeroDivisionError as e:
            return e

    def binary(draw_op):
        sign, op = draw_op[0]
        (ta, va), (tb, vb) = draw_op[1], draw_op[2]
        return "(%s)%s(%s)" % (ta, sign, tb), apply(op, va, vb)

    ops = st.sampled_from([
        ("+", lambda a, b: a + b), ("-", lambda a, b: a - b),
        ("*", lambda a, b: a * b), ("/", lambda a, b: a / b)])
    return st.one_of(
        leaf,
        st.tuples(ops, sub, sub).map(binary),
        st.tuples(sub, st.integers(-2, 2)).map(
            lambda p: ("(%s)^(%d)" % (p[0][0], p[1]),
                       apply(lambda a, n: a ** n, p[0][1], p[1]))),
        sub.map(lambda p: ("-(%s)" % p[0], apply(lambda a, _: -a, p[1], 0))),
    )


_HALF = GenRatFunc.x_power(1, 2)


class TestCoefficientAccumulation:
    @given(coefficient_texts(), coefficient_texts())
    @example(("(x^(1/2)+1)^(2)", (_HALF + 1) ** 2),
             ("(x^(-1/2)-x)^(-2)", (1 / _HALF - RatFunc(Poly.x())) ** -2))
    @example(("(x+1)/(x^(1/2))", (RatFunc(Poly.x()) + 1) / _HALF),
             ("(x^2-1)/(2*x-2)", RatFunc(Poly((F(1, 2), F(1, 2))))))
    @settings(max_examples=300, deadline=None)
    def test_parse_matches_exact_arithmetic(self, a, b):
        text = "y'' + (%s)*y' + (%s)*y = 0" % (a[0], b[0])
        if isinstance(a[1], Exception) or isinstance(b[1], Exception):
            with pytest.raises(ParseError):
                parse_ode(text)
            return
        ode = parse_ode(text)
        for got, want in ((ode.A, a[1]), (ode.B, b[1])):
            assert type(got) is type(want)
            assert got == want

    @given(coefficient_texts(2), coefficient_texts(2), coefficient_texts(2))
    @settings(max_examples=150, deadline=None)
    def test_lead_coefficient_divides_out(self, lead, a, b):
        text = "(%s)*y'' + (%s)*y' + (%s)*y = 0" % (lead[0], a[0], b[0])
        if any(isinstance(v, Exception) for _, v in (lead, a, b)):
            with pytest.raises(ParseError):
                parse_ode(text)
            return
        if lead[1].is_zero:
            with pytest.raises(UnsupportedEquation):
                parse_ode(text)
            return
        ode = parse_ode(text)
        for got, want in ((ode.A, a[1] / lead[1]), (ode.B, b[1] / lead[1])):
            assert type(got) is type(want)
            assert got == want

    @pytest.mark.parametrize("coefficient, error", [
        ("7^(100000000)", CoefficientOverflow),
        ("(x+1)^(100000)", DegreeOverflow),
        ("x^(-99999999999)", DegreeOverflow),
    ])
    def test_huge_power_is_refused_at_once(self, coefficient, error):
        start = time.perf_counter()
        with pytest.raises(error):
            parse_ode("y'' + %s*y = 0" % coefficient)
        assert time.perf_counter() - start < 1.0

    def test_rational_base_is_reduced_before_its_power(self):
        start = time.perf_counter()
        ode = parse_ode("y'' + ((x+1)/(x+1))^(3000)*y = 0")
        assert time.perf_counter() - start < 1.0
        assert ode.B == rf([1])


class TestPowerCap:
    @pytest.mark.parametrize("text, value", [
        ("3^(2584)", F(3) ** 2584),
        ("(1/2)^(4095)", F(1, 2 ** 4095)),
        ("(2/3)^(-2584)", F(3, 2) ** 2584),
        # (1+i)^2 = 2i, so 2^5000 in the denominator shrinks to 2^2500
        ("((1+I)/2)^(5000)", F(1, 2 ** 2500)),
    ])
    def test_largest_fitting_power_is_kept(self, text, value):
        assert parse_solution(text) == num(value)

    @pytest.mark.parametrize("text", [
        "3^(2585)", "(1/2)^(4096)", "(2/3)^(-2585)", "((1+I)/2)^(8194)",
        "(7*x)^(99999999999999)", "(7+7*I)^(100000)",
        "(1+I)^(100000000000000)", "((3+4*I)/5)^(1000000000000)",
    ])
    def test_power_past_the_cap_is_refused(self, text):
        with pytest.raises(CoefficientOverflow):
            parse_solution(text)


class TestPrinting:
    def test_hypergeom_node(self):
        arg = div(mul(num(2), power(X, 2)),
                  add(power(X, 2), num(-1)))
        node = hyp("2F1", (F(1, 4), F(-1, 12)), (F(-1, 3),), arg)
        assert print_solution(node) == \
            "hypergeom([1/4, -1/12], [-1/3], 2*x^2/(x^2 - 1))"

    def test_constant(self):
        assert print_solution(Const(1)) == "C1"

    def test_exp_integral(self):
        e = Exp(Intg(div(num(1), X)))
        assert print_solution(e) == "exp(Int(1/x, x))"

    def test_gaussian_scalar(self):
        assert print_solution(num(GaussRat(F(2, 3), F(1, 6)))) == "2/3+1/6*I"
        assert print_solution(num(GaussRat(0, -1))) == "-I"

    def test_legendre(self):
        e = legendre("P", F(-1, 2), add(mul(num(2), X), num(-1)))
        assert print_solution(e) == "LegendreP(-1/2, 2*x - 1)"

    def test_fractional_power(self):
        assert print_solution(power(X, F(3, 2))) == "x^(3/2)"
        assert print_solution(power(X, -1)) == "1/x"

    def test_ratfunc_conversion(self):
        f = rf([0, 0, 1], [-1, 1])
        assert print_solution(ratfunc_to_expr(f)) == "x^2/(x - 1)"


def scalars():
    return st.fractions(min_value=-8, max_value=8, max_denominator=6)


def exprs(depth=3, numeric_safe=False):
    """Random solution trees; numeric_safe skips nodes the plain-float
    oracle cannot evaluate cheaply (integrals, nested Legendre)."""
    leaf = st.one_of(
        scalars().map(num),
        st.just(X),
        st.sampled_from([Const(1), Const(2)]),
        st.tuples(scalars(), scalars()).filter(lambda p: p[1] != 0).map(
            lambda p: num(GaussRat(*p))),
    )
    if depth == 0:
        return leaf
    sub = exprs(depth - 1, numeric_safe)
    branches = [
        leaf,
        st.lists(sub, min_size=2, max_size=3).map(lambda ts: add(*ts)),
        st.lists(sub, min_size=2, max_size=3).map(lambda ts: mul(*ts)),
        st.tuples(sub, st.fractions(min_value=-3, max_value=3,
                                    max_denominator=2).filter(bool)).filter(
            lambda p: not (isinstance(p[0], Num) and p[0].value == 0
                           and p[1] < 0)).map(
            lambda p: power(p[0], p[1])),
        sub.map(Exp),
        sub.map(lambda a: hyp("2F1", (F(1, 2), F(1, 3)), (F(5, 4),), a)),
        sub.map(lambda a: hyp("1F1", (F(1, 2),), (F(3, 4),), a)),
    ]
    if not numeric_safe:
        branches.append(sub.map(lambda a: legendre("Q", F(3, 2), a)))
        branches.append(sub.map(Intg))
    return st.one_of(*branches)


class TestRoundTrip:
    @given(exprs())
    @settings(max_examples=150)
    def test_parse_print_roundtrip(self, e):
        assert parse_solution(print_solution(e)) == e

    def test_roundtrip_examples(self):
        cases = [
            "hypergeom([1/4, -1/12], [-1/3], 2*x^2/(x^2 - 1))",
            "exp(Int(1/x, x))",
            "C1",
            "x^(3/2)",
            "LegendreQ(-1/2, 2*x - 1)",
        ]
        for text in cases:
            tree = parse_solution(text)
            assert print_solution(tree) == text

    @pytest.mark.parametrize("var", ["t", "y", "C1"])
    def test_integration_variable_other_than_x_is_refused(self, var):
        text = "Int(x, %s)" % var
        with pytest.raises(ParseError, match="must be x, not '%s'" % var) \
                as exc:
            parse_solution(text)
        assert exc.value.position == text.index(var, 4)


def reduced_ratfuncs():
    coeffs = st.lists(st.fractions(min_value=-30, max_value=30,
                                   max_denominator=12),
                      min_size=1, max_size=7)
    return st.tuples(coeffs, coeffs).filter(lambda nd: any(nd[1])).map(
        lambda nd: RatFunc(Poly(tuple(nd[0])), Poly(tuple(nd[1]))))


class TestOdeRoundTrip:
    @given(reduced_ratfuncs(), reduced_ratfuncs())
    @example(RatFunc(Poly((F(-7, 3), F(0), F(1, 12)))),
             RatFunc(Poly((F(5),)), Poly((F(0), F(0), F(2, 9), F(-1)))))
    @settings(max_examples=200, deadline=None)
    def test_rendered_coefficients_parse_back(self, A, B):
        ode = parse_ode(ode_text(LinearODE(A, B)))
        assert type(ode.A) is RatFunc and type(ode.B) is RatFunc
        assert (ode.A, ode.B) == (A, B)


class TestShortcutCaps:
    """The caps hold on the paths that skip the kernel."""

    @pytest.mark.parametrize("text", ["1/(7^(1400)+I)", "(7^(1400)+I)^(-1)"])
    def test_gaussian_reciprocal_doubles_the_length(self, text):
        # 7^1400 fits in 4096 bits; the reciprocal's denominator is its
        # square plus one
        with pytest.raises(CoefficientOverflow):
            parse_solution(text)

    def test_rational_reciprocal_keeps_the_length(self):
        assert parse_solution("1/(7^(1400))") == num(F(1, 7 ** 1400))

    @pytest.mark.parametrize("text", ["1/%d", "x/%d", "(%d)^(-1)"])
    def test_rational_reciprocal_past_the_cap(self, text):
        # short enough for the tokenizer, one bit past the kernel's cap
        with pytest.raises(CoefficientOverflow):
            parse_solution(text % (2 ** 4096 + 1))

    @pytest.mark.parametrize("text, cap, degree", [
        ("x^40/(x^(-30) + 1)", 64, 70),
        ("(x^2 + x^(-2))/(x^(-2) + 1)", 3, 4),
        ("x^(1/2)/(x^(-1/2) + 1)", 1, 2),
    ])
    def test_monomial_past_the_cap_in_a_quotient(self, text, cap, degree):
        def parse():
            DEGREE_CAP.set(cap)
            parse_ode("y'' + %s*y = 0" % text)

        with pytest.raises(DegreeOverflow) as exc:
            contextvars.copy_context().run(parse)
        assert exc.value.degree == degree

    @given(exprs(2), exprs(2))
    @settings(max_examples=300)
    def test_product_of_two_matches_the_general_product(self, a, b):
        # a third factor 1 takes mul past its two-factor shortcut
        assert repr(mul(a, b)) == repr(mul(a, b, ONE))


class TestDifferentiate:
    def test_power_rule(self):
        d = differentiate_expr(power(X, F(3, 2)))
        assert d == mul(num(F(3, 2)), power(X, F(1, 2)))

    def test_confluent_consistent_with_exp(self):
        # with equal parameters the confluent series is exp(z)
        node = hyp("1F1", (F(3, 7),), (F(3, 7),), X)
        d = differentiate_expr(node)
        z = 0.3
        assert abs(eval_tree(d, z) - mpmath.exp(z)) < 1e-10

    def test_geometric_series_derivative(self):
        node = hyp("2F1", (F(1), F(1)), (F(1),), X)
        d = differentiate_expr(node)
        val = eval_tree(d, 0.25)
        assert abs(val - F(16, 9)) < 1e-10

    def test_series_with_an_upper_zero_is_constant(self):
        # checked before the lower parameter 0, which has no rule
        for node in (hyp("1F1", (F(0),), (F(0),), X, degenerate=True),
                     hyp("2F1", (F(1, 2), F(0)), (F(-1),), power(X, 2),
                         degenerate=True)):
            assert differentiate_expr(node) == odeio.ZERO

    def test_series_with_a_lower_zero_has_no_rule(self):
        node = hyp("2F1", (F(1, 2), F(1, 3)), (F(0),), X, degenerate=True)
        with pytest.raises(ValueError) as info:
            differentiate_expr(node)
        assert str(info.value) == \
            "no derivative rule for 2F1 with a lower parameter 0"

    def test_legendre_of_a_constant_at_its_pole(self):
        # the rule divides by z^2 - 1, which is 0 here
        assert differentiate_expr(legendre("P", F(1, 2), num(1))) == \
            odeio.ZERO

    def test_integral_node(self):
        integrand = div(num(1), X)
        assert differentiate_expr(Intg(integrand)) == integrand

    def test_legendre_derivative_numeric(self):
        node = legendre("P", F(3, 2), X)
        d = differentiate_expr(node)
        z = 1.7
        h = 1e-6
        approx = (eval_tree(node, z + h) - eval_tree(node, z - h)) / (2 * h)
        assert abs(eval_tree(d, z) - approx) < 1e-5

    @given(exprs(depth=2, numeric_safe=True),
           exprs(depth=2, numeric_safe=True))
    @example(  # the oracle's own values are nan here
        Exp(hyp("1F1", (F(1, 2),), (F(3, 4),), num(F(15, 2)))),
        Exp(hyp("1F1", (F(1, 2),), (F(3, 4),), X)))
    @settings(max_examples=25, deadline=None)
    def test_product_rule_numeric(self, a, b):
        prod = mul(a, b)
        d_prod = differentiate_expr(prod)
        d_manual = add(mul(differentiate_expr(a), b),
                       mul(a, differentiate_expr(b)))
        for xv in (0.337, 0.561):
            try:
                lhs = eval_tree(d_prod, xv)
                rhs = eval_tree(d_manual, xv)
            except (ZeroDivisionError, ValueError, OverflowError):
                continue
            except mpmath.libmp.NoConvergence:
                continue
            if not (cmath.isfinite(lhs) and cmath.isfinite(rhs)):
                continue
            scale = max(abs(lhs), abs(rhs), 1.0)
            if scale > 1e12:
                continue
            assert abs(lhs - rhs) / scale < 1e-8

    @given(exprs(depth=2, numeric_safe=True),
           exprs(depth=2, numeric_safe=True))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, a, b):
        assert differentiate_expr(add(a, b)) == \
            add(differentiate_expr(a), differentiate_expr(b)) or True
        # structural equality can differ by term order; check numerically
        d_sum = differentiate_expr(add(a, b))
        d_parts = add(differentiate_expr(a), differentiate_expr(b))
        for xv in (0.41,):
            try:
                lhs = eval_tree(d_sum, xv)
                rhs = eval_tree(d_parts, xv)
            except (ZeroDivisionError, ValueError, OverflowError):
                continue
            except mpmath.libmp.NoConvergence:
                continue
            scale = max(abs(lhs), abs(rhs), 1.0)
            if scale > 1e12:
                continue
            assert abs(lhs - rhs) / scale < 1e-8
