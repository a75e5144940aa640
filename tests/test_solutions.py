"""Solution assembly: model pairs, degenerate repair, witness pullback."""

from fractions import Fraction as F
from itertools import product

import mpmath
import pytest

from hyperode.exactalg import GaussRat, Poly, RatFunc
from hyperode.equivalence import (
    ExponentDifferences,
    seed_invariant,
    seed_ode,
    solve_equivalence,
    transformed_seed_ode,
)
from hyperode.invariants import INF, Mobius, transform_invariant
from hyperode.odeio import (
    ONE,
    Add,
    Const,
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
    power,
    print_solution,
    ratfunc_to_expr,
)
from hyperode.solutions import (
    SolutionPair,
    assemble,
    integral_fallback,
    repair_degenerate,
    seed_solutions,
    substitute_argument,
)


def rf(nums, dens=(1,)):
    return RatFunc(Poly(tuple(F(c) for c in nums)),
                   Poly(tuple(F(c) for c in dens)))


def _c(v):
    if isinstance(v, GaussRat):
        return complex(v.re) + 1j * complex(v.im)
    return complex(v)


def _eval(e, xv):
    """Independent mpmath-backed evaluator used as the numeric oracle."""
    from hyperode.odeio import Exp, Num, Sym

    if isinstance(e, Num):
        return _c(e.value)
    if isinstance(e, Sym):
        return complex(xv)
    if isinstance(e, Const):
        return 1.0 + 0j
    if isinstance(e, Add):
        return sum(_eval(t, xv) for t in e.terms)
    if isinstance(e, Mul):
        out = 1.0 + 0j
        for f in e.factors:
            out *= _eval(f, xv)
        return out
    if isinstance(e, Pow):
        return complex(mpmath.power(_eval(e.base, xv), _c(e.exponent)))
    if isinstance(e, Exp):
        return complex(mpmath.exp(_eval(e.arg, xv)))
    if isinstance(e, Hyp):
        return complex(mpmath.hyper([_c(u) for u in e.upper],
                                    [_c(l) for l in e.lower],
                                    _eval(e.arg, xv)))
    if isinstance(e, Leg):
        fn = mpmath.legenp if e.kind == "P" else mpmath.legenq
        return complex(fn(_c(e.degree), 0, _eval(e.arg, xv), type=3))
    raise TypeError(e)


def _residual(ode, y, points):
    a_expr = ratfunc_to_expr(ode.A)
    b_expr = ratfunc_to_expr(ode.B)
    d1 = differentiate_expr(y)
    d2 = differentiate_expr(d1)
    worst = 0.0
    for xv in points:
        r = (_eval(d2, xv) + _eval(a_expr, xv) * _eval(d1, xv)
             + _eval(b_expr, xv) * _eval(y, xv))
        scale = max(abs(_eval(y, xv)), abs(_eval(d1, xv)),
                    abs(_eval(d2, xv)), 1.0)
        worst = max(worst, abs(r) / scale)
    return worst


def _wronskian(y1, y2, xv):
    d1 = differentiate_expr(y1)
    d2 = differentiate_expr(y2)
    return _eval(y1, xv) * _eval(d2, xv) - _eval(y2, xv) * _eval(d1, xv)


INNER = (0.31 + 0.24j, -0.38 + 0.41j, 0.52 - 0.19j)
OUTER = (2.6 + 0.5j, -2.1 + 1.2j, 3.3 - 0.7j)


# The six argument symmetries of the full model equation, which the g2 and
# g3 branches of repair_degenerate use: each map permutes the singular
# points (0, 1, oo), sending point i to point perm[i], and so permutes the
# exponent differences (at 0, at 1, at oo) the same way.
SYMMETRIES = {
    "g1": (Mobius.from_ints(1, 0, 0, 1), (0, 1, 2)),
    "g2": (Mobius.from_ints(-1, 1, 0, 1), (1, 0, 2)),
    "g3": (Mobius.from_ints(0, 1, 1, 0), (2, 1, 0)),
    "g4": (Mobius.from_ints(0, 1, -1, 1), (1, 2, 0)),
    "g5": (Mobius.from_ints(1, -1, 1, 0), (2, 0, 1)),
    "g6": (Mobius.from_ints(1, 0, 1, -1), (0, 2, 1)),
}


def _compose(g, h):
    """Name of the symmetry acting like h followed by g."""
    m = SYMMETRIES[g][0].compose(SYMMETRIES[h][0]).canonical()
    return next(name for name, (n, _) in SYMMETRIES.items()
                if n.canonical() == m)


def _permute(perm, triple):
    return tuple(triple[i] for i in perm)


class TestAutomorphisms:
    def test_point_actions(self):
        points = (F(0), F(1), INF)
        for m, perm in SYMMETRIES.values():
            for i, p in enumerate(points):
                image = m.apply(p)
                want = points[perm[i]]
                assert (image is INF) if want is INF else (image == want)

    def test_identity_is_neutral(self):
        for g in SYMMETRIES:
            assert _compose(g, "g1") == g
            assert _compose("g1", g) == g

    def test_group_closure_and_permutation_consistency(self):
        for g, h in product(SYMMETRIES, SYMMETRIES):
            composed = _compose(g, h)
            gp, hp = SYMMETRIES[g][1], SYMMETRIES[h][1]
            assert SYMMETRIES[composed][1] == tuple(gp[j] for j in hp)

    def test_every_member_has_an_inverse(self):
        for g in SYMMETRIES:
            assert any(_compose(g, h) == "g1" for h in SYMMETRIES)

    def test_composition_spot_checks(self):
        # 1 - 1/x = (x-1)/x and 1/(1-x) respectively
        assert _compose("g2", "g3") == "g5"
        assert _compose("g3", "g2") == "g4"
        assert _compose("g3", "g3") == "g1"

    def test_permute(self):
        # pulling the model invariant back along a symmetry permutes its
        # exponent differences
        for triple in ((F(1, 3), F(1, 5), F(2, 7)), (F(0), F(1, 2), F(3))):
            before = seed_invariant(
                "2F1", ExponentDifferences(*triple).parameters())
            for m, perm in SYMMETRIES.values():
                after = seed_invariant("2F1", ExponentDifferences(
                    *_permute(perm, triple)).parameters())
                assert transform_invariant(before, m) == after


class TestSeedSolutions:
    def test_full_model_shape(self):
        pair = seed_solutions("2F1", {"a": F(1, 3), "b": F(1, 5),
                                      "c": F(1, 7)})
        assert pair.y1 == hyp("2F1", (F(1, 3), F(1, 5)), (F(1, 7),), X)
        assert pair.y2 == mul(
            power(X, F(6, 7)),
            hyp("2F1", (F(1, 5) - F(1, 7) + 1, F(1, 3) - F(1, 7) + 1),
                (2 - F(1, 7),), X))
        assert not pair.degenerate
        assert pair.integral_free and pair.derivation_note == "g1"

    def test_doubly_confluent_example(self):
        pair = seed_solutions("0F1", {"c": F(1, 2)})
        assert print_solution(pair.y1) == "hypergeom([], [1/2], x)"
        assert print_solution(pair.y2) == "x^(1/2)*hypergeom([], [3/2], x)"

    def test_degenerate_flags(self):
        assert seed_solutions("2F1", {"a": F(1, 3), "b": F(1, 5),
                                      "c": F(1)}).degenerate
        assert seed_solutions("2F1", {"a": F(1, 3), "b": F(1, 5),
                                      "c": F(-2)}).degenerate
        assert not seed_solutions("2F1", {"a": F(1, 3), "b": F(1, 5),
                                          "c": F(4, 3)}).degenerate
        assert seed_solutions("1F1", {"a": F(1, 3), "c": F(1)}).degenerate
        assert seed_solutions("0F1", {"c": F(3)}).degenerate

    def test_branches_solve_the_model(self):
        cases = [
            ("2F1", {"a": F(1, 3), "b": F(1, 5), "c": F(5, 7)}),
            ("1F1", {"a": F(2, 5), "c": F(3, 4)}),
            ("0F1", {"c": F(5, 3)}),
        ]
        for kind, params in cases:
            ode = seed_ode(kind, params)
            pair = seed_solutions(kind, params)
            assert _residual(ode, pair.y1, INNER) < 1e-12
            assert _residual(ode, pair.y2, INNER) < 1e-12
            assert abs(_wronskian(pair.y1, pair.y2, 0.31 + 0.24j)) > 1e-6

    def test_combined_carries_both_constants(self):
        pair = seed_solutions("0F1", {"c": F(1, 2)})
        text = print_solution(pair.combined())
        assert "C1" in text and "C2" in text


class TestRepairDegenerate:
    def test_swap_with_point_at_one(self):
        params = {"a": F(1, 3), "b": F(1, 5), "c": F(1)}
        pair = repair_degenerate(params, seed_solutions("2F1", params))
        assert pair.derivation_note == "g2"
        assert pair.integral_free
        assert print_solution(pair.y1) == \
            "hypergeom([1/3, 1/5], [8/15], -x + 1)"
        assert print_solution(pair.y2) == \
            "(x - 1)^(7/15)*hypergeom([4/5, 2/3], [22/15], -x + 1)"
        ode = seed_ode("2F1", params)
        pts = (0.6 + 0.3j, 0.8 - 0.2j, 1.3 + 0.4j)
        assert _residual(ode, pair.y1, pts) < 1e-12
        assert _residual(ode, pair.y2, pts) < 1e-12
        assert abs(_wronskian(pair.y1, pair.y2, 0.6 + 0.3j)) > 1e-6

    def test_swap_with_point_at_infinity(self):
        params = {"a": F(2, 3), "b": F(1, 3), "c": F(1)}
        pair = repair_degenerate(params, seed_solutions("2F1", params))
        assert pair.derivation_note == "g3"
        assert print_solution(pair.y1) == \
            "hypergeom([1/3, 1/3], [2/3], 1/x)/(x^(1/3))"
        assert print_solution(pair.y2) == \
            "hypergeom([2/3, 2/3], [4/3], 1/x)/(x^(2/3))"
        ode = seed_ode("2F1", params)
        assert _residual(ode, pair.y1, OUTER) < 1e-12
        assert _residual(ode, pair.y2, OUTER) < 1e-12
        assert abs(_wronskian(pair.y1, pair.y2, 2.6 + 0.5j)) > 1e-9

    def test_legendre_pattern(self):
        params = {"a": F(1, 2), "b": F(1, 2), "c": F(1)}
        pair = repair_degenerate(params, seed_solutions("2F1", params))
        assert pair.derivation_note == "legendre"
        arg = add(mul(num(F(2)), X), num(F(-1)))
        assert pair.y1 == Leg("P", F(-1, 2), arg)
        assert pair.y2 == Leg("Q", F(-1, 2), arg)
        ode = seed_ode("2F1", params)
        assert _residual(ode, pair.y1, INNER) < 1e-12
        assert _residual(ode, pair.y2, INNER) < 1e-12
        assert abs(_wronskian(pair.y1, pair.y2, 0.31 + 0.24j)) > 1e-6

    def test_all_integer_fallback(self):
        params = {"a": F(1, 2), "b": F(-1, 2), "c": F(1)}
        pair = repair_degenerate(params, seed_solutions("2F1", params))
        assert pair.derivation_note == "integral"
        assert not pair.integral_free
        # second solution is y1 times an unevaluated integral
        assert isinstance(pair.y2, Mul)
        assert any(isinstance(f, Intg) for f in pair.y2.factors)
        ode = seed_ode("2F1", params)
        assert _residual(ode, pair.y1, INNER) < 1e-12
        # the integrand g satisfies (2 y1' + A y1) g + y1 g' = 0, which is
        # the exactness condition making y1 * Int(g) a solution
        g = next(f for f in pair.y2.factors
                 if isinstance(f, Intg)).integrand
        a_expr = ratfunc_to_expr(ode.A)
        y1 = pair.y1
        d_y1 = differentiate_expr(y1)
        d_g = differentiate_expr(g)
        for xv in INNER:
            lhs = ((2 * _eval(d_y1, xv) + _eval(a_expr, xv) * _eval(y1, xv))
                   * _eval(g, xv) + _eval(y1, xv) * _eval(d_g, xv))
            scale = max(abs(_eval(g, xv)), 1.0)
            assert abs(lhs) / scale < 1e-12

    def test_low_c_uses_the_power_branch(self):
        params = {"a": F(1, 2), "b": F(-1, 2), "c": F(0)}
        pair = repair_degenerate(params, seed_solutions("2F1", params))
        assert pair.derivation_note == "integral"
        # base solution must be the valid x^(1-c) branch, not the one
        # with the nonpositive lower parameter
        assert isinstance(pair.y1, Mul)
        assert power(X, F(1)) in (pair.y1.factors[0],) or \
            X in pair.y1.factors
        ode = seed_ode("2F1", params)
        assert _residual(ode, pair.y1, INNER) < 1e-12


class TestIntegralFallback:
    def test_trivial_equation(self):
        assert integral_fallback(X, RatFunc.const(F(0))) == num(F(-1))

    def test_rational_wronskian_factor(self):
        out = integral_fallback(ONE, rf([2], [0, 1]))
        assert print_solution(out) == "-1/x"

    def test_sign_of_the_inner_exponential(self):
        # A = -2/x integrates to x^2 under the minus sign convention
        out = integral_fallback(ONE, rf([-2], [0, 1]))
        assert print_solution(out) == "x^3/3"

    def test_nonrational_base_keeps_the_integral(self):
        y1 = hyp("2F1", (F(1, 2), F(1, 2)), (F(1),), X)
        out = integral_fallback(y1, rf([0]))
        assert isinstance(out, Mul)
        assert any(isinstance(f, Intg) for f in out.factors)


class TestSubstituteArgument:
    def test_plain_substitution(self):
        e = mul(power(X, F(1, 2)), hyp("0F1", (), (F(3, 2),), X))
        arg = power(X, 2)
        out = substitute_argument(e, arg, mul(num(F(2)), X))
        # (x^2)^(1/2) must not collapse to x: wrong on half the plane
        assert out == mul(power(arg, F(1, 2)),
                          hyp("0F1", (), (F(3, 2),), arg))

    def test_integral_changes_variables(self):
        e = Intg(power(X, -2))
        arg = ratfunc_to_expr(rf([0, 0, 1]))
        darg = ratfunc_to_expr(rf([0, 2]))
        out = substitute_argument(e, arg, darg)
        assert out == Intg(mul(power(arg, -2), darg))

    def test_constants_pass_through(self):
        assert substitute_argument(Const(1), X, ONE) == Const(1)


WORKED_ODE = ("y'' = ((1/3*x^2 - 3*x^4 - 8/3)/(x^5 - x))*y'"
              " + (19/12/(x^6 - x^2))*y")


class TestAssemble:
    def test_worked_example(self):
        ode = parse_ode(WORKED_ODE)
        pair = assemble(solve_equivalence(ode))
        assert pair.integral_free and pair.derivation_note == "g1"
        assert print_solution(pair.y1) == (
            "x^(1/2)*hypergeom([1/4, -1/12], [-1/3], 2*x^2/(x^2 - 1))"
            "/((x + 1)^(1/4)*(x - 1)^(1/4))")
        pts = (0.31 + 0.22j, -0.44 + 0.37j, 0.52 - 0.41j, 1.7 + 0.3j)
        assert _residual(ode, pair.y1, pts) < 1e-10
        assert _residual(ode, pair.y2, pts) < 1e-10
        assert abs(_wronskian(pair.y1, pair.y2, 0.31 + 0.22j)) > 1e-9

    def test_cubic_drift_instance(self):
        from hyperode.odeio import LinearODE

        ode = LinearODE(rf([0]), rf([0, 1, 0, 0, 1]))
        pair = assemble(solve_equivalence(ode))
        assert pair.integral_free
        pts = (0.4 + 0.2j, -0.3 + 0.6j, 0.8 + 0.1j)
        assert _residual(ode, pair.y1, pts) < 1e-10
        assert _residual(ode, pair.y2, pts) < 1e-10

    def test_integer_difference_instance(self):
        ode = parse_ode("2*y/9 + (2*x - 1)*y' + (x^2 - x)*y'' = 0")
        pair = assemble(solve_equivalence(ode))
        assert pair.derivation_note == "g3"
        assert print_solution(pair.y1) == \
            "hypergeom([1/3, 1/3], [2/3], 1/x)/(x^(1/3))"
        assert print_solution(pair.y2) == \
            "hypergeom([2/3, 2/3], [4/3], 1/x)/(x^(2/3))"
        assert _residual(ode, pair.y1, OUTER) < 1e-10
        assert _residual(ode, pair.y2, OUTER) < 1e-10

    def test_legendre_instance(self):
        ode = parse_ode("y/4 + (2*x - 1)*y' + (x^2 - x)*y'' = 0")
        pair = assemble(solve_equivalence(ode))
        assert pair.derivation_note == "legendre"
        assert print_solution(pair.y1) == "LegendreP(-1/2, 2*x - 1)"
        assert print_solution(pair.y2) == "LegendreQ(-1/2, 2*x - 1)"
        assert _residual(ode, pair.y1, INNER) < 1e-10
        assert _residual(ode, pair.y2, INNER) < 1e-10

    def test_harmonic_oscillator_matches_sine(self):
        ode = parse_ode("y'' + y = 0")
        pair = assemble(solve_equivalence(ode))
        got = _eval(pair.y1, 0.7)
        assert abs(got - complex(mpmath.sin(0.7))) < 1e-12
        assert _residual(ode, pair.y2, (0.5 + 0.3j, 1.2 - 0.4j)) < 1e-10

    def test_degenerate_seed_image_cancels_the_gauge(self):
        # witness canonicalization may pick another representative of the
        # parameter class; the repaired pair must still come out clean
        ode = seed_ode("2F1", {"a": F(1, 3), "b": F(1, 5), "c": F(1)})
        pair = assemble(solve_equivalence(ode))
        assert pair.derivation_note == "g2"
        assert pair.integral_free
        pts = (0.6 + 0.3j, 0.8 - 0.2j)
        assert _residual(ode, pair.y1, pts) < 1e-10
        assert _residual(ode, pair.y2, pts) < 1e-10
        assert abs(_wronskian(pair.y1, pair.y2, 0.6 + 0.3j)) > 1e-9

    def test_confluent_degenerate_gets_the_integral(self):
        ode = seed_ode("1F1", {"a": F(1, 3), "c": F(1)})
        pair = assemble(solve_equivalence(ode))
        assert pair.derivation_note == "integral"
        assert not pair.integral_free
        assert _residual(ode, pair.y1, INNER) < 1e-12

    def test_fractional_power_witness(self):
        ode = transformed_seed_ode("0F1", {"c": F(5, 2)},
                                   Mobius.identity(), F(3, 2))
        pair = assemble(solve_equivalence(ode))
        assert pair.integral_free
        assert _residual(ode, pair.y1, (0.4, 0.9, 1.6)) < 1e-10
        assert _residual(ode, pair.y2, (0.4, 0.9, 1.6)) < 1e-10

    def test_airy_pair(self):
        ode = parse_ode("y'' = x*y")
        pair = assemble(solve_equivalence(ode))
        pts = (0.5 + 0.2j, -0.7 + 0.4j, 1.1 - 0.3j)
        assert _residual(ode, pair.y1, pts) < 1e-10
        assert _residual(ode, pair.y2, pts) < 1e-10
        assert abs(_wronskian(pair.y1, pair.y2, 0.5 + 0.2j)) > 1e-9
