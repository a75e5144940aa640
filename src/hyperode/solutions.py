"""Explicit solution pairs assembled from verified equivalence witnesses.

The second Frobenius solution of a model equation degenerates exactly when
the exponent difference at the expansion point is an integer. For the full
model that obstruction can usually be moved to another singular point by
one of the six argument symmetries of the equation; only when every
exponent difference is an integer does the reduction-of-order integral
(or, in one special pattern, a Legendre pair) remain.
"""

from fractions import Fraction

from .equivalence import exp_integral_expr
from .exactalg import GaussRat
from .odeio import (
    ONE,
    Add,
    Const,
    Exp,
    Hyp,
    Intg,
    Leg,
    Mul,
    Num,
    Pow,
    Sym,
    X,
    add,
    has_integral,
    hyp,
    legendre,
    mul,
    neg,
    num,
    power,
    print_solution,
    ratfunc_to_expr,
)
from .values import Value, setfield


class SolutionPair(Value):
    """Two independent solutions and how the second one was obtained."""

    __slots__ = ("y1", "y2", "integral_free", "derivation_note", "degenerate")

    def __init__(self, y1, y2, integral_free, derivation_note,
                 degenerate=False):
        setfield(self, "y1", y1)
        setfield(self, "y2", y2)
        setfield(self, "integral_free", integral_free)
        setfield(self, "derivation_note", derivation_note)
        setfield(self, "degenerate", degenerate)

    def to_json(self):
        return {
            "y1": print_solution(self.y1),
            "y2": print_solution(self.y2),
            "integral_free": self.integral_free,
            "derivation_note": self.derivation_note,
        }


def _is_integer(v):
    return not isinstance(v, GaussRat) and Fraction(v).denominator == 1


def seed_solutions(class_kind, params):
    """The two Frobenius branches of a model equation at the origin.

    The branches carry exponents 0 and 1-c, so they coincide (degenerate
    flag) exactly when c is an integer.
    """
    c = params["c"]
    if class_kind == "2F1":
        a, b = params["a"], params["b"]
        y1 = hyp("2F1", (a, b), (c,), X, degenerate=True)
        tail = hyp("2F1", (b - c + 1, a - c + 1), (2 - c,), X,
                   degenerate=True)
    elif class_kind == "1F1":
        a = params["a"]
        y1 = hyp("1F1", (a,), (c,), X, degenerate=True)
        tail = hyp("1F1", (a - c + 1,), (2 - c,), X, degenerate=True)
    elif class_kind == "0F1":
        y1 = hyp("0F1", (), (c,), X, degenerate=True)
        tail = hyp("0F1", (), (2 - c,), X, degenerate=True)
    else:
        raise ValueError("unknown model class %r" % (class_kind,))
    y2 = mul(power(X, 1 - c), tail)
    return SolutionPair(y1, y2, True, "g1", _is_integer(c))


def repair_degenerate(params):
    """An integral-free pair for a degenerate full model, or None.

    Tries to move the integer exponent difference away from the origin:
    swap with the point at 1 (g2) when a+b is not an integer, else with
    the point at infinity (g3) when a-b is not an integer. With all three
    differences integers, the special case with vanishing differences at
    0 and 1 admits a Legendre pair; anything else returns None, and the
    caller falls back to reduction of order. The multiplicative factors
    attached to the g2/g3 branches come from the gauge relating the
    transformed model to the original one (validated against the residual
    oracle in the test suite).
    """
    a, b, c = params["a"], params["b"], params["c"]
    if not _is_integer(a + b):
        arg = add(ONE, neg(X))
        y1 = hyp("2F1", (a, b), (a + b - c + 1,), arg, degenerate=True)
        y2 = mul(power(add(X, num(Fraction(-1))), c - a - b),
                 hyp("2F1", (c - b, c - a), (c - a - b + 1,), arg,
                     degenerate=True))
        return SolutionPair(y1, y2, True, "g2")
    if not _is_integer(a - b):
        arg = power(X, -1)
        y1 = mul(power(X, -b),
                 hyp("2F1", (b, b - c + 1), (b - a + 1,), arg,
                     degenerate=True))
        y2 = mul(power(X, -a),
                 hyp("2F1", (a, a - c + 1), (a - b + 1,), arg,
                     degenerate=True))
        return SolutionPair(y1, y2, True, "g3")
    if c == 1 and a + b == 1:
        # differences at 0 and 1 both vanish: the equation is an algebraic
        # pullback of Legendre's, and both Legendre kinds give solutions
        arg = add(mul(num(Fraction(2)), X), num(Fraction(-1)))
        return SolutionPair(legendre("P", a - 1, arg),
                            legendre("Q", a - 1, arg),
                            True, "legendre")
    return None


def integral_fallback(y1, coeff_a):
    """Reduction of order: y1 * Int(exp(-Int A dx) / y1^2) dx.

    The inner integral always closes into powers and exponentials of
    rational functions (or an explicit integral when its poles are not
    rational). The outer one is left unevaluated, since the solver's y1
    is always a series.
    """
    wronskian = exp_integral_expr(-coeff_a)
    return mul(y1, Intg(mul(wronskian, power(y1, -2))))


def substitute_argument(e, arg, darg):
    """Replace the variable of a solution expression by ``arg``.

    ``darg`` must be the derivative of ``arg``; unevaluated integrals
    change variables with it, so the result still integrates with respect
    to the outer variable.
    """
    if isinstance(e, (Num, Const)):
        return e
    if isinstance(e, Sym):
        return arg
    if isinstance(e, Add):
        return add(*(substitute_argument(t, arg, darg) for t in e.terms))
    if isinstance(e, Mul):
        return mul(*(substitute_argument(t, arg, darg) for t in e.factors))
    if isinstance(e, Pow):
        return power(substitute_argument(e.base, arg, darg), e.exponent)
    if isinstance(e, Exp):
        return Exp(substitute_argument(e.arg, arg, darg))
    if isinstance(e, Hyp):
        return hyp(e.kind, e.upper, e.lower,
                   substitute_argument(e.arg, arg, darg), degenerate=True)
    if isinstance(e, Leg):
        return legendre(e.kind, e.degree,
                        substitute_argument(e.arg, arg, darg))
    if isinstance(e, Intg):
        inner = substitute_argument(e.integrand, arg, darg)
        return Intg(mul(inner, darg))
    raise TypeError("not a solution expression: %r" % (e,))


def assemble(witness):
    """Solutions of the original equation from a verified witness.

    Takes the model pair (repaired first when degenerate, else completed
    by reduction of order), substitutes the witness argument, and
    multiplies by the witness gauge.
    """
    pair = seed_solutions(witness.class_kind, witness.params)
    if pair.degenerate and witness.class_kind == "2F1":
        pair = repair_degenerate(witness.params) or pair
    if pair.degenerate:
        base = pair.y1 if witness.params["c"] >= 1 else pair.y2
        pair = SolutionPair(base, integral_fallback(base, witness.seed.A),
                            False, "integral")
    arg_expr = ratfunc_to_expr(witness.argument)
    # only an unevaluated integral changes variables with the derivative
    darg_expr = (None if pair.integral_free
                 else ratfunc_to_expr(witness.argument.deriv()))
    y1 = mul(witness.gauge, substitute_argument(pair.y1, arg_expr, darg_expr))
    y2 = mul(witness.gauge, substitute_argument(pair.y2, arg_expr, darg_expr))
    # substitution keeps the pair's integrals and makes none of its own
    free = pair.integral_free and not has_integral(witness.gauge)
    return SolutionPair(y1, y2, free, pair.derivation_note)
