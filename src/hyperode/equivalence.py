"""Resolution of a reduced invariant against the three model equations.

Given the reduced invariant I0 of an input equation (power substitution
already pulled out), the resolvers here find every fractional linear map,
parameter assignment, and gauge multiplier carrying a model hypergeometric
equation exactly onto the input. The strategy is enumeration plus exact
verification:

  * the full model (three regular points) is matched by assigning the
    visible singular points of I0 to preimages of {0, 1, infinity} and
    reading the parameters off the local exponent differences;
  * the two confluent models (regular 0, irregular infinity) are matched
    by placing the irregular and regular points from the pole profile and
    extracting the map's scale and the parameters from principal-part
    coefficients, which needs at worst one square root.

A resolver yields, one at a time and in a fixed order, the candidates
it reads off the local data, unchecked. reduce_ode runs the reduction
they start from, and solve_equivalence tries the candidates in that
order as EquivalenceWitness instances, whose constructor verifies the
full coefficient identity of the transformed model equation against the
input; that is the only exact check, and the first candidate to pass is
the answer. A witness that exists is therefore always correct.
"""

from fractions import Fraction
from itertools import permutations

from .classifier import classify, profile
from .errors import (
    IrrationalExponentDifference,
    NoEquivalence,
    UnsupportedParameterField,
    WitnessRejected,
)
from .exactalg import (
    GaussRat,
    GenRatFunc,
    Poly,
    RatFunc,
    gauss_sqrt,
    integrate_ratfunc,
    principal_part,
    rational_sqrt,
)
from .invariants import (
    INF,
    Mobius,
    apply_gauge,
    invariant_from_shifted,
    minimize_power_exponents,
    shifted_invariant,
    to_normal_form,
)
from .odeio import (
    Exp,
    Intg,
    LinearODE,
    ONE,
    X,
    add,
    mul,
    poly_to_expr,
    power,
    ratfunc_to_expr,
)
from .values import Value, setfield


# ---------------------------------------------------------------------------
# model (seed) equations


_PARAMETER_NAMES = {"2F1": ("a", "b", "c"), "1F1": ("a", "c"), "0F1": ("c",)}


def seed_ode(class_kind, params):
    """The model equation of a class with concrete parameter values.

    The full model has regular points {0, 1, infinity}; the two confluent
    models have a regular point at 0 and an irregular point at infinity.
    """
    missing = [n for n in _PARAMETER_NAMES[class_kind] if n not in params]
    if missing:
        raise ValueError("missing parameters %s for %s"
                         % (missing, class_kind))
    if class_kind == "2F1":
        a, b, c = params["a"], params["b"], params["c"]
        den = RatFunc(Poly((Fraction(0), Fraction(-1), Fraction(1))))
        return LinearODE(
            RatFunc(Poly((-c, a + b + 1))) / den,
            RatFunc(Poly.const(a * b)) / den)
    den = RatFunc(Poly((Fraction(0), Fraction(1))))
    if class_kind == "1F1":
        a, c = params["a"], params["c"]
        return LinearODE(
            RatFunc(Poly((c, Fraction(-1)))) / den,
            RatFunc(Poly.const(-a)) / den)
    return LinearODE(
        RatFunc(Poly.const(params["c"])) / den,
        RatFunc(Poly.const(Fraction(-1))) / den)


# ---------------------------------------------------------------------------
# exponent differences


def parameters_from_differences(at_zero, at_one, at_infinity):
    """Full-model parameters from the local exponent differences.

    The three differences sit at the regular points 0, 1 and infinity:

        at_zero = 1 - c,  at_one = a + b - c,  at_infinity = a - b

    and nonnegative differences give a >= b.
    """
    return {"a": (1 - at_zero + at_one + at_infinity) / 2,
            "b": (1 - at_zero + at_one - at_infinity) / 2,
            "c": 1 - at_zero}


def double_pole_coefficient(i0, point):
    """Coefficient of the second-order principal part of I0 at a point.

    At infinity this is the limit of x^2 I0(x). Poles of order above two
    (irregular points) are rejected.
    """
    if point is INF:
        if i0.is_zero:
            return Fraction(0)
        gap = i0.den.degree - i0.num.degree
        if gap < 2:
            raise ValueError("infinity is an irregular point")
        if gap == 2:
            return i0.num.lc / i0.den.lc
        return Fraction(0)
    part = principal_part(i0, point)
    if len(part) > 2:
        raise ValueError("pole order %d at %s is irregular"
                         % (len(part), point))
    return part[0] if len(part) == 2 else Fraction(0)


def exponent_difference_at(i0, point):
    """Nonnegative exponent difference of u'' = I0 u at a regular point.

    The local indicial roots differ by sqrt(1 + 4 c2) where c2 is the
    double-pole coefficient; simple poles and ordinary points give 1.
    """
    c2 = double_pole_coefficient(i0, point)
    disc = 1 + 4 * c2
    if isinstance(disc, GaussRat):
        raise IrrationalExponentDifference(
            "complex indicial discriminant at %s" % (point,))
    if disc < 0:
        raise IrrationalExponentDifference(
            "negative indicial discriminant at %s" % (point,))
    root = rational_sqrt(disc)
    if root is None:
        raise IrrationalExponentDifference(
            "indicial discriminant at %s is not a rational square" % (point,))
    return root


# ---------------------------------------------------------------------------
# map and coefficient plumbing


def mobius_from_three_points(t0, t1, tinf):
    """The fractional linear map sending (t0, t1, tinf) to (0, 1, oo).

    Any one of the three points may be INF. The result is returned in
    canonical scaling.
    """
    if t0 is INF:
        m = Mobius(Fraction(0), t1 - tinf, Fraction(1), -tinf)
    elif t1 is INF:
        m = Mobius(Fraction(1), -t0, Fraction(1), -tinf)
    elif tinf is INF:
        m = Mobius(Fraction(1), -t0, Fraction(0), t1 - t0)
    else:
        m = Mobius(t1 - tinf, -t0 * (t1 - tinf),
                   t1 - t0, -tinf * (t1 - t0))
    return m.canonical()


def _compose_coeff(f, arg):
    """f(arg(x)) where f is rational and arg may carry fractional powers."""
    if isinstance(arg, GenRatFunc):
        return GenRatFunc(f.compose(arg.fn), arg.carrier)
    return f.compose(arg)


def _pull_back(seed, mobius, k):
    """The argument M(x^k) and the equation satisfied by Y(M(x^k)).

    Y is any solution of the equation ``seed``.
    """
    k = Fraction(k)
    xk = GenRatFunc.x_power(k.numerator, k.denominator)
    arg = (xk * mobius.a + mobius.b) / (xk * mobius.c + mobius.d)
    d1 = arg.deriv()
    pulled = LinearODE(
        -(d1.deriv() / d1) + _compose_coeff(seed.A, arg) * d1,
        _compose_coeff(seed.B, arg) * d1 * d1)
    return arg, pulled


# ---------------------------------------------------------------------------
# gauge multiplier in closed form


def exp_integral_expr(f):
    """exp(integral of f dx) as a product-form expression, f rational.

    Poles with rational residues become power factors, the polynomial and
    rational remainder goes inside an exponential, and anything whose
    antiderivative leaves Q(i) falls back to an explicit unevaluated
    integral under the exponential. The integration constant is dropped,
    so the result is one multiplier out of the scale class.
    """
    var = X
    if isinstance(f, GenRatFunc):
        carrier = f.carrier
        # integrate in s = x^(1/carrier): dx = carrier*s^(carrier-1) ds
        var = power(X, Fraction(1, carrier))
        f = f.fn * RatFunc(
            Poly.from_pairs([(carrier - 1, Fraction(carrier))]))
    if f.is_zero:
        return ONE
    result = None if f.den.has_gauss() else integrate_ratfunc(f)
    if (result is None
            or any(isinstance(c, GaussRat) for _, c in result.logarithms)):
        return Exp(Intg(ratfunc_to_expr(f, var)))
    factors = [power(poly_to_expr(g, var), c) for g, c in result.logarithms]
    arg_terms = []
    if not result.polynomial_part.is_zero:
        arg_terms.append(poly_to_expr(result.polynomial_part, var))
    if not result.rational_part.is_zero:
        arg_terms.append(ratfunc_to_expr(result.rational_part, var))
    if arg_terms:
        factors.append(Exp(add(*arg_terms)))
    return mul(*factors)


# ---------------------------------------------------------------------------
# the witness


class EquivalenceWitness:
    """A verified exact equivalence between the input and a model equation.

    Stores the power exponent k, the fractional linear map, the model
    parameters, and the gauge multiplier P such that

        y(x) = P(x) * Y(M(x^k))

    carries solutions Y of the instantiated model equation to solutions y
    of the input. Construction verifies the transformed model equation
    against the input coefficient by coefficient and raises
    WitnessRejected on a mismatch, under ``python -O`` too; an instance
    can therefore never hold an unchecked claim.
    """

    def __init__(self, class_kind, k, mobius, params, input_ode):
        self.class_kind = class_kind
        self.k = Fraction(k)
        self.mobius = mobius
        self.params = dict(params)
        self.seed = seed_ode(class_kind, self.params)
        arg, pulled = _pull_back(self.seed, mobius, self.k)
        gpp = (pulled.A - input_ode.A) / 2
        if apply_gauge(input_ode, gpp) != pulled:
            raise WitnessRejected(
                "the transformed %s equation does not match the input"
                % class_kind)
        self.argument = arg
        self.gauge_log_derivative = gpp
        self.gauge = exp_integral_expr(gpp)

    def __repr__(self):
        return ("EquivalenceWitness(%s, k=%s, mobius=%s, params=%r)"
                % (self.class_kind, self.k, self.mobius, self.params))


# ---------------------------------------------------------------------------
# resolvers
#
# A resolver yields candidates as (class_kind, mobius, params) tuples: a
# map and parameters read off I0, not yet checked.


def _sort_point(p):
    if p is INF:
        return (1, Fraction(0))
    return (0, p)


def resolve_2F1(i0, pr):
    """Yield the full-model candidates for a reduced invariant.

    Visible singular points (rational poles plus infinity when it is
    singular) are assigned to the preimages of {0, 1, infinity}; a model
    point left without a preimage is pinned to a fresh ordinary position.
    Candidates are tried in a fixed order so the first witness is
    deterministic: natural placements first (0 staying at 0, infinity at
    infinity), then larger exponent differences first.
    """
    if pr.has_irrational_points:
        return
    finite = [loc for loc, _ in pr.finite_points]
    gap = pr.point_at_infinity_order
    inf_singular = gap <= 3
    visible = list(finite) + ([INF] if inf_singular else [])
    if len(visible) == 3:
        assignments = list(permutations(visible))
    elif len(visible) == 2:
        if not inf_singular:
            spare = INF
        else:
            spare = max(p for p in finite) + 1
        assignments = []
        for hole in range(3):
            for pair in permutations(visible):
                slots = list(pair)
                slots.insert(hole, spare)
                assignments.append(tuple(slots))
    else:
        return
    diffs = {}
    for p in visible:
        diffs[p] = exponent_difference_at(i0, p)

    def diff_of(p):
        return diffs.get(p, Fraction(1))

    def order_key(slots):
        t0, t1, tinf = slots
        return (t0 != 0,
                tinf is not INF,
                (-diff_of(t0), -diff_of(t1), -diff_of(tinf)),
                tuple(_sort_point(p) for p in slots))

    for t0, t1, tinf in sorted(assignments, key=order_key):
        params = parameters_from_differences(diff_of(t0), diff_of(t1),
                                             diff_of(tinf))
        yield "2F1", mobius_from_three_points(t0, t1, tinf), params


def _confluent_positions(pr, irregular_order, infinity_gap):
    """Locate the irregular and regular model points in the pole profile.

    Returns (irregular, regular) positions (INF allowed) or None when the
    profile cannot be laid out for the requested irregular pole order.
    """
    if pr.has_irrational_points:
        return None
    heavy = [(loc, mult) for loc, mult in pr.finite_points if mult >= 3]
    light = [(loc, mult) for loc, mult in pr.finite_points if mult <= 2]
    if len(heavy) > 1 or len(light) > 1:
        return None
    if heavy:
        if heavy[0][1] != irregular_order:
            return None
        t_irr = heavy[0][0]
        t_reg = light[0][0] if light else INF
        return t_irr, t_reg
    if pr.point_at_infinity_order != infinity_gap:
        return None
    t_reg = light[0][0] if light else Fraction(0)
    return INF, t_reg


def _scale_root(value):
    root = gauss_sqrt(value)
    if root is None:
        raise UnsupportedParameterField(
            "the map's scale parameter lies outside the Gaussian rationals")
    return root


def _scale_mobius(theta, t_irr, t_reg):
    """The map theta * (t - t_reg) / (t - t_irr) with INF conventions."""
    if t_irr is INF:
        return Mobius(theta, -theta * t_reg, Fraction(0), Fraction(1))
    if t_reg is INF:
        return Mobius(Fraction(0), theta, Fraction(1), -t_irr)
    return Mobius(theta, -theta * t_reg, Fraction(1), -t_irr)


def resolve_1F1(i0, pr):
    """Yield the candidates of the first confluent model.

    The irregular model point has pole order 4 after transformation (or
    sits at infinity when numerator and denominator degrees agree), the
    regular one order <= 2. The scale comes from the leading principal
    coefficient via one square root, the remaining parameters from the
    next coefficient and the local exponent difference.
    """
    spots = _confluent_positions(pr, 4, 0)
    if spots is None:
        return
    t_irr, t_reg = spots
    d = exponent_difference_at(i0, t_reg)
    if t_irr is INF:
        theta_sq = 4 * i0.num.lc / i0.den.lc
        part = principal_part(i0, t_reg)
        residue = part[-1] if part else Fraction(0)

        def linear_of(theta):
            return residue / theta
    else:
        lead, nxt = principal_part(i0, t_irr)[:2]
        if t_reg is INF:
            theta_sq = 4 * lead

            def linear_of(theta):
                return nxt / theta
        else:
            theta_sq = 4 * lead / (t_irr - t_reg) ** 2

            def linear_of(theta):
                return nxt / (theta * (t_irr - t_reg))

    theta = _scale_root(theta_sq)
    for c in (1 + d, 1 - d) if d else (1 + d,):
        for th in (theta, -theta):
            yield ("1F1", _scale_mobius(th, t_irr, t_reg),
                   {"a": linear_of(th) + Fraction(c) / 2, "c": c})


def resolve_0F1(i0, pr):
    """Yield the candidates of the doubly confluent model.

    Same layout as the first confluent model with irregular pole order 3
    (or a degree gap of one at infinity); the scale parameter is linear in
    the principal coefficients, so no square root is needed.
    """
    spots = _confluent_positions(pr, 3, 1)
    if spots is None:
        return
    t_irr, t_reg = spots
    d = exponent_difference_at(i0, t_reg)
    if t_irr is INF:
        part = principal_part(i0, t_reg)
        theta = part[-1] if part else Fraction(0)
    else:
        lead = principal_part(i0, t_irr)[0]
        if t_reg is INF:
            theta = lead
        else:
            theta = lead / (t_irr - t_reg)
    if not theta:
        return
    m = _scale_mobius(theta, t_irr, t_reg)
    for c in (1 + d, 1 - d) if d else (1 + d,):
        yield "0F1", m, {"c": c}


_RESOLVERS = {"2F1": resolve_2F1, "1F1": resolve_1F1, "0F1": resolve_0F1}


# ---------------------------------------------------------------------------
# the pipeline


class Reduction(Value):
    """An equation reduced to the data the resolvers match against.

    k is the power pulled out of the input's invariant, i0 the reduced
    invariant, profile its singularity fingerprint and candidates the
    model classes that fingerprint admits, in the order they are tried.
    """

    __slots__ = ("k", "i0", "profile", "candidates")

    def __init__(self, k, i0, profile, candidates):
        setfield(self, "k", k)
        setfield(self, "i0", i0)
        setfield(self, "profile", profile)
        setfield(self, "candidates", candidates)


def reduce_ode(ode):
    """Normal form, power minimization, fingerprint and class candidates."""
    i = to_normal_form(ode).I
    k, j0 = minimize_power_exponents(shifted_invariant(i))
    i0 = invariant_from_shifted(j0)
    pr = profile(i0)
    return Reduction(k, i0, pr, tuple(classify(pr)))


def solve_equivalence(ode):
    """Full resolution pipeline from a raw equation to a verified witness.

    Reduces the equation, then runs the resolvers in class order and
    tries their candidates in turn as witnesses, verified against the
    original equation with the power and the gauge included; the first
    that the witness accepts is returned. Resolver errors about
    unreachable fields are kept and re-raised only when no later
    candidate succeeds.
    """
    red = reduce_ode(ode)
    if not red.candidates:
        raise NoEquivalence(
            "the reduced invariant matches no model singularity case",
            profile=red.profile)
    stashed = None
    for cand in red.candidates:
        try:
            for kind, m, params in _RESOLVERS[cand.class_kind](
                    red.i0, red.profile):
                try:
                    return EquivalenceWitness(kind, red.k, m, params, ode)
                except WitnessRejected:
                    continue
        except (IrrationalExponentDifference, UnsupportedParameterField) as e:
            if stashed is None:
                stashed = e
    if stashed is not None:
        raise stashed
    raise NoEquivalence(
        "no candidate assignment verified against the reduced invariant",
        profile=red.profile)


def transformed_seed_ode(class_kind, params, mobius, k=1,
                         gauge_log_derivative=None):
    """Push a model equation through the transformation chain.

    Returns the equation satisfied by P(x) * Y(M(x^k)) for solutions Y of
    the instantiated model, where P'/P is the given gauge log-derivative
    (absent means P = 1). This is the instance generator used to exercise
    the resolvers on known-equivalent inputs.
    """
    _, pulled = _pull_back(seed_ode(class_kind, params), mobius, k)
    if gauge_log_derivative is None:
        return pulled
    return apply_gauge(pulled, -gauge_log_derivative)
