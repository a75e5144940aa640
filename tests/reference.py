"""Textbook formulas the tests check the package's shortcuts against.

The package applies the transformation law only to Mobius maps
(transform_invariant), reads power substitutions off the exponents of
the shifted invariant (minimize_power_exponents) and pulls equations
back along M(x^k) alone; these general versions are written straight
from the definitions so the tests have an independent route to the same
values. The package finds rational roots by p-adic lifting; the
reference enumerates the candidates of the rational root theorem
instead. The package evaluates solution trees by its own series and
Legendre rules; mp_eval uses mpmath's instead. The package proves a
candidate by the full coefficient identity alone; seed_invariant gives
the model invariant, so tests can check the invariant identity too.
eval_expr is not a reference: it reads the package's own value of a
tree, the one the residual oracle uses.

Five shortcuts of the exact stages have their plain forms here: the
pull-back by the kernel's derivative and quotient operators
(pull_back_reference), the normal form by field operators
(normal_form_reference), integration by
Hermite reduction at every factor with an extended gcd each
(integrate_ratfunc_reference), the witness check that applies the
whole gauge and compares both coefficients (witness_rejects_reference),
and the RatFunc constructor reducing by one gcd without its coprimality
certificate modulo a prime (ratfunc_reference).
"""

from fractions import Fraction
from math import isqrt, lcm

import mpmath

from hyperode import numverify
from hyperode.equivalence import seed_ode
from hyperode.exactalg import (
    GaussRat,
    GenRatFunc,
    IntegrationResult,
    Poly,
    RatFunc,
    _poly_inverse_mod,
    factor_rational_roots,
    poly_gcd,
    split_quadratic_gauss,
    squarefree_decomposition,
)
from hyperode.invariants import INF, Mobius, apply_gauge, to_normal_form
from hyperode.odeio import (
    Add,
    Const,
    Exp,
    Hyp,
    Leg,
    LinearODE,
    Mul,
    Num,
    Pow,
    Sym,
)


def seed_invariant(class_kind, params):
    """Normal-form invariant of an instantiated model equation."""
    return to_normal_form(seed_ode(class_kind, params)).I


def pull_back_reference(seed, mobius, k):
    """The argument M(x^k) and the equation satisfied by Y(M(x^k)), Y a
    solution of seed, with w' and w'' from the derivative operator."""
    k = Fraction(k)
    xk = GenRatFunc.x_power(k.numerator, k.denominator)
    arg = (xk * mobius.a + mobius.b) / (xk * mobius.c + mobius.d)

    def composed(f):
        if isinstance(arg, GenRatFunc):
            return GenRatFunc(f.compose(arg.fn), arg.carrier)
        return f.compose(arg)

    d1 = arg.deriv()
    return arg, LinearODE(-(d1.deriv() / d1) + composed(seed.A) * d1,
                          composed(seed.B) * d1 * d1)


def normal_form_reference(ode):
    """The invariant A'/2 + A^2/4 - B by the field operators."""
    a, b = ode.A, ode.B
    return a.deriv() / 2 + a ** 2 * Fraction(1, 4) - b


def ratfunc_reference(num, den):
    """num/den for a nonzero den, reduced by their gcd over Q or Q(i)."""
    if num.is_zero:
        return RatFunc.from_coprime(num, Poly.const(1))
    g = poly_gcd(num, den)
    return RatFunc.from_coprime(num // g, den // g)


def witness_rejects_reference(class_kind, k, mobius, params, input_ode):
    """Whether the model equation, pulled back along M(x^k) and gauged
    by l = (pulled A - A)/2, differs from the input in A or in B."""
    _, pulled = pull_back_reference(seed_ode(class_kind, params), mobius,
                                    Fraction(k))
    return apply_gauge(input_ode, (pulled.A - input_ode.A) / 2) != pulled


def integrate_ratfunc_reference(f):
    """integrate_ratfunc with Hermite reduction at every factor.

    Each factor g^m of the denominator takes rem / (den / g^m) modulo
    g^m by an extended gcd, splits it into g-adic digits and reduces
    them down to one simple-pole part w / g, whose residues are
    w(alpha)/g'(alpha).
    """
    quot, rem = divmod(f.num, f.den)
    poly_int = Poly([Fraction(0)] + [c * Fraction(1, k + 1)
                                     for k, c in enumerate(quot.coeffs)])
    rational_part = RatFunc(Poly())
    logs = []
    if rem.is_zero:
        return IntegrationResult(poly_int, rational_part, ())
    den = f.den
    _, roots, tail = factor_rational_roots(den)
    base = [(Poly((-r, Fraction(1))), m) for r, m in
            sorted(roots.items())]
    if tail.degree >= 1:
        base.extend(squarefree_decomposition(tail))
    for g, m in base:
        gm = g ** m
        h = den // gm
        v = (rem * _poly_inverse_mod(h, gm)) % gm
        digits = []
        w = v
        for _ in range(m):
            w, d = divmod(w, g)
            digits.append(d)
        if m >= 2:
            gp = g.deriv()
            gpinv = _poly_inverse_mod(gp, g)
            for i in range(m - 1):
                j = m - i
                big = digits[i]
                if big.is_zero:
                    continue
                t = (big * gpinv) % g
                s = (big - t * gp) // g
                rational_part = rational_part + RatFunc(
                    t * Fraction(-1, j - 1), g ** (j - 1))
                digits[i + 1] = digits[i + 1] + s + \
                    t.deriv() * Fraction(1, j - 1)
        w = digits[m - 1]
        if w.is_zero:
            continue
        if g.degree == 1:
            logs.append((g, w.coeff(0)))
            continue
        gp = g.deriv()
        lcq = w.lc / gp.lc
        if gp * lcq == w:
            logs.append((g, lcq))
            continue
        if g.degree == 2:
            split = split_quadratic_gauss(g)
            if split is not None:
                for root in split:
                    logs.append((Poly((-root, 1)), w(root) / gp(root)))
                continue
        return None
    return IntegrationResult(poly_int, rational_part, tuple(logs))


def general_schwarzian(f):
    """3 F''^2 / (4 F'^2) - F''' / (2 F') for an arbitrary rational F."""
    d1 = f.deriv()
    if d1.is_zero:
        raise ValueError("constant map has no Schwarzian")
    d2 = d1.deriv()
    d3 = d2.deriv()
    return (d2 * d2) / (d1 * d1) * Fraction(3, 4) - d3 / d1 / 2


def at_power(f, k):
    """f(x^k) for a RatFunc f and a rational k != 0, by composition.

    A RatFunc when k is an integer, else a GenRatFunc on x^(1/q) with q
    the denominator of k.
    """
    k = Fraction(k)
    return GenRatFunc(f.compose(RatFunc(Poly.x()) ** k.numerator),
                      k.denominator)


def pullback_ode(i0, f):
    """The ODE satisfied by y(x) = u(F(x)) when u'' = I0 u.

    F is a RatFunc, or a GenRatFunc such as x^(p/q). The normal form of
    the result has the invariant F'^2 * I0(F) + S(F), S the Schwarzian.
    """
    d1 = f.deriv()
    if d1.is_zero:
        raise ValueError("constant substitution")
    composed = (GenRatFunc(i0.compose(f.fn), f.carrier)
                if isinstance(f, GenRatFunc) else i0.compose(f))
    return LinearODE(-(d1.deriv() / d1), -(d1 * d1 * composed))


def mobius_apply(m, v):
    """Image of a point of the projective line under m (INF allowed)."""
    if v is INF:
        return m.a / m.c if m.c else INF
    den = m.c * v + m.d
    return (m.a * v + m.b) / den if den else INF


def mobius_compose(m, n):
    """m o n as maps: the product of their coefficient matrices."""
    return Mobius(m.a * n.a + m.b * n.c, m.a * n.b + m.b * n.d,
                  m.c * n.a + m.d * n.c, m.c * n.b + m.d * n.d)


def mobius_inverse(m):
    """The inverse map, from the adjugate matrix."""
    return Mobius(m.d, -m.b, -m.c, m.a)


def ratfunc_at(f, v):
    """f(v) at an exact point v that is not a pole of f."""
    return f.num.eval(v) / f.den.eval(v)


def eval_expr(s, z):
    """The package's value of a solution tree at a complex point: the
    first entry of the jet the residual oracle computes."""
    return numverify._compile_jet(s)(complex(z))[0]


def _mp(v):
    """An exact scalar as an mpmath number."""
    if isinstance(v, GaussRat):
        return mpmath.mpc(_mp(v.re), _mp(v.im))
    v = Fraction(v)
    return mpmath.mpf(v.numerator) / v.denominator


def mp_eval(e, z):
    """Value of a solution tree at z by mpmath, at its working precision.

    Powers take principal branches and the free constants C1 and C2 are
    1, as in the package. Series use hyp2f1, hyp1f1 and hyp0f1, and
    Legendre functions legenp and legenq of type 3 (analytic off the
    real segment up to 1). Integrals have no value and raise ValueError.
    """
    if isinstance(e, Num):
        return mpmath.mpc(_mp(e.value))
    if isinstance(e, Sym):
        return mpmath.mpc(z)
    if isinstance(e, Const):
        return mpmath.mpc(1)
    if isinstance(e, Add):
        return mpmath.fsum(mp_eval(t, z) for t in e.terms)
    if isinstance(e, Mul):
        return mpmath.fprod(mp_eval(f, z) for f in e.factors)
    if isinstance(e, Pow):
        b = mp_eval(e.base, z)
        if e.exponent.denominator == 1:
            return b ** int(e.exponent)
        return mpmath.power(b, _mp(e.exponent))
    if isinstance(e, Exp):
        return mpmath.exp(mp_eval(e.arg, z))
    if isinstance(e, Hyp):
        w = mp_eval(e.arg, z)
        params = [_mp(p) for p in e.upper + e.lower]
        fn = {"2F1": mpmath.hyp2f1, "1F1": mpmath.hyp1f1,
              "0F1": mpmath.hyp0f1}[e.kind]
        return fn(*params, w)
    if isinstance(e, Leg):
        fn = mpmath.legenp if e.kind == "P" else mpmath.legenq
        return fn(_mp(e.degree), 0, mp_eval(e.arg, z), type=3)
    raise ValueError("no pointwise value for %r" % (e,))


def _divisors(n):
    """Positive divisors of a nonzero integer, by trial division."""
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def rational_roots_reference(p):
    """factor_rational_roots by the rational root theorem.

    A rational root of p is a root of its real part. Written as an integer
    polynomial with its powers of x divided out, that part has every
    nonzero rational root of the form +-a/b, with a dividing its lowest
    coefficient and b its leading one. Each candidate, and 0, is tested by
    exact evaluation and divided out as often as it is a root. Trial
    division limits this to small heights.
    """
    unit = p.lc
    work = p.monic()
    real = [c.re if isinstance(c, GaussRat) else c for c in work.coeffs]
    scale = lcm(*(c.denominator for c in real))
    nonzero = [int(c * scale) for c in real if c]
    candidates = {Fraction(0)}
    for a in _divisors(nonzero[0]):
        for b in _divisors(nonzero[-1]):
            candidates.update((Fraction(a, b), Fraction(-a, b)))
    roots = {}
    for r in sorted(candidates):
        while work.degree >= 1 and work(r) == 0:
            roots[r] = roots.get(r, 0) + 1
            work = work // Poly((-r, Fraction(1)))
    return unit, roots, work
