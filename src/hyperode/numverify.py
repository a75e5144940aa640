"""Floating-point checks of exact solutions.

The rest of the package works over exact fields, so this module is the
one place complex double precision shows up. It evaluates solution
expression trees at sample points and measures how well they satisfy
the input equation. Nothing here proves correctness; the point is to
catch a wrong branch choice, a dropped factor, or a typo in an exact
derivation, and those show up as residuals many orders of magnitude
above roundoff.

Series evaluation is deliberately plain: partial sums of the defining
hypergeometric series inside a convergence-guarded disc, which Pfaff's
transformation widens for 2F1. One pass over the terms gives the value
and both derivatives. Other arguments are rejected rather than
continued analytically; the sampler simply picks points whose
transformed arguments land inside, first on a ladder of circles around
the singular set, then on rings around each singular point.
"""

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .errors import EvalDiverged, PointRejected, SamplingFailed
from .exactalg import GaussRat, GenRatFunc, poly_gcd
from .odeio import (
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
    format_exact,
    has_integral,
    series_shift,
    walk,
)

_TERM_CAP = 10000
_REL_EPS = 1e-16
_GAUSS_DISC = 0.8
_POLE_GUARD = 1e-9


def _nonpositive_int(s):
    """n when the complex parameter s is the integer n <= 0, else None.

    Parameters are judged by their double value, the value the series
    is summed with, so a rational of more than 2^53 in magnitude may read
    as an integer.
    """
    if s.imag or s.real > 0 or not s.real.is_integer():
        return None
    return int(s.real)


def pfq_terms(upper, lower, z):
    """Yield the series terms of pFq(upper; lower; z), in order.

    Terms follow the two-term recursion
    t_{k+1} = t_k * prod(u + k) / (prod(l + k) * (k + 1)) * z,
    which is exactly the ratio of consecutive coefficients written as
    rising factorials. The generator stops after an exactly zero term
    (a terminating series) and is otherwise infinite; callers truncate.
    A zero upper factor stops it before the lower parameters divide, so
    a series that an upper parameter -n ends after term n stops there
    even when a lower parameter reaches 0 at the same step.
    """
    up = [complex(u) for u in upper]
    lo = [complex(l) for l in lower]
    zc = complex(z)
    term = complex(1.0, 0.0)
    k = 0
    while True:
        yield term
        ratio = zc / (k + 1)
        for u in up:
            ratio *= u + k
        if not ratio:
            return
        for l in lo:
            ratio /= l + k
        term = term * ratio
        k += 1
        if term == 0:
            return


def eval_pfq(kind, upper, lower, z):
    """(F, F', F'') of 2F1, 1F1 or 0F1 at a complex point.

    Parameters are exact or complex. One pass over pfq_terms sums
    F = sum t_k, z F' = sum k t_k and z^2 F'' = sum k (k-1) t_k; it
    stops once the last term of each sum is below 1e-16 of its running
    sum, or raises EvalDiverged after 10000 terms. At z = 0 the
    derivatives are read off the first coefficients instead. Gauss
    series are only summed for |z| <= 0.8 where convergence is
    geometric. Outside it, Pfaff's (1-z)^(-a) 2F1(a, c-b; c; z/(z-1)),
    principal branch, takes over if |z/(z-1)| <= 0.8 and c is not in
    0, -1, ... (where a series ended by b breaks it), with the chain
    rule for the derivatives; anything else raises EvalDiverged, as
    does a lower parameter -m that no upper -n, n <= m, ends first.
    """
    up = tuple(complex(u) for u in upper)
    lo = tuple(complex(l) for l in lower)
    zc = complex(z)
    if kind == "2F1" and abs(zc) > _GAUSS_DISC:
        (a, b), (c,) = up, lo  # Pfaff, DLMF 15.8.1
        if (zc == 1 or abs(zc / (zc - 1)) > _GAUSS_DISC
                or _nonpositive_int(c) is not None):
            raise EvalDiverged(
                "2F1 argument magnitude %.3f outside the guarded disc"
                % abs(zc))
        g, g1, g2 = _series_jet((a, c - b), lo, zc / (zc - 1))
        # d/dz (1-z)^(-a) = a u (1-z)^(-a) and d/dz z/(z-1) = -u^2
        u = 1 / (1 - zc)
        p = (1 - zc) ** -a
        return (p * g, p * u * (a * g - u * g1),
                p * u * u * (a * (a + 1) * g - 2 * (a + 1) * u * g1
                             + u * u * g2))
    return _series_jet(up, lo, zc)


def _series_jet(upper, lower, z):
    """(F, F', F'') of the plain series, complex parameters; see eval_pfq."""
    cutoff = None
    for u in upper:
        n = _nonpositive_int(u)
        if n is not None and (cutoff is None or -n < cutoff):
            cutoff = -n
    for l in lower:
        m = _nonpositive_int(l)
        if m is not None and (cutoff is None or cutoff > -m):
            raise EvalDiverged(
                "lower parameter %d is a nonpositive integer" % m)
    if not z:
        c = list(islice(pfq_terms(upper, lower, 1.0), 3)) + [0j, 0j]
        return c[0], c[1], 2 * c[2]
    s0 = s1 = s2 = 0j
    for k, t in enumerate(pfq_terms(upper, lower, z)):
        if not cmath.isfinite(t):
            raise EvalDiverged("series term overflowed at z=%s" % (z,))
        t1 = k * t
        t2 = (k - 1) * t1
        s0 += t
        s1 += t1
        s2 += t2
        if (abs(t) <= _REL_EPS * abs(s0) and abs(t1) <= _REL_EPS * abs(s1)
                and abs(t2) <= _REL_EPS * abs(s2)):
            break
        if k + 1 >= _TERM_CAP:
            raise EvalDiverged(
                "series did not settle within %d terms at z=%s"
                % (_TERM_CAP, z))
    return s0, s1 / z, s2 / (z * z)


def _legendre_jet(kind, degree):
    """(X, X', X'') of the Legendre function X of order zero and the
    given degree v, as a function of its argument z.

    P_v is 2F1(v+1, -v; 1; (1-z)/2), analytic off the ray z <= -1. Q_v
    is the 1/z^2 series valid for |z| > 1 with the classical
    normalization, which agrees with the P recurrences used by the
    symbolic differentiation rule. Both take the chain rule through
    one eval_pfq call. A degree with no value raises at every point.
    """
    if isinstance(degree, GaussRat):
        return _refusal("nonreal Legendre degree %s" % (degree,))
    v = Fraction(degree)
    if kind == "P":
        upper, lower = (complex(v + 1), complex(-v)), (1 + 0j,)

        def p_jet(z):
            f, f1, f2 = eval_pfq("2F1", upper, lower, (1 - z) / 2)
            return f, -f1 / 2, f2 / 4

        return p_jet
    if v.denominator == 1 and v <= -1:
        return _refusal("LegendreQ degree %s has no finite value" % (v,))
    try:
        scale = (math.sqrt(math.pi) * math.gamma(float(v) + 1.0)
                 / math.gamma(float(v) + 1.5))
    except (ValueError, OverflowError):
        return _refusal("LegendreQ normalization undefined at %s" % (v,))
    upper = (complex(v / 2 + 1), complex((v + 1) / 2))
    lower = (complex(v + Fraction(3, 2)),)
    e = complex(-float(v) - 1.0)

    def q_jet(z):
        if abs(z) < _POLE_GUARD:
            raise PointRejected("LegendreQ argument too close to 0")
        w = 1 / (z * z)
        f, f1, f2 = eval_pfq("2F1", upper, lower, w)
        # X = q F(w), q = scale (2z)^e: q' = e q / z, w' = -2 w / z
        q = scale * (2 * z) ** e
        u = 1 / z
        return (q * f, q * u * (e * f - 2 * w * f1),
                q * u * u * (e * (e - 1) * f + (6 - 4 * e) * w * f1
                             + 4 * w * w * f2))

    return q_jet


def _refusal(message):
    """A jet that raises EvalDiverged(message) at every point."""
    def refuse(z):
        raise EvalDiverged(message)

    return refuse


def _check_evaluable(s):
    """Raise, before any point is tried, what would fail at every point.

    Each series gets the derivative rule applied once, and a second
    time when its argument depends on x, as y' and y'' then need it; a
    lower parameter 0 raises ValueError. Then an exact number beyond
    double range raises SamplingFailed, since no sample point could
    evaluate it.
    """
    nodes = list(walk(s))
    for e in nodes:
        if isinstance(e, Hyp):
            shift = series_shift(e.kind, e.upper, e.lower)
            if shift is not None and any(
                    isinstance(n, Sym) for n in walk(e.arg)):
                series_shift(e.kind, shift[1], shift[2])
    for e in nodes:
        if isinstance(e, Num):
            values = (e.value,)
        elif isinstance(e, Pow):
            values = (e.exponent,)
        elif isinstance(e, Hyp):
            values = e.upper + e.lower
        elif isinstance(e, Leg):
            values = (e.degree,)
        else:
            values = ()
        for v in values:
            try:
                complex(v)
            except OverflowError:
                text = format_exact(v)
                if len(text) > 40:
                    text = "%s...%s (%d characters)" % (
                        text[:20], text[-8:], len(text))
                raise SamplingFailed(
                    "no sample point is admissible: the constant %s is "
                    "beyond double range" % text) from None


def _compile_jet(e):
    """The jet (y, y', y'') of a solution expression, as a function of a
    complex point.

    Order-2 Taylor arithmetic: each node combines the jets of its
    children by the sum, product and chain rules. The tree is walked
    once, into one closure per node, so every exact number, power
    exponent and series parameter is converted to complex once per
    check. A series or Legendre node makes one eval_pfq call per point,
    looked up at call time. A power refuses a point within _POLE_GUARD
    of its pole or branch point. Expects a tree that has passed
    _check_evaluable.
    """
    if isinstance(e, Num):
        const = (complex(e.value), 0j, 0j)
        return lambda z: const
    if isinstance(e, Sym):
        return lambda z: (z, 1 + 0j, 0j)
    if isinstance(e, Const):
        return lambda z: (1 + 0j, 0j, 0j)
    if isinstance(e, Add):
        terms = [_compile_jet(t) for t in e.terms]

        def add_jet(z):
            v = d1 = d2 = 0j
            for t in terms:
                tv, t1, t2 = t(z)
                v += tv
                d1 += t1
                d2 += t2
            return v, d1, d2

        return add_jet
    if isinstance(e, Mul):
        factors = [_compile_jet(f) for f in e.factors]

        def mul_jet(z):
            v, d1, d2 = 1 + 0j, 0j, 0j
            for f in factors:
                fv, f1, f2 = f(z)
                v, d1, d2 = (v * fv, d1 * fv + v * f1,
                             d2 * fv + 2 * d1 * f1 + v * f2)
            return v, d1, d2

        return mul_jet
    if isinstance(e, Pow):
        return _power_jet(_compile_jet(e.base), e.exponent)
    if isinstance(e, Exp):
        arg = _compile_jet(e.arg)

        def exp_jet(z):
            g, g1, g2 = arg(z)
            v = cmath.exp(g)
            return v, v * g1, v * (g2 + g1 * g1)

        return exp_jet
    if isinstance(e, (Hyp, Leg)):
        arg = _compile_jet(e.arg)
        if isinstance(e, Leg):
            outer = _legendre_jet(e.kind, e.degree)
        else:
            kind = e.kind
            upper = tuple(complex(u) for u in e.upper)
            lower = tuple(complex(l) for l in e.lower)

            def outer(g):
                return eval_pfq(kind, upper, lower, g)

        def series_jet(z):
            g, g1, g2 = arg(z)
            f, f1, f2 = outer(g)
            return f, f1 * g1, f2 * g1 * g1 + f1 * g2

        return series_jet
    if isinstance(e, Intg):
        raise ValueError("unevaluated integral has no pointwise value")
    raise TypeError("not a solution expression: %r" % (e,))


def _power_jet(base, ex):
    """The jet of base^ex for the jet function base and an exact ex."""
    p = float(ex)
    if ex.denominator == 1 and ex >= 0:
        n = int(ex)

        def polynomial_jet(z):
            b, b1, b2 = base(z)
            v = b ** n
            lower1 = b ** (n - 1) if n >= 1 else 0j
            lower2 = b ** (n - 2) if n >= 2 else 0j
            return (v, p * lower1 * b1,
                    p * (p - 1) * lower2 * b1 * b1 + p * lower1 * b2)

        return polynomial_jet
    what = "pole" if ex.denominator == 1 else "branch point"
    power = int(ex) if ex.denominator == 1 else complex(p, 0.0)

    def singular_jet(z):
        b, b1, b2 = base(z)
        if abs(b) < _POLE_GUARD:
            raise PointRejected("%s proximity |base|=%.2e" % (what, abs(b)))
        v = b ** power
        lower1 = v / b
        lower2 = lower1 / b
        return (v, p * lower1 * b1,
                p * (p - 1) * lower2 * b1 * b1 + p * lower1 * b2)

    return singular_jet


@dataclass(frozen=True)
class EvalPoint:
    """A sample point together with its clearance from singularities."""

    z: complex
    radius_guard: float


@dataclass(frozen=True)
class ResidualReport:
    """Normalized equation residuals of one solution at accepted points.

    Each residual is |y'' + A y' + B y| / max(|y|, |y'|, |y''|, 1) at
    the matching point, and max_residual is the largest of them.
    """

    points: tuple
    residuals: tuple
    max_residual: float

    def to_json(self):
        return {
            "points": [
                {"z": [p.z.real, p.z.imag], "radius_guard": p.radius_guard}
                for p in self.points
            ],
            "residuals": list(self.residuals),
            "max_residual": self.max_residual,
        }


def _horner(coeffs, z):
    out = complex(0.0, 0.0)
    for c in reversed(coeffs):
        out = out * z + c
    return out


def _poly_roots(p):
    """All complex roots of an exact polynomial, numerically.

    Durand-Kerner iteration on the monic scaled copy. Accuracy in the
    1e-12 range is plenty: roots only steer the sampler away from
    singular points, they never enter a reported value.
    """
    cs = [complex(c) for c in p.coeffs]
    n = len(cs) - 1
    if n <= 0:
        return []
    lead = cs[-1]
    monic = [c / lead for c in cs]
    roots = [(0.4 + 0.9j) ** (k + 1) for k in range(n)]
    for _ in range(200):
        worst = 0.0
        nxt = []
        for i, r in enumerate(roots):
            den = complex(1.0, 0.0)
            for j, q in enumerate(roots):
                if j != i:
                    den *= r - q
            if den == 0:
                den = complex(1e-12, 0.0)
            step = _horner(monic, r) / den
            nxt.append(r - step)
            worst = max(worst, abs(step))
        roots = nxt
        if worst < 1e-13:
            break
    return roots


def _coefficient(f):
    """One coefficient of the equation as a function of a complex point.

    f(x) = fn(x^(1/L)), L = 1 for a RatFunc, is evaluated by Horner's
    rule on the numerator and denominator of fn, converted to complex
    once. PointRejected marks a point within _POLE_GUARD of x = 0 when
    L > 1 (a branch point) or when the denominator is a power of x, and
    a point where the value of any other denominator is that small.
    """
    fn, carrier = (f.fn, f.carrier) if isinstance(f, GenRatFunc) else (f, 1)
    num = [complex(c) for c in fn.num.coeffs]
    den = [complex(c) for c in fn.den.coeffs]
    monomial = sum(1 for c in den if c) == 1
    near_zero = "branch point" if carrier > 1 else (
        "pole" if monomial and len(den) > 1 else None)
    root = complex(1.0 / carrier, 0.0)

    def value(z):
        if near_zero and abs(z) < _POLE_GUARD:
            raise PointRejected("%s proximity |base|=%.2e"
                                % (near_zero, abs(z)))
        w = z if carrier == 1 else z ** root
        d = _horner(den, w)
        if not monomial and abs(d) < _POLE_GUARD:
            raise PointRejected("pole proximity |base|=%.2e" % abs(d))
        return _horner(num, w) / d

    return value


def _coeff_singularities(f):
    """The poles of one coefficient, each root once.

    Durand-Kerner converges only linearly to a repeated root, so it
    runs on the square-free part of the denominator.
    """
    den = f.fn.den if isinstance(f, GenRatFunc) else f.den
    roots = _poly_roots(den // poly_gcd(den, den.deriv()))
    if isinstance(f, GenRatFunc):
        return [0j] + [r ** f.carrier for r in roots]
    return roots


def _singular_points(ode):
    raw = _coeff_singularities(ode.A) + _coeff_singularities(ode.B)
    out = []
    for r in raw:
        if all(abs(r - q) > 1e-9 for q in out):
            out.append(r)
    return out


def _candidate_points(bad, fractional):
    """Deterministic ladder of sample points around the singular set.

    Circles of several radii around several centers, scaled to the
    spread of the singularities, with angles drawn from a fixed-seed
    generator. Consumers filter by what actually evaluates, so the
    ladder errs toward variety. Fractional-power inputs stay in the
    right half plane, away from the principal branch cut.

    After the ladder come rings around each finite singular point b,
    with radii a fraction of the distance d from b to the nearest other
    singular point (the ladder's scale when b is alone). A series
    argument that maps b to 0 is small only near b, so these reach
    equations whose arguments leave the series' regions everywhere on
    the ladder. The radii stay below d/2, so b is the nearest singular
    point and the clearance is at least 0.07 d; the half-plane rule
    holds relative to d.
    """
    rng = random.Random(0x5EED)
    scale = max([1.0] + [abs(b) for b in bad])
    if fractional:
        centers = [2.1 * scale, 3.4 * scale, 1.4 * scale, 5.2 * scale]
    else:
        centers = [
            complex(0.0, 0.0),
            (0.9 + 0.4j) * scale,
            (-0.7 + 0.6j) * scale,
            2.2 * scale,
            (-1.9 - 0.8j) * scale,
            (0.3 - 1.6j) * scale,
        ]
    for c0 in centers:
        for f in (0.55, 0.34, 0.82, 0.21, 1.35, 0.13, 2.1, 0.08, 3.3, 0.05):
            r = f * scale
            for _ in range(10):
                ang = 2.0 * math.pi * rng.random()
                z = c0 + r * cmath.exp(1j * ang)
                guard = min((abs(z - b) for b in bad), default=r)
                if guard < 0.02 * scale:
                    continue
                if fractional and z.real < 0.05 * scale:
                    continue
                yield z, guard
    for b in bad:
        d = min((abs(b - q) for q in bad if q != b), default=scale)
        for f in (0.3, 0.15, 0.45, 0.07):
            for _ in range(6):
                ang = 2.0 * math.pi * rng.random()
                z = b + f * d * cmath.exp(1j * ang)
                if fractional and z.real < 0.05 * d:
                    continue
                yield z, min(abs(z - q) for q in bad)


def residual_check(ode, s, n_points=8):
    """Measure how well s satisfies the equation at sampled points.

    Builds the jet of y, y' and y'' once, then evaluates it at
    deterministic sample points chosen away from the singularities of
    the coefficients. Points where any piece fails its numeric guards
    (series outside the convergence disc, pole proximity, overflow)
    are skipped; if fewer than n_points survive the ladder and rings,
    SamplingFailed is raised, at once when an exact number in the
    solution is beyond double range. A solution holding an unevaluated
    integral, or a series whose y' or y'' would need a lower parameter
    0, raises ValueError before any point is tried.
    """
    if n_points < 1:
        raise ValueError("n_points must be positive")
    if has_integral(s):
        raise ValueError(
            "solution contains an unevaluated integral; exclude it "
            "from pointwise residual checks")
    _check_evaluable(s)
    try:
        a_at = _coefficient(ode.A)
        b_at = _coefficient(ode.B)
    except OverflowError:
        # a coefficient beyond double range fails at every point
        raise SamplingFailed("only 0 of %d sample points were admissible"
                             % n_points) from None
    bad = _singular_points(ode)
    points = []
    residuals = []
    jet = _compile_jet(s)
    for z, guard in _candidate_points(bad, ode.is_fractional):
        try:
            yv, dv, ddv = jet(z)
            av = a_at(z)
            bv = b_at(z)
        except (PointRejected, EvalDiverged, OverflowError,
                ZeroDivisionError):
            continue
        top = abs(ddv + av * dv + bv * yv)
        bottom = max(abs(yv), abs(dv), abs(ddv), 1.0)
        res = top / bottom
        if res != res or res == math.inf:
            continue
        points.append(EvalPoint(z, guard))
        residuals.append(res)
        if len(points) == n_points:
            return ResidualReport(
                tuple(points), tuple(residuals), max(residuals))
    raise SamplingFailed(
        "only %d of %d sample points were admissible"
        % (len(points), n_points))
