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
transformation widens for 2F1. Other arguments are rejected rather than
continued analytically; the sampler simply picks points whose
transformed arguments land inside.
"""

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction

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
    if isinstance(s, GaussRat):
        return None
    s = Fraction(s)
    if s.denominator != 1 or s > 0:
        return None
    return int(s)


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
    """Value of 2F1, 1F1, or 0F1 with exact parameters at a complex point.

    Plain partial summation, stopped once the last term is below 1e-16
    of the running sum or after 10000 terms, whichever comes first.
    Gauss series are only summed for |z| <= 0.8 where convergence is
    geometric. Outside it, Pfaff's (1-z)^(-a) 2F1(a, c-b; c; z/(z-1)),
    principal branch, takes over if |z/(z-1)| <= 0.8 and c is not in
    0, -1, ... (where a series ended by b breaks it); anything else
    raises EvalDiverged, as does a series that never settles.
    """
    zc = complex(z)
    if kind == "2F1" and abs(zc) > _GAUSS_DISC:
        (a, b), (c,) = upper, lower  # Pfaff, DLMF 15.8.1
        if (zc == 1 or abs(zc / (zc - 1)) > _GAUSS_DISC
                or _nonpositive_int(c) is not None):
            raise EvalDiverged(
                "2F1 argument magnitude %.3f outside the guarded disc"
                % abs(zc))
        return (1 - zc) ** -complex(a) * eval_pfq(
            "2F1", (a, c - b), lower, zc / (zc - 1))
    cutoff = None
    for u in upper:
        n = _nonpositive_int(u)
        if n is not None and (cutoff is None or -n < cutoff):
            cutoff = -n
    for l in lower:
        m = _nonpositive_int(l)
        if m is None:
            continue
        if cutoff is None or cutoff > -m:
            raise EvalDiverged(
                "lower parameter %s is a nonpositive integer" % (l,))
    total = complex(0.0, 0.0)
    count = 0
    for term in pfq_terms(upper, lower, zc):
        if not cmath.isfinite(term):
            raise EvalDiverged("series term overflowed at z=%s" % (zc,))
        total += term
        count += 1
        if abs(term) <= _REL_EPS * abs(total):
            return total
        if count >= _TERM_CAP:
            raise EvalDiverged(
                "series did not settle within %d terms at z=%s"
                % (_TERM_CAP, zc))
    return total


def _legendre_value(kind, degree, z):
    """Legendre function of order zero via its Gauss series forms.

    P uses the representation 2F1(v+1, -v; 1; (1-z)/2), analytic off
    the ray z <= -1. Q uses the 1/z^2 series valid for |z| > 1 with the
    classical normalization, which agrees with the P recurrences used
    by the symbolic differentiation rule.
    """
    if isinstance(degree, GaussRat):
        raise EvalDiverged("nonreal Legendre degree %s" % (degree,))
    v = Fraction(degree)
    if kind == "P":
        return eval_pfq("2F1", (v + 1, -v), (Fraction(1),), (1 - z) / 2)
    if _nonpositive_int(v + 1) is not None:
        raise EvalDiverged("LegendreQ degree %s has no finite value" % (v,))
    if abs(z) < _POLE_GUARD:
        raise PointRejected("LegendreQ argument too close to 0")
    w = 1 / (z * z)
    series = eval_pfq(
        "2F1", (v / 2 + 1, (v + 1) / 2), (v + Fraction(3, 2),), w)
    try:
        scale = (math.sqrt(math.pi) * math.gamma(float(v) + 1.0)
                 / math.gamma(float(v) + 1.5))
    except ValueError:
        raise EvalDiverged("LegendreQ normalization undefined at %s" % (v,))
    return scale * (2 * z) ** complex(-float(v) - 1.0) * series


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


def _jet(e, z):
    """(y, y', y'') of a solution expression at a complex point.

    One pass of order-2 Taylor arithmetic: each node combines the jets
    of its children by the sum, product and chain rules. A series needs
    only itself and its two contiguous shifts at the argument's value, a
    Legendre function its degrees v, v+1 and v+2. A power refuses a
    point within _POLE_GUARD of its pole or branch point, and the
    Legendre rule one within _POLE_GUARD of its pole at z^2 = 1; a
    constant argument, whose derivatives vanish, skips the shifts.
    Expects a tree that has passed _check_evaluable.
    """
    if isinstance(e, Num):
        return complex(e.value), 0j, 0j
    if isinstance(e, Sym):
        return z, 1 + 0j, 0j
    if isinstance(e, Const):
        return 1 + 0j, 0j, 0j
    if isinstance(e, Add):
        v = d1 = d2 = 0j
        for t in e.terms:
            tv, t1, t2 = _jet(t, z)
            v += tv
            d1 += t1
            d2 += t2
        return v, d1, d2
    if isinstance(e, Mul):
        v, d1, d2 = 1 + 0j, 0j, 0j
        for f in e.factors:
            fv, f1, f2 = _jet(f, z)
            v, d1, d2 = (v * fv, d1 * fv + v * f1,
                         d2 * fv + 2 * d1 * f1 + v * f2)
        return v, d1, d2
    if isinstance(e, Pow):
        b, b1, b2 = _jet(e.base, z)
        ex = e.exponent
        p = float(ex)
        if ex.denominator == 1 and ex >= 0:
            n = int(ex)
            v = b ** n
            lower1 = b ** (n - 1) if n >= 1 else 0j
            lower2 = b ** (n - 2) if n >= 2 else 0j
        else:
            if abs(b) < _POLE_GUARD:
                raise PointRejected(
                    "%s proximity |base|=%.2e"
                    % ("pole" if ex.denominator == 1 else "branch point",
                       abs(b)))
            v = b ** (int(ex) if ex.denominator == 1 else complex(p, 0.0))
            lower1 = v / b
            lower2 = lower1 / b
        return (v, p * lower1 * b1,
                p * (p - 1) * lower2 * b1 * b1 + p * lower1 * b2)
    if isinstance(e, Exp):
        g, g1, g2 = _jet(e.arg, z)
        v = cmath.exp(g)
        return v, v * g1, v * (g2 + g1 * g1)
    if isinstance(e, Hyp):
        g, g1, g2 = _jet(e.arg, z)
        v = eval_pfq(e.kind, e.upper, e.lower, g)
        shift = series_shift(e.kind, e.upper, e.lower)
        if shift is None or not (g1 or g2):
            return v, 0j, 0j
        k1, upper, lower = shift
        f1 = complex(k1) * eval_pfq(e.kind, upper, lower, g)
        f2 = 0j
        shift = series_shift(e.kind, upper, lower)
        if shift is not None:
            k2, upper, lower = shift
            f2 = complex(k1 * k2) * eval_pfq(e.kind, upper, lower, g)
        return v, f1 * g1, f2 * g1 * g1 + f1 * g2
    if isinstance(e, Leg):
        g, g1, g2 = _jet(e.arg, z)
        v = _legendre_value(e.kind, e.degree, g)
        if not (g1 or g2):
            return v, 0j, 0j
        # (z^2 - 1) X_v'(z) = (v+1) (X_{v+1}(z) - z X_v(z)), used twice
        pole = g ** 2 - 1
        if abs(pole) < _POLE_GUARD:
            raise PointRejected("pole proximity |base|=%.2e" % abs(pole))
        x1 = _legendre_value(e.kind, e.degree + 1, g)
        x2 = _legendre_value(e.kind, e.degree + 2, g)
        s1 = complex(e.degree + 1)
        dv = s1 * (x1 - g * v) / pole
        dx1 = complex(e.degree + 2) * (x2 - g * x1) / pole
        ddv = (s1 * (dx1 - v - g * dv) - 2 * g * dv) / pole
        return v, dv * g1, ddv * g1 * g1 + dv * g2
    if isinstance(e, Intg):
        raise ValueError("unevaluated integral has no pointwise value")
    raise TypeError("not a solution expression: %r" % (e,))


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


def residual_check(ode, s, n_points=8):
    """Measure how well s satisfies the equation at sampled points.

    Evaluates y, y' and y'' together in one pass over the expression
    at deterministic sample points chosen away from the singularities
    of the coefficients. Points where any piece fails its numeric
    guards (series outside the convergence disc, pole proximity,
    overflow) are skipped; if fewer than n_points survive the ladder,
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
    for z, guard in _candidate_points(bad, ode.is_fractional):
        try:
            yv, dv, ddv = _jet(s, z)
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
