"""Floating-point checks of exact solutions.

The rest of the package works over exact fields, so this module is the
one place complex double precision shows up. It evaluates solution
expression trees at sample points and measures how well they satisfy
the input equation. Nothing here proves correctness; the point is to
catch a wrong branch choice, a dropped factor, or a typo in an exact
derivation, and those show up as residuals many orders of magnitude
above roundoff.

Series evaluation is deliberately plain: partial sums of the defining
hypergeometric series inside a convergence-guarded disc. Arguments that
fall outside the guard are rejected rather than continued analytically;
the sampler simply picks points whose transformed arguments land inside.
"""

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import EvalDiverged, PointRejected, SamplingFailed
from .exactalg import GaussRat, GenRatFunc
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
    differentiate_expr,
    has_integral,
    ratfunc_to_expr,
)

_TERM_CAP = 10000
_REL_EPS = 1e-16
_GAUSS_DISC = 0.8
_POLE_GUARD = 1e-9


def _as_complex(s):
    """Complex value of an exact scalar (int, Fraction, or GaussRat)."""
    if isinstance(s, GaussRat):
        return complex(float(s.re), float(s.im))
    return complex(float(s), 0.0)


def _nonpositive_int(s):
    if isinstance(s, GaussRat):
        if s.im:
            return None
        s = s.re
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
    """
    up = [_as_complex(u) for u in upper]
    lo = [_as_complex(l) for l in lower]
    zc = complex(z)
    term = complex(1.0, 0.0)
    k = 0
    while True:
        yield term
        ratio = zc / (k + 1)
        for u in up:
            ratio *= u + k
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
    geometric; anything outside raises EvalDiverged, as does a series
    that fails to settle within the term budget.
    """
    zc = complex(z)
    if kind == "2F1" and abs(zc) > _GAUSS_DISC:
        raise EvalDiverged(
            "2F1 argument magnitude %.3f outside the guarded disc" % abs(zc))
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
        if degree.im:
            raise EvalDiverged("nonreal Legendre degree %s" % (degree,))
        degree = degree.re
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


def eval_expr(s, z):
    """Evaluate a solution expression at a complex point.

    All powers and the exp node take principal branches. Free constants
    C1 and C2 evaluate to 1, so a combined pair evaluates to the sum of
    its members. Points too close to a pole or branch point of a power
    raise PointRejected; unevaluated integrals have no pointwise value
    and raise ValueError.
    """
    return _ev(s, complex(z))


def _ev(e, z):
    if isinstance(e, Num):
        return _as_complex(e.value)
    if isinstance(e, Sym):
        return z
    if isinstance(e, Const):
        return complex(1.0, 0.0)
    if isinstance(e, Add):
        return sum(_ev(t, z) for t in e.terms)
    if isinstance(e, Mul):
        out = complex(1.0, 0.0)
        for f in e.factors:
            out *= _ev(f, z)
        return out
    if isinstance(e, Pow):
        b = _ev(e.base, z)
        ex = e.exponent
        if ex.denominator == 1:
            n = int(ex)
            if n >= 0:
                return b ** n
            if abs(b) < _POLE_GUARD:
                raise PointRejected("pole proximity |base|=%.2e" % abs(b))
            return b ** n
        if abs(b) < _POLE_GUARD:
            raise PointRejected("branch point proximity |base|=%.2e" % abs(b))
        return b ** complex(float(ex), 0.0)
    if isinstance(e, Exp):
        return cmath.exp(_ev(e.arg, z))
    if isinstance(e, Hyp):
        return eval_pfq(e.kind, e.upper, e.lower, _ev(e.arg, z))
    if isinstance(e, Leg):
        return _legendre_value(e.kind, e.degree, _ev(e.arg, z))
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
    cs = [_as_complex(c) for c in p.coeffs]
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


def _coeff_singularities(f):
    out = []
    if isinstance(f, GenRatFunc):
        g = f.reduce_carrier()
        out.append(complex(0.0, 0.0))
        for r in _poly_roots(g.fn.den):
            out.append(r ** g.carrier)
    else:
        out.extend(_poly_roots(f.den))
    return out


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

    Differentiates the expression exactly, then evaluates the equation
    at deterministic sample points chosen away from the singularities
    of the coefficients. Points where any piece fails its numeric
    guards (series outside the convergence disc, pole proximity,
    overflow) are skipped; if fewer than n_points survive the ladder,
    SamplingFailed is raised. A solution holding an unevaluated integral,
    or a series whose lower parameter is 0, raises ValueError.
    """
    if n_points < 1:
        raise ValueError("n_points must be positive")
    if has_integral(s):
        raise ValueError(
            "solution contains an unevaluated integral; exclude it "
            "from pointwise residual checks")
    d1 = differentiate_expr(s)
    d2 = differentiate_expr(d1)
    a_expr = ratfunc_to_expr(ode.A)
    b_expr = ratfunc_to_expr(ode.B)
    bad = _singular_points(ode)
    points = []
    residuals = []
    for z, guard in _candidate_points(bad, ode.is_fractional):
        try:
            yv = _ev(s, z)
            dv = _ev(d1, z)
            ddv = _ev(d2, z)
            av = _ev(a_expr, z)
            bv = _ev(b_expr, z)
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
