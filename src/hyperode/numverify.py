"""Floating-point checks of exact solutions.

The rest of the package works over exact fields, so this module is the
one place complex double precision shows up. It evaluates solution
expression trees at sample points and measures how well they satisfy
the input equation. Nothing here proves correctness; the point is to
catch a wrong branch choice, a dropped factor, or a typo in an exact
derivation, and those show up as residuals many orders of magnitude
above roundoff.

Series evaluation uses partial sums of the defining hypergeometric
series inside a convergence-guarded disc, which Pfaff's transformation
widens for 2F1. One pass over the terms in doubles gives the value and
both derivatives; when a term dwarfs its sum, so that the doubles have
cancelled, the series is summed again in fixed point with Python
integers at the precision the cancellation needs. Other arguments are
rejected rather than continued analytically; the sampler simply picks
points whose transformed arguments land inside, first on a ladder of
circles around the singular set, then on rings around each singular
point. The singular set comes from one root search on the lcm of the
coefficients' square-free denominators.
"""

import cmath
import math
import random
import sys
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
)
from .values import Value, setfield

_TERM_CAP = 10000
_REL_EPS = 1e-16
_GAUSS_DISC = 0.8
_POLE_GUARD = 1e-9
# the fixed-point re-sum: when a term of a double sum exceeds its sum
# 2^20 times, and the bits it starts with, keeps, and may not exceed
_CANCELLED = 2.0 ** 20
_FIXED_START = 80
_FIXED_KEEP = 70
_FIXED_CAP = 4000


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
    F = sum t_k, z F' = sum k t_k and z^2 F'' = sum k (k-1) t_k in
    doubles; it stops once the last term of each sum is below 1e-16 of
    its running sum, or raises EvalDiverged after 10000 terms. When a
    term of some sum exceeds 2^20 times that sum, the doubles have
    cancelled, and the three sums are taken again in fixed point from
    the exact parameters (see _fixed_point_sums). At z = 0 the
    derivatives are read off the first coefficients instead. Gauss
    series are only summed for |z| <= 0.8 where convergence is
    geometric. Outside it, Pfaff's (1-z)^(-a) 2F1(a, c-b; c; z/(z-1)),
    principal branch, takes over if |z/(z-1)| <= 0.8 and c is not in
    0, -1, ... (where a series ended by b breaks it), with the chain
    rule for the derivatives; anything else raises EvalDiverged, as
    does a lower parameter -m that no upper -n, n <= m, ends first.

    kind may instead be a series that _series prepared, with None for
    upper and lower: the oracle's jet prepares each series once per
    check, and _series has then applied the undefined-series rule.
    """
    series = kind if upper is None else _series(kind, upper, lower,
                                                 EvalDiverged)
    zc = complex(z)
    if series.kind == "2F1" and abs(zc) > _GAUSS_DISC:
        pfaff = series.pfaff  # DLMF 15.8.1
        if pfaff is None or zc == 1 or abs(zc / (zc - 1)) > _GAUSS_DISC:
            raise EvalDiverged(
                "2F1 argument magnitude %.3f outside the guarded disc"
                % abs(zc))
        g, g1, g2 = _series_jet(pfaff, zc / (zc - 1))
        # d/dz (1-z)^(-a) = a u (1-z)^(-a) and d/dz z/(z-1) = -u^2
        a = pfaff.upper[0]
        u = 1 / (1 - zc)
        p = (1 - zc) ** -a
        return (p * g, p * u * (a * g - u * g1),
                p * u * u * (a * (a + 1) * g - 2 * (a + 1) * u * g1
                             + u * u * g2))
    return _series_jet(series, zc)


class _Series:
    """One pFq series with its parameters converted once.

    ``upper`` and ``lower`` are complex, for the double pass; ``exact``
    holds them as (re, im) Fraction pairs, for the fixed-point pass. For
    a 2F1 whose c is not 0, -1, ..., ``pfaff`` is the series
    2F1(a, c-b; c) of Pfaff's form, else None.
    """

    __slots__ = ("kind", "upper", "lower", "exact", "pfaff")

    def __init__(self, kind, upper, lower, exact):
        self.kind = kind
        self.upper = upper
        self.lower = lower
        self.exact = exact
        self.pfaff = None


def _series(kind, upper, lower, refusal=ValueError):
    """The _Series of exact or complex parameters.

    Applies the jet's rule for an undefined series: a lower parameter -m
    that no upper -n, n <= m, ends the series before raises refusal
    naming it, since its terms divide by zero at every point.
    """
    series = _Series(kind, tuple(complex(u) for u in upper),
                     tuple(complex(l) for l in lower),
                     (tuple(_exact_parts(v) for v in upper),
                      tuple(_exact_parts(v) for v in lower)))
    m = _undefined_lower(series.upper, series.lower)
    if m is not None:
        raise refusal(
            "%s with lower parameter %d has no value: no upper parameter "
            "ends the series before its terms divide by zero" % (kind, m))
    if kind == "2F1" and _nonpositive_int(series.lower[0]) is None:
        (a, b), (c,) = series.upper, series.lower
        (ea, (br, bi)), ((cr, ci),) = series.exact
        series.pfaff = _Series(kind, (a, c - b), series.lower,
                               ((ea, (cr - br, ci - bi)), series.exact[1]))
    return series


def _exact_parts(v):
    """(re, im) of an exact or double parameter, as Fractions."""
    if isinstance(v, GaussRat):
        return v.re, v.im
    if isinstance(v, complex):
        return Fraction(v.real), Fraction(v.imag)
    return Fraction(v), Fraction(0)


def _undefined_lower(upper, lower):
    """The first lower parameter -m of complex parameters that no upper
    -n, n <= m, ends the series before, or None."""
    cutoff = None
    for u in upper:
        n = _nonpositive_int(u)
        if n is not None and (cutoff is None or -n < cutoff):
            cutoff = -n
    for l in lower:
        m = _nonpositive_int(l)
        if m is not None and (cutoff is None or cutoff > -m):
            return m
    return None


def _series_jet(series, z):
    """(F, F', F'') of the plain series; see eval_pfq."""
    upper, lower = series.upper, series.lower
    if not z:
        c = list(islice(pfq_terms(upper, lower, 1.0), 3)) + [0j, 0j]
        return c[0], c[1], 2 * c[2]
    s0 = s1 = s2 = 0j
    m0 = m1 = m2 = 0.0
    for k, t in enumerate(pfq_terms(upper, lower, z)):
        if not cmath.isfinite(t):
            raise EvalDiverged("series term overflowed at z=%s" % (z,))
        t1 = k * t
        t2 = (k - 1) * t1
        s0 += t
        s1 += t1
        s2 += t2
        # peaks of |t_k|, |k t_k| and |k (k-1) t_k|, from one abs()
        a0 = abs(t)
        a1 = k * a0
        a2 = (k - 1) * a1
        if a0 > m0:
            m0 = a0
        if a1 > m1:
            m1 = a1
        if a2 > m2:
            m2 = a2
        if (a0 <= _REL_EPS * abs(s0) and abs(t1) <= _REL_EPS * abs(s1)
                and abs(t2) <= _REL_EPS * abs(s2)):
            break
        if k + 1 >= _TERM_CAP:
            raise EvalDiverged(
                "series did not settle within %d terms at z=%s"
                % (_TERM_CAP, z))
    if (m0 > _CANCELLED * abs(s0) or m1 > _CANCELLED * abs(s1)
            or m2 > _CANCELLED * abs(s2)):
        s0, s1, s2 = _fixed_point_sums(series.exact, z, (m0, m1, m2),
                                       (s0, s1, s2))
    return s0, s1 / z, s2 / (z * z)


def _fixed_point_sums(exact, z, peaks, sums):
    """sum t_k, sum k t_k and sum k (k-1) t_k, accurate to the double.

    The double pass lost about log2(peak / |sum|) bits to cancellation;
    this pass sums the same series with Python integers in fixed point,
    after mpmath's hypsum (mpmath/libmp/libhyper.py): the parameters
    are Gaussian integers over one common denominator D, z is read
    exactly from its double, and each term is the last one times the
    integer ratio of the two-term recursion, rounded toward zero. It
    starts at 80 bits plus the measured loss and repeats with more bits
    until every sum keeps 70 bits, counting log2(largest term / |sum|)
    and log2(terms) as lost; past 4000 bits it raises EvalDiverged.
    """
    exact_upper, exact_lower = exact
    params = exact_upper + exact_lower
    den = math.lcm(*(x.denominator for pair in params for x in pair))
    upper = [_scaled(pair, den) for pair in exact_upper]
    lower = [_scaled(pair, den) for pair in exact_lower]
    zr, zi = Fraction(z.real), Fraction(z.imag)
    zden = math.lcm(zr.denominator, zi.denominator)
    num = (zr.numerator * (zden // zr.denominator) * den ** len(lower),
           zi.numerator * (zden // zi.denominator) * den ** len(lower))
    zden *= den ** len(upper)
    # a double sum of exactly 0 lost all of its 53 bits, and maybe more
    loss = max(math.log2(max(peak, 1.0) / abs(s)) if s else
               math.log2(max(peak, 1.0)) + 60.0
               for peak, s in zip(peaks, sums) if peak)
    bits = _FIXED_START + math.ceil(loss)
    while bits <= _FIXED_CAP:
        out, terms = _fixed_point_pass(upper, lower, num, zden, den, bits)
        left = min(max(abs(r), abs(i)).bit_length()
                   - math.log2(max(peak, 1.0)) - terms.bit_length()
                   for (r, i), peak in zip(out, peaks) if peak)
        if left >= _FIXED_KEEP:
            one = 1 << bits
            return tuple(complex(r / one, i / one) for r, i in out)
        bits = max(bits + math.ceil(_FIXED_KEEP - left) + 10, bits * 3 // 2)
    raise EvalDiverged("series cancels beyond %d bits at z=%s"
                       % (_FIXED_CAP, z))


def _scaled(pair, den):
    """The Fraction pair (re, im) times den, as a pair of integers."""
    re, im = pair
    return (re.numerator * (den // re.denominator),
            im.numerator * (den // im.denominator))


def _fixed_point_pass(upper, lower, num, zden, den, bits):
    """The three sums in units of 2^-bits, as (re, im) integer pairs,
    and the number of terms it took.

    The series is pFq((upper) / den; (lower) / den; num / zden) with
    Gaussian integer pairs; num already carries den^len(lower) and zden
    den^len(upper), so term k+1 is term k times
    num * prod(u + k den) / (zden (k+1) prod(l + k den)).
    """
    tr, ti = 1 << bits, 0
    s0r, s0i, s1r, s1i, s2r, s2i = tr, 0, 0, 0, 0, 0
    k = 0
    while True:
        nr, ni = num
        for ur, ui in upper:
            ur += k * den
            nr, ni = nr * ur - ni * ui, nr * ui + ni * ur
        if not (nr or ni):
            break
        dr, di = zden * (k + 1), 0
        for lr, li in lower:
            lr += k * den
            dr, di = dr * lr - di * li, dr * li + di * lr
        if di:
            nr, ni = nr * dr + ni * di, ni * dr - nr * di
            dr = dr * dr + di * di
        elif dr < 0:
            nr, ni, dr = -nr, -ni, -dr
        xr = tr * nr - ti * ni
        xi = tr * ni + ti * nr
        tr = xr // dr if xr >= 0 else -(-xr // dr)
        ti = xi // dr if xi >= 0 else -(-xi // dr)
        k += 1
        if not (tr or ti):
            break
        if k >= _TERM_CAP:
            raise EvalDiverged(
                "fixed-point series did not settle within %d terms"
                % _TERM_CAP)
        s0r += tr
        s0i += ti
        s1r += k * tr
        s1i += k * ti
        s2r += k * (k - 1) * tr
        s2i += k * (k - 1) * ti
    return ((s0r, s0i), (s1r, s1i), (s2r, s2i)), k + 1


def _legendre_jet(kind, degree):
    """(X, X', X'') of the Legendre function X of order zero and the
    given degree v, as a function of its argument z.

    P_v is 2F1(v+1, -v; 1; (1-z)/2), analytic off the ray z <= -1. Q_v
    is the 1/z^2 series valid for |z| > 1 with the classical
    normalization, which agrees with the P recurrences used by the
    symbolic differentiation rule. Both take the chain rule through
    one eval_pfq call. A degree with no value raises SamplingFailed
    naming it: a degree that is not real, a Q degree on an integer
    <= -1, and one where the gamma of Q's normalization has a pole.
    """
    _double(degree)  # a degree beyond double range is refused first
    if isinstance(degree, GaussRat):
        raise _no_point("Legendre%s degree %s is not real"
                        % (kind, format_exact(degree)))
    v = Fraction(degree)
    if kind == "P":
        series = _series("2F1", (v + 1, -v), (1,))

        def p_jet(z):
            f, f1, f2 = eval_pfq(series, None, None, (1 - z) / 2)
            return f, -f1 / 2, f2 / 4

        return p_jet
    if v.denominator == 1 and v <= -1:
        raise _no_point("LegendreQ degree %s has no finite value" % v)
    a, b = float(v) + 1.0, float(v) + 1.5
    try:
        ga, gb = math.gamma(a), math.gamma(b)
    except ValueError:
        raise _no_point("the gamma of LegendreQ's normalization has a pole "
                        "at degree %s" % v) from None
    except OverflowError:
        ga = gb = 0.0
    if min(abs(ga), abs(gb)) >= sys.float_info.min:
        scale = math.sqrt(math.pi) * ga / gb
    else:
        # past |v| = 170 the gammas overflow, or lose their digits below
        # the normal range, while their ratio stays near |v|^(-1/2); a
        # gamma at a negative argument has the sign (-1)^floor
        scale = math.sqrt(math.pi) * math.exp(math.lgamma(a) - math.lgamma(b))
        if v < 0 and (math.floor(a) - math.floor(b)) % 2:
            scale = -scale
    series = _series("2F1", (v / 2 + 1, (v + 1) / 2), (v + Fraction(3, 2),))
    e = complex(-float(v) - 1.0)

    def q_jet(z):
        if abs(z) < _POLE_GUARD:
            raise PointRejected("LegendreQ argument too close to 0")
        w = 1 / (z * z)
        f, f1, f2 = eval_pfq(series, None, None, w)
        # X = q F(w), q = scale (2z)^e: q' = e q / z, w' = -2 w / z
        q = scale * (2 * z) ** e
        u = 1 / z
        return (q * f, q * u * (e * f - 2 * w * f1),
                q * u * u * (e * (e - 1) * f + (6 - 4 * e) * w * f1
                             + 4 * w * w * f2))

    return q_jet


def _no_point(reason):
    """The SamplingFailed of a solution that no sample point could
    evaluate."""
    return SamplingFailed("no sample point is admissible: " + reason)


def _double(v):
    """complex(v) of an exact number, or SamplingFailed naming a number
    beyond double range."""
    try:
        return complex(v)
    except OverflowError:
        text = format_exact(v)
        if len(text) > 40:
            text = "%s...%s (%d characters)" % (
                text[:20], text[-8:], len(text))
        raise _no_point("the constant %s is beyond double range"
                        % text) from None


def _compile_jet(e):
    """The jet (y, y', y'') of a solution expression, as a function of a
    complex point.

    Order-2 Taylor arithmetic: each node combines the jets of its
    children by the sum, product and chain rules. The tree is walked
    once, into one closure per node, so every exact number, power
    exponent and series parameter is converted to complex once per
    check. A series or Legendre node makes one eval_pfq call per point,
    looked up at call time. A power refuses a point within _POLE_GUARD
    of its pole or branch point.

    The walk is also where a solution no point could evaluate is
    refused, each node's own numbers before its children: an
    unevaluated integral and a series with no value raise ValueError,
    and an exact number beyond double range and a Legendre degree with
    no value raise SamplingFailed.
    """
    if isinstance(e, Num):
        const = (_double(e.value), 0j, 0j)
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
        return _power_jet(e)
    if isinstance(e, Exp):
        arg = _compile_jet(e.arg)

        def exp_jet(z):
            g, g1, g2 = arg(z)
            v = cmath.exp(g)
            return v, v * g1, v * (g2 + g1 * g1)

        return exp_jet
    if isinstance(e, (Hyp, Leg)):
        if isinstance(e, Leg):
            outer = _legendre_jet(e.kind, e.degree)
        else:
            for v in e.upper + e.lower:  # refused before _series reads them
                _double(v)
            series = _series(e.kind, e.upper, e.lower)

            def outer(g):
                return eval_pfq(series, None, None, g)

        arg = _compile_jet(e.arg)

        def series_jet(z):
            g, g1, g2 = arg(z)
            f, f1, f2 = outer(g)
            return f, f1 * g1, f2 * g1 * g1 + f1 * g2

        return series_jet
    if isinstance(e, Intg):
        raise ValueError(
            "solution contains an unevaluated integral; exclude it "
            "from pointwise residual checks")
    raise TypeError("not a solution expression: %r" % (e,))


def _power_jet(e):
    """The jet of the power node e, base^ex with an exact ex."""
    ex = e.exponent
    p = _double(ex).real
    base = _compile_jet(e.base)
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


class EvalPoint(Value):
    """A sample point together with its clearance from singularities."""

    __slots__ = ("z", "radius_guard")   # a complex and a float

    def __init__(self, z, radius_guard):
        setfield(self, "z", z)
        setfield(self, "radius_guard", radius_guard)


class ResidualReport(Value):
    """Normalized equation residuals of one solution at accepted points.

    Each residual is |y'' + A y' + B y| / max(|y|, |y'|, |y''|, 1) at
    the matching point, and max_residual is the largest of them.
    """

    __slots__ = ("points", "residuals", "max_residual")

    def __init__(self, points, residuals, max_residual):
        setfield(self, "points", points)
        setfield(self, "residuals", residuals)
        setfield(self, "max_residual", max_residual)

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
    """The value at z of the polynomial with coefficients coeffs, low
    degree first."""
    out = complex(0.0, 0.0)
    for c in reversed(coeffs):
        out = out * z + c
    return out


def _poly_roots(coeffs):
    """All complex roots of a monic polynomial, numerically.

    ``coeffs`` are its complex coefficients, low degree first, ending in
    1. Durand-Kerner iteration updates each root in place, so the next
    one's step already sees it (Gauss-Seidel order). Accuracy in the
    1e-12 range is plenty: roots only steer the sampler away from
    singular points, they never enter a reported value.
    """
    n = len(coeffs) - 1
    if n <= 0:
        return []
    roots = [(0.4 + 0.9j) ** (k + 1) for k in range(n)]
    for _ in range(200):
        worst = 0.0
        for i in range(n):
            r = roots[i]
            den = 1 + 0j
            for q in roots:
                if q is not r:  # the list holds r itself at i
                    den *= r - q
            if den == 0:
                den = complex(1e-12, 0.0)
            step = _horner(coeffs, r) / den
            roots[i] = r - step
            step = abs(step)
            if step > worst:
                worst = step
        if worst < 1e-13:
            break
    return roots


def _monic_product(polys):
    """The complex coefficients of the product of the monic copies of
    exact polynomials, low degree first.

    The product is formed in doubles, outside the exact kernel's caps on
    degree and coefficient size, which bound each factor but not their
    product. OverflowError marks a coefficient beyond double range.
    """
    out = [1 + 0j]
    for p in polys:
        cs = p.monic().complex_coeffs()
        prod = [0j] * (len(out) + len(cs) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(cs):
                prod[i + j] += a * b
        out = prod
    if not all(map(cmath.isfinite, out)):
        raise OverflowError("singular-point polynomial beyond double range")
    return out


def _coefficient(f):
    """One coefficient of the equation as a function of a complex point.

    f(x) = fn(x^(1/L)), L = 1 for a RatFunc, is evaluated by Horner's
    rule on the numerator and denominator of fn, converted to complex
    once. PointRejected marks a point within _POLE_GUARD of x = 0 when
    L > 1 (a branch point) or when the denominator is a power of x, and
    a point where the value of any other denominator is that small.
    """
    fn, carrier = (f.fn, f.carrier) if isinstance(f, GenRatFunc) else (f, 1)
    num = fn.num.complex_coeffs()
    den = fn.den.complex_coeffs()
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


def _singular_points(ode):
    """The finite singular points of the equation, each once.

    A and B share most of their poles, so one Durand-Kerner search runs
    on the lcm of their square-free denominators, sA * (sB / gcd(sA,
    sB)): every root is simple there and the iteration converges fast.
    A coefficient of x^(1/L) adds x = 0 and maps each root t to t^L; A
    and B with different carriers L get one search each.
    """
    dens = {}
    for f in (ode.A, ode.B):
        fn, carrier = ((f.fn, f.carrier) if isinstance(f, GenRatFunc)
                       else (f, 1))
        sq = fn.den // poly_gcd(fn.den, fn.den.deriv())
        factors = dens.setdefault(carrier, [])
        if factors:
            # only the poles of B that A lacks
            sq = sq // poly_gcd(factors[0], sq)
        factors.append(sq)
    out = []
    for carrier, factors in dens.items():
        roots = _poly_roots(_monic_product(factors))
        if carrier > 1:
            roots = [0j] + [r ** carrier for r in roots]
        for r in roots:
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
    SamplingFailed is raised. A solution that no point could evaluate
    is refused while its jet is built, before any point is tried (see
    _compile_jet).
    """
    if n_points < 1:
        raise ValueError("n_points must be positive")
    jet = _compile_jet(s)
    try:
        a_at = _coefficient(ode.A)
        b_at = _coefficient(ode.B)
        bad = _singular_points(ode)
    except OverflowError:
        # a coefficient beyond double range fails at every point
        raise SamplingFailed("only 0 of %d sample points were admissible"
                             % n_points) from None
    points = []
    residuals = []
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
