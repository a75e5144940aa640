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
widens for 2F1. Each series, prepared once per check, keeps a table of
its term ratios that the points share, so a point's terms cost one
complex product each. One pass over the terms in doubles gives the
value and both derivatives; when a term dwarfs its sum, so that the
doubles have cancelled, the series is summed again in fixed point with
Python integers at the precision the cancellation needs. Other
arguments are rejected rather than continued analytically; the sampler
simply picks points whose transformed arguments land inside. It first
draws the points where each Gauss series argument of the solution takes
fixed values on |w| = 0.4, inverting the argument exactly when it is a
Moebius map of a power of x^(1/L); then a ladder of circles around the
singular set; then rings around each singular point, in a fixed order
of the points. The singular set comes from one root search on the lcm
of the coefficients' square-free denominators, run in t = x^g when
every denominator is a power of x times a polynomial in x^g, as a
pulled-back witness's are. An EquationSide lets the checks of several
solutions of one equation share that search and the coefficients'
evaluators.
"""

import cmath
import math
import random
import sys
from fractions import Fraction
from itertools import islice

from .errors import (
    CoefficientOverflow,
    DegreeOverflow,
    EvalDiverged,
    PointRejected,
    SamplingFailed,
)
from .exactalg import GaussRat, GenRatFunc, Poly, RatFunc, poly_gcd
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
# the values each Gauss series argument is steered to before the ladder:
# ten angles on |w| = 0.4, where a 2F1 sum takes about 45 terms against
# about 80 at the ladder's points, which reach the rim of the disc
_TARGETS = tuple(0.4 * cmath.exp(0.2j * math.pi * (j + 0.3))
                 for j in range(10))


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

    Parameters are exact or complex. One pass over the terms of
    pfq_terms, taken from the series' table of term ratios, sums
    F = sum t_k, z F' = sum k t_k and z^2 F'' = sum k (k-1) t_k in
    doubles; it stops once the last term of each sum is below 1e-16 of
    its running sum, or raises EvalDiverged after 10000 terms or at a
    term beyond double range. When a
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
    check, so its ratio table serves every point, and _series has then
    applied the undefined-series rule.
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
    2F1(a, c-b; c) of Pfaff's form, else None. ``ratios`` is the table
    of term ratios that _ratios grows as the points need it, and
    ``ended`` says whether it reached the series' last term.
    """

    __slots__ = ("kind", "upper", "lower", "exact", "pfaff", "ratios",
                 "ended")

    def __init__(self, kind, upper, lower, exact):
        self.kind = kind
        self.upper = upper
        self.lower = lower
        self.exact = exact
        self.pfaff = None
        self.ratios = []
        self.ended = False


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


def _ratios(series, n):
    """The length of series.ratios after growing it to n entries.

    Entry k is rho_k = prod(u + k) / ((k + 1) prod(l + k)), so term k+1
    is term k times rho_k z at every point. The table stops short of n
    at the first k whose upper factor is 0, before the lower parameters
    divide, where pfq_terms stops, and never passes _TERM_CAP entries.
    """
    ratios = series.ratios
    if series.ended:
        return len(ratios)
    upper, lower = series.upper, series.lower
    for k in range(len(ratios), min(n, _TERM_CAP)):
        num = 1 + 0j
        for u in upper:
            num *= u + k
        if not num:
            series.ended = True
            break
        den = k + 1.0
        for l in lower:
            den *= l + k
        ratios.append(num / den)
    return len(ratios)


def _series_jet(series, z):
    """(F, F', F'') of the plain series; see eval_pfq.

    One loop over the series' ratio table: t <- t (rho_k z), with the
    three sums, their peaks and the stop test on k |t| and (k-1) k |t|.
    Only a term that sets a new peak |t| can have overflowed, so only
    those are tested for finiteness.
    """
    upper, lower = series.upper, series.lower
    if not z:
        c = list(islice(pfq_terms(upper, lower, 1.0), 3)) + [0j, 0j]
        return c[0], c[1], 2 * c[2]
    ratios = series.ratios
    n = len(ratios)
    t = s0 = 1 + 0j
    s1 = s2 = 0j
    m0, m1, m2 = 1.0, 0.0, 0.0
    k = 0
    while True:
        if k == n:
            n = _ratios(series, n + 32)
            if k == n:
                break
        t = t * (ratios[k] * z)
        if t == 0:
            break
        k += 1
        t1 = k * t
        s0 += t
        s1 += t1
        s2 += (k - 1) * t1
        a0 = abs(t)
        if not a0 <= m0:  # a new peak, or nan
            if not cmath.isfinite(t):
                raise EvalDiverged("series term overflowed at z=%s" % (z,))
            m0 = a0
        a1 = k * a0
        a2 = (k - 1) * a1
        if a1 > m1:
            m1 = a1
        if a2 > m2:
            m2 = a2
        if (a0 <= _REL_EPS * abs(s0) and a1 <= _REL_EPS * abs(s1)
                and a2 <= _REL_EPS * abs(s2)):
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


def _legendre_jet(e):
    """The jet of the Legendre node e, of order zero and degree v: the
    jet of the 2F1 tree that defines it.

    P_v is 2F1(v+1, -v; 1; 1/2 - z/2) (DLMF 14.3.1), analytic off the ray
    z <= -1. Q_v is s (2z)^(-v-1) 2F1(v/2+1, (v+1)/2; v+3/2; z^-2) (DLMF
    14.3.7), for |z| > 1, with the classical normalization s = sqrt(pi)
    Gamma(v+1) / Gamma(v+3/2) that the symbolic differentiation rule
    assumes. s comes from lgamma, negated once for each gamma argument
    t < 0 with an odd floor, where Gamma(t) < 0. A degree with no value
    raises SamplingFailed naming it before the argument is read: one
    that is not real, a Q degree on an integer <= -1, one where a gamma
    of s has a pole (judged on the exact degree), one so large that a
    gamma argument rounds to a pole as a double, and one past about
    10^305, where lgamma overflows.
    """
    _double(e.degree)  # a degree beyond double range is refused first
    if isinstance(e.degree, GaussRat):
        raise _no_point("Legendre%s degree %s is not real"
                        % (e.kind, format_exact(e.degree)))
    v = Fraction(e.degree)
    if e.kind == "P":
        return _compile_jet(Hyp("2F1", (v + 1, -v), (Fraction(1),), Add(
            (Num(Fraction(1, 2)), Mul((Num(Fraction(-1, 2)), e.arg))))))
    if v.denominator == 1 and v <= -1:
        raise _no_point("LegendreQ degree %s has no finite value" % v)
    args = (v + 1, v + Fraction(3, 2))
    if args[1].denominator == 1 and args[1] <= 0:
        raise _no_point("the gamma of LegendreQ's normalization has a pole "
                        "at degree %s" % v)
    try:
        a, b = map(math.lgamma, args)
    except ValueError:
        # the exact arguments are no poles, but their doubles are
        raise _no_point("doubles cannot resolve the gamma of LegendreQ's "
                        "normalization at degree %s" % v) from None
    except OverflowError:
        raise _no_point("the log-gamma of LegendreQ's normalization is "
                        "beyond double range") from None
    scale = math.sqrt(math.pi) * math.exp(a - b)
    for t in args:
        if t < 0 and math.floor(t) % 2:
            scale = -scale
    return _compile_jet(Mul((
        Num(Fraction(scale)), Pow(Mul((Num(Fraction(2)), e.arg)), -v - 1),
        Hyp("2F1", (v / 2 + 1, (v + 1) / 2), (args[1],),
            Pow(e.arg, Fraction(-2))))))


def _no_point(reason):
    """The SamplingFailed of a solution that no sample point could
    evaluate."""
    return SamplingFailed("no sample point is admissible: " + reason)


def _double(v):
    """complex(v) of an exact number, or SamplingFailed naming a nonzero
    number that leaves the normal double range: one beyond it, or one
    that underflows to zero or a subnormal."""
    try:
        c = complex(v)
    except OverflowError:
        fault = "is beyond double range"
    else:
        if not v or abs(c) >= sys.float_info.min:
            return c
        fault = "underflows double range"
    text = format_exact(v)
    if len(text) > 40:
        text = "%s...%s (%d characters)" % (text[:20], text[-8:], len(text))
    raise _no_point("the constant %s %s" % (text, fault))


class UnevaluatedIntegral(ValueError):
    """The refusal of a solution that holds an unevaluated integral."""


def _compile_jet(e, arguments=None):
    """The jet (y, y', y'') of a solution expression, as a function of a
    complex point.

    Order-2 Taylor arithmetic: each node combines the jets of its
    children by the sum, product and chain rules. The tree is walked
    once, into one closure per node, so every exact number, power
    exponent and series parameter is converted to complex once per
    check. A series node makes one eval_pfq call per point, and a
    Legendre node is compiled as the series tree that defines it. A
    power refuses a point within _POLE_GUARD of its pole or branch point.

    The walk is also where a solution no point could evaluate is
    refused, each node's own numbers before its children: an
    unevaluated integral raises UnevaluatedIntegral, a ValueError, and
    a series with no value ValueError; an exact number that leaves the
    normal double range and a Legendre degree with no value raise
    SamplingFailed.

    When arguments is a list, the walk appends to it the argument tree
    of each 2F1 node, once each, for the sampler; the series that a
    Legendre node is compiled as are not recorded.
    """
    if isinstance(e, Num):
        const = (_double(e.value), 0j, 0j)
        return lambda z: const
    if isinstance(e, Sym):
        return lambda z: (z, 1 + 0j, 0j)
    if isinstance(e, Const):
        return lambda z: (1 + 0j, 0j, 0j)
    if isinstance(e, Add):
        terms = [_compile_jet(t, arguments) for t in e.terms]

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
        factors = [_compile_jet(f, arguments) for f in e.factors]

        def mul_jet(z):
            v, d1, d2 = 1 + 0j, 0j, 0j
            for f in factors:
                fv, f1, f2 = f(z)
                v, d1, d2 = (v * fv, d1 * fv + v * f1,
                             d2 * fv + 2 * d1 * f1 + v * f2)
            return v, d1, d2

        return mul_jet
    if isinstance(e, Pow):
        return _power_jet(e, arguments)
    if isinstance(e, Exp):
        arg = _compile_jet(e.arg, arguments)

        def exp_jet(z):
            g, g1, g2 = arg(z)
            v = cmath.exp(g)
            return v, v * g1, v * (g2 + g1 * g1)

        return exp_jet
    if isinstance(e, Hyp):
        for v in e.upper + e.lower:  # refused before _series reads them
            _double(v)
        series = _series(e.kind, e.upper, e.lower)
        arg = _compile_jet(e.arg, arguments)
        if (arguments is not None and e.kind == "2F1"
                and e.arg not in arguments):
            arguments.append(e.arg)

        def series_jet(z):
            g, g1, g2 = arg(z)
            f, f1, f2 = eval_pfq(series, None, None, g)
            return f, f1 * g1, f2 * g1 * g1 + f1 * g2

        return series_jet
    if isinstance(e, Leg):
        return _legendre_jet(e)
    if isinstance(e, Intg):
        raise UnevaluatedIntegral(
            "solution contains an unevaluated integral; exclude it "
            "from pointwise residual checks")
    raise TypeError("not a solution expression: %r" % (e,))


def _power_jet(e, arguments):
    """The jet of the power node e, base^ex with an exact ex."""
    ex = e.exponent
    p = _double(ex).real
    base = _compile_jet(e.base, arguments)
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
    """Relative equation residuals of one solution at accepted points.

    Each residual is |y'' + A y' + B y| / max(|y''|, |A y'|, |B y|) at
    the matching point, 0 where the sum is exactly 0, and max_residual
    is the largest of them. The ratio is the componentwise backward
    error of the three terms, so no constant factor of y and no scale of
    the equation moves it.
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

    A witness y = P(x) Y(M(x^k)) gives denominators x^j q(x^g), so the
    search runs on q in t = x^g, g the gcd of the exponent gcds of both
    denominators' q for one carrier, and x = 0 is singular when j > 0.
    A and B share most of their poles, so one Durand-Kerner search runs
    on the lcm of their compressed square-free q, sA * (sB / gcd(sA,
    sB)): every root is simple there and the iteration converges fast.
    Each root t gives the g points t^(1/g) e^(2 pi i m/g). A coefficient
    of x^(1/L) adds x = 0 and maps each root s to s^L; A and B with
    different carriers L get one search each.
    """
    dens = {}
    for f in (ode.A, ode.B):
        fn, carrier = ((f.fn, f.carrier) if isinstance(f, GenRatFunc)
                       else (f, 1))
        j = fn.den.order_at_zero()
        # reversing drops the zero tail, so twice gives den / x^j
        den = fn.den.reverse().reverse() if j else fn.den
        dens.setdefault(carrier, []).append((j, den))
    out = []
    for carrier, pairs in dens.items():
        g = math.gcd(*(q.exponent_gcd() for _, q in pairs)) or 1
        factors = []
        for _, q in pairs:
            q = q.compress_power(g)
            d = poly_gcd(q, q.deriv())
            sq = q // d if d.degree > 0 else q
            if factors:
                # only the poles of B that A lacks
                d = poly_gcd(factors[0], sq)
                if d.degree > 0:
                    sq = sq // d
            factors.append(sq)
        roots = _poly_roots(_monic_product(factors))
        if g > 1:
            turns = [cmath.exp(2j * math.pi * m / g) for m in range(g)]
            roots = [t ** (1.0 / g) * turn for t in roots for turn in turns]
        if carrier > 1 or any(j for j, _ in pairs):
            roots = [0j] + roots
        if carrier > 1:
            roots = [r ** carrier for r in roots]
        for r in roots:
            if all(abs(r - q) > 1e-9 for q in out):
                out.append(r)
    return out


def _rational_form(e):
    """The RatFunc or GenRatFunc that the expression tree e denotes, or
    None when e is not built from numbers and x by sums, products,
    integer powers and fractional powers of x alone."""
    if isinstance(e, Num):
        return RatFunc.const(e.value)
    if isinstance(e, Sym):
        return RatFunc.from_coprime(Poly.x(), Poly.const(1))
    if isinstance(e, (Add, Mul)):
        out = None
        for part in e.terms if isinstance(e, Add) else e.factors:
            f = _rational_form(part)
            if f is None:
                return None
            out = f if out is None else (
                out + f if isinstance(e, Add) else out * f)
        return out
    if isinstance(e, Pow):
        ex = e.exponent
        if ex.denominator == 1:
            base = _rational_form(e.base)
            return None if base is None else base ** int(ex)
        if isinstance(e.base, Sym):
            return GenRatFunc.x_power(ex.numerator, ex.denominator)
    return None


def _preimages(arg):
    """The points x where the argument tree arg takes each value of
    _TARGETS, or none.

    arg must denote R(x) = M(s^g) with s = x^(1/L) principal and M a
    Moebius map (num and den of degree <= 1): g is the gcd of the
    exponents of R as a function of s. Then s^g = M^-1(w), s is each
    g-th root of it and x = s^L, kept only where s is the principal
    x^(1/L). Any other shape, and a conversion past the kernel's caps
    or beyond double range, gives no point.
    """
    try:
        f = _rational_form(arg)
        if f is None:
            return []
        fn, carrier = ((f.fn, f.carrier) if isinstance(f, GenRatFunc)
                       else (f, 1))
        g = fn.exponent_gcd()
        if not g:
            return []
        m = fn.compress_power(g)
        if m.num.degree > 1 or m.den.degree > 1:
            return []
        b, a = (complex(m.num.coeff(i)) for i in (0, 1))
        d, c = (complex(m.den.coeff(i)) for i in (0, 1))
        turns = [cmath.exp(2j * math.pi * j / g) for j in range(g)]
        root = complex(1.0 / carrier, 0.0)
        out = []
        for w in _TARGETS:
            t = (d * w - b) / (a - c * w)
            for turn in turns:
                s = t ** (1.0 / g) * turn
                x = s ** carrier
                if not cmath.isfinite(x) or (
                        carrier > 1 and abs(x ** root - s) > 1e-9 * abs(s)):
                    continue
                out.append(x)
        return out
    except (ZeroDivisionError, DegreeOverflow, CoefficientOverflow,
            OverflowError):
        return []


def _candidate_points(bad, fractional, arguments=()):
    """Deterministic sample points: preimages of small series arguments,
    then a ladder around the singular set, then rings.

    The first points are the preimages of _TARGETS under each Gauss
    series argument in arguments (see _preimages), so every series of
    that argument sums on |w| = 0.4. The ladder's guard and half-plane
    rule below apply to them too, at the ladder's scale.

    The ladder is circles of several radii around several centers,
    scaled to the spread of the singularities, with angles drawn from a
    fixed-seed generator. Consumers filter by what actually evaluates,
    so the ladder errs toward variety. Fractional-power inputs stay in
    the right half plane, away from the principal branch cut.

    After the ladder come rings around each finite singular point b,
    with radii a fraction of the distance d from b to the nearest other
    singular point (the ladder's scale when b is alone). A series
    argument that maps b to 0 is small only near b, so these reach
    equations whose arguments leave the series' regions everywhere on
    the ladder. The radii stay below d/2, so b is the nearest singular
    point and the clearance is at least 0.07 d; the half-plane rule
    holds relative to d. The rings are drawn with the singular points
    sorted by their parts to 9 places, then exactly, so the points
    depend on the singular set alone, not on its order.
    """
    scale = max([1.0] + [abs(b) for b in bad])
    for arg in arguments:
        for z in _preimages(arg):
            guard = min((abs(z - b) for b in bad), default=scale)
            if guard < 0.02 * scale:
                continue
            if fractional and z.real < 0.05 * scale:
                continue
            yield z, guard
    rng = random.Random(0x5EED)
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
    for b in sorted(bad, key=lambda b: (round(b.real, 9), round(b.imag, 9),
                                        b.real, b.imag)):
        d = min((abs(b - q) for q in bad if q != b), default=scale)
        for f in (0.3, 0.15, 0.45, 0.07):
            for _ in range(6):
                ang = 2.0 * math.pi * rng.random()
                z = b + f * d * cmath.exp(1j * ang)
                if fractional and z.real < 0.05 * d:
                    continue
                yield z, min(abs(z - q) for q in bad)


class EquationSide:
    """What residual checks need of the equation alone: evaluators of
    its coefficients and its finite singular points.

    They are built on the first check that asks, after that check has
    compiled its solution, so a solution's own refusals still come
    before an equation no point can evaluate; later checks of other
    solutions of the same equation share them.
    """

    __slots__ = ("ode", "parts")

    def __init__(self, ode):
        self.ode = ode
        self.parts = None

    def build(self, n_points):
        """(A, B, singular points); SamplingFailed when a coefficient
        is beyond double range, which fails at every point."""
        if self.parts is None:
            ode = self.ode
            try:
                self.parts = (_coefficient(ode.A), _coefficient(ode.B),
                              _singular_points(ode))
            except OverflowError:
                raise SamplingFailed(
                    "only 0 of %d sample points were admissible"
                    % n_points) from None
        return self.parts


def residual_check(ode, s, n_points=8, *, side=None):
    """Measure how well s satisfies the equation at sampled points.

    Builds the jet of y, y' and y'' once, then evaluates it at
    deterministic sample points chosen away from the singularities of
    the coefficients: first where each Gauss series argument of s takes
    small fixed values, then on the ladder and the rings (see
    _candidate_points). Points where any piece fails its numeric guards
    (series outside the convergence disc, pole proximity) are skipped,
    and so are points where the values leave double range: an overflow,
    or a jet whose entries are all zero or subnormal, which is no
    evidence. If fewer than n_points survive the ladder and rings,
    SamplingFailed is raised, counting the points that left double
    range. A solution that no point could evaluate is refused while its
    jet is built, before any point is tried (see _compile_jet).

    side, an EquationSide of ode, lets the checks of several solutions
    of one equation build its coefficients and singular points once.
    """
    if n_points < 1:
        raise ValueError("n_points must be positive")
    arguments = []
    jet = _compile_jet(s, arguments)
    a_at, b_at, bad = (side or EquationSide(ode)).build(n_points)
    points = []
    residuals = []
    unranged = 0
    for z, guard in _candidate_points(bad, ode.is_fractional, arguments):
        try:
            yv, dv, ddv = jet(z)
            size = max(abs(yv), abs(dv), abs(ddv))
            if not sys.float_info.min <= size < math.inf:
                # zeros and subnormals are no evidence, nor is an overflow
                unranged += 1
                continue
            # the ratio is homogeneous in y: at size 1, no term of the
            # equation underflows because y is small
            yv, dv, ddv = yv / size, dv / size, ddv / size
            ay, by = a_at(z) * dv, b_at(z) * yv
            top = abs(ddv + ay + by)
            res = top / max(abs(ddv), abs(ay), abs(by)) if top else 0.0
        except (PointRejected, EvalDiverged, ZeroDivisionError):
            continue
        except OverflowError:
            res = math.inf
        if not res < math.inf:
            unranged += 1
            continue
        points.append(EvalPoint(z, guard))
        residuals.append(res)
        if len(points) == n_points:
            return ResidualReport(
                tuple(points), tuple(residuals), max(residuals))
    raise SamplingFailed(
        "only %d of %d sample points were admissible%s"
        % (len(points), n_points, "; the values underflowed or overflowed"
           " at %d of the points tried" % unranged if unranged else ""))
