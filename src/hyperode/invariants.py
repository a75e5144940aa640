"""Normal form, the invariant, Schwarzians, and power minimization.

Core identities implemented here, writing A and B for the coefficients of
y'' + A y' + B y = 0:

    I  = A'/2 + A^2/4 - B                  (the normal-form invariant)
    I1 = F'^2 * (I0 o F) + S(F')           (change of independent variable)
    S  = 3 F''^2 / (4 F'^2) - F''' / (2 F')
    J  = x^2 * I + 1/4                     (the shifted invariant)

S vanishes exactly on fractional linear maps, and for F = x^k it collapses
to (k^2 - 1) / (4 x^2), which is what makes the shifted invariant the right
object for detecting power substitutions.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .exactalg import (
    GaussRat,
    GenRatFunc,
    Poly,
    RatFunc,
    demote_scalar,
)
from .odeio import LinearODE


class _Infinity:
    """Sentinel for the point at infinity on the projective line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "oo"


INF = _Infinity()


@dataclass(frozen=True)
class Mobius:
    """The fractional linear map x -> (a x + b) / (c x + d), det != 0."""

    a: object
    b: object
    c: object
    d: object

    def __post_init__(self):
        if not self.det:
            raise ValueError("degenerate fractional linear map")

    @property
    def det(self):
        return self.a * self.d - self.b * self.c

    @classmethod
    def identity(cls):
        return cls(Fraction(1), Fraction(0), Fraction(0), Fraction(1))

    @classmethod
    def from_ints(cls, a, b, c, d):
        return cls(Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    def as_ratfunc(self):
        return RatFunc(Poly((self.b, self.a)), Poly((self.d, self.c)))

    def apply(self, v):
        """Image of a point of the projective line (INF allowed)."""
        if v is INF:
            if not self.c:
                return INF
            return demote_scalar(self.a / self.c)
        den = self.c * v + self.d
        if not den:
            return INF
        return demote_scalar((self.a * v + self.b) / den)

    def inverse(self):
        return Mobius(self.d, -self.b, -self.c, self.a)

    def compose(self, other):
        """self o other as maps."""
        return Mobius(self.a * other.a + self.b * other.c,
                      self.a * other.b + self.b * other.d,
                      self.c * other.a + self.d * other.c,
                      self.c * other.b + self.d * other.d)

    def canonical(self):
        """Scale-normalized representative of the same map.

        Rational maps are scaled to coprime integers with a positive
        first nonzero entry; maps with Gaussian entries are scaled so the
        first nonzero entry is 1.
        """
        entries = (self.a, self.b, self.c, self.d)
        if any(isinstance(e, GaussRat) and e.im != 0 for e in entries):
            lead = next(e for e in entries if e)
            scaled = tuple(demote_scalar(e / lead) for e in entries)
            return Mobius(*scaled)
        fracs = [Fraction(e) if not isinstance(e, GaussRat) else e.re
                 for e in entries]
        denlcm = 1
        for f in fracs:
            denlcm = denlcm * f.denominator // gcd(denlcm, f.denominator)
        ints = [int(f * denlcm) for f in fracs]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g:
            ints = [v // g for v in ints]
        lead = next(v for v in ints if v)
        if lead < 0:
            ints = [-v for v in ints]
        return Mobius(*(Fraction(v) for v in ints))

    def __str__(self):
        return self.as_ratfunc().to_str("x")


@dataclass(frozen=True)
class NormalizedODE:
    """Invariant plus the data needed to undo the normalization.

    gauge_log_derivative is -A/2: the logarithmic derivative of the
    multiplier that carries solutions of u'' = I u back to solutions of
    the original equation.
    """

    I: object
    gauge_log_derivative: object


@dataclass(frozen=True)
class GenInvariant:
    """A shifted invariant with fractional exponents made polynomial.

    carrier is a reduced rational function in s = x^(1/N) where N is the
    minimal base_exponent_denominator (N = 1 for ordinary inputs).
    """

    base_exponent_denominator: int
    carrier: RatFunc

    @property
    def N(self):
        return self.base_exponent_denominator


def to_normal_form(ode):
    """Invariant and gauge data of a linear ODE; exact in all fields."""
    a, b = ode.A, ode.B
    i = a.deriv() / 2 + a * a * Fraction(1, 4) - b
    if isinstance(i, GenRatFunc):
        i = i.reduce_carrier()
        if i.carrier == 1:
            i = i.fn
    gauge = -a / 2
    if isinstance(gauge, GenRatFunc):
        gauge = gauge.reduce_carrier()
        if gauge.carrier == 1:
            gauge = gauge.fn
    return NormalizedODE(i, gauge)


def schwarzian(f):
    """Schwarzian term for the two structured map families.

    Accepts a Mobius (identically zero) or a rational power exponent k
    (giving (k^2-1)/(4x^2)).
    """
    if isinstance(f, Mobius):
        return RatFunc.const(0)
    k = Fraction(f)
    if not k:
        raise ValueError("zero power is degenerate")
    return RatFunc(Poly.const((k * k - 1) / 4),
                   Poly.from_pairs([(2, Fraction(1))]))


def apply_power_to_ratfunc(f, k):
    """f(x^k) for a rational function f and rational k != 0.

    Returns a RatFunc when the result is one, else a GenRatFunc carried
    on x^(1/q) with q the denominator of k.
    """
    k = Fraction(k)
    if not k:
        raise ValueError("zero power substitution")
    p, q = k.numerator, k.denominator
    if p > 0:
        composed = f.substitute_power(p)
    else:
        inner = RatFunc(Poly.const(1), Poly.from_pairs([(-p, Fraction(1))]))
        composed = f.compose(inner)
    if q == 1:
        return composed
    out = GenRatFunc(composed, q).reduce_carrier()
    return out.fn if out.carrier == 1 else out


def transform_invariant(i0, f):
    """Push an invariant through a change of variables.

    f is a Mobius or a rational power exponent. Implements
    I1 = F'^2 * I0(F) + S(F') exactly.
    """
    if isinstance(f, Mobius):
        m = f.as_ratfunc()
        d1 = m.deriv()
        return d1 * d1 * i0.compose(m)
    k = Fraction(f)
    if not k:
        raise ValueError("zero power is degenerate")
    p, q = k.numerator, k.denominator
    shifted = apply_power_to_ratfunc(i0, k)
    # F'^2 = k^2 x^(2k-2)
    e = 2 * k - 2
    if e.denominator == 1:
        xfac = _x_power_ratfunc(e.numerator)
    else:
        xfac = GenRatFunc.x_power(2 * (p - q), q)
    out = shifted * xfac * (k * k) + schwarzian(k)
    if isinstance(out, GenRatFunc):
        out = out.reduce_carrier()
        if out.carrier == 1:
            return out.fn
    return out


def _x_power_ratfunc(e):
    if e >= 0:
        return RatFunc(Poly.from_pairs([(e, Fraction(1))]))
    return RatFunc(Poly.const(1), Poly.from_pairs([(-e, Fraction(1))]))


def shifted_invariant(i):
    """J = x^2 I + 1/4 as a GenInvariant with minimal carrier."""
    if isinstance(i, GenInvariant):
        return i
    if isinstance(i, RatFunc):
        j = _x_power_ratfunc(2) * i + Fraction(1, 4)
        return GenInvariant(1, j)
    if isinstance(i, GenRatFunc):
        x2 = GenRatFunc(_x_power_ratfunc(2), 1)
        j = (x2 * i + Fraction(1, 4)).reduce_carrier()
        return GenInvariant(j.carrier, j.fn)
    raise TypeError("expected an invariant, got %r" % (i,))


def minimize_power_exponents(j1):
    """Largest-magnitude power pulled out of a shifted invariant.

    Returns (k, j0) with J1(x) = k^2 * J0(x^k) exactly. k is a positive
    or negative rational; the sign is chosen by preferring the candidate
    whose J0 has the smaller denominator degree, ties going to positive.
    Constant J1 returns k = 1.
    """
    carrier_fn = j1.carrier
    n = j1.base_exponent_denominator
    g = carrier_fn.exponent_gcd()
    if g == 0:
        # constant shifted invariant; no power transformation needed
        return Fraction(1), carrier_fn
    k = Fraction(g, n)
    compressed = carrier_fn.compress_power(g)
    scale = 1 / (k * k)
    j0_pos = compressed * scale
    inv = RatFunc(Poly.const(1), Poly.x())
    j0_neg = j0_pos.compose(inv)
    if j0_neg.den.degree < j0_pos.den.degree:
        return -k, j0_neg
    return k, j0_pos


def invariant_from_shifted(j0):
    """I0 = (J0 - 1/4) / x^2, inverse of the shift at the reduced stage."""
    return (j0 - Fraction(1, 4)) / _x_power_ratfunc(2)


def apply_gauge(ode, log_deriv):
    """The equation satisfied by z where y = P z and P'/P = log_deriv.

    Used for generating gauge-equivalent equations; the invariant is
    unchanged under this substitution.
    """
    a, b = ode.A, ode.B
    l = log_deriv
    return LinearODE(a + 2 * l, b + l.deriv() + l * l + a * l)
