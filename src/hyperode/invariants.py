"""Normal form, the invariant, Mobius maps and power minimization.

Writing A and B for the coefficients of y'' + A y' + B y = 0:

    I  = A'/2 + A^2/4 - B                  (the normal-form invariant)
    I1 = F'^2 * (I0 o F) + S(F)            (change of independent variable)
    J  = x^2 * I + 1/4                     (the shifted invariant)

with S(F) the Schwarzian of F. S vanishes on fractional linear maps, so
transform_invariant applies I1 = M'^2 * I0(M). For F = x^k it is
(k^2 - 1) / (4 x^2), which turns the law into J1(x) = k^2 * J0(x^k): a
power substitution shows in the exponents of J, and
minimize_power_exponents reads it off. Equations are pulled back along
M(x^k) by equivalence._pull_back alone. to_normal_form builds I over the
one denominator d^2 of A = p/d.
"""

from fractions import Fraction
from math import gcd, lcm

from .exactalg import GaussRat, GenRatFunc, Poly, RatFunc, poly_gcd
from .odeio import LinearODE
from .values import Value, setfield


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

# x^2, the factor between an invariant and its shifted invariant
_X_SQUARED = RatFunc(Poly.x() ** 2)


class Mobius(Value):
    """The fractional linear map x -> (a x + b) / (c x + d), det != 0."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        setfield(self, "a", a)
        setfield(self, "b", b)
        setfield(self, "c", c)
        setfield(self, "d", d)
        if not self.det:
            raise ValueError("degenerate fractional linear map")

    @property
    def det(self):
        return self.a * self.d - self.b * self.c

    @classmethod
    def from_ints(cls, a, b, c, d):
        return cls(Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    def as_ratfunc(self):
        return RatFunc(Poly((self.b, self.a)), Poly((self.d, self.c)))

    def canonical(self):
        """Scale-normalized representative of the same map.

        Rational maps are scaled to coprime integers with a positive
        first nonzero entry; maps with Gaussian entries are scaled so the
        first nonzero entry is 1.
        """
        entries = (self.a, self.b, self.c, self.d)
        if any(isinstance(e, GaussRat) for e in entries):
            lead = next(e for e in entries if e)
            return Mobius(*(e / lead for e in entries))
        fracs = [Fraction(e) for e in entries]
        scale = lcm(*(f.denominator for f in fracs))
        ints = [int(f * scale) for f in fracs]
        g = gcd(*ints)
        if next(v for v in ints if v) < 0:
            g = -g
        return Mobius(*(Fraction(v // g) for v in ints))


class NormalizedODE(Value):
    """The normal form u'' = I u of an equation, held by its invariant."""

    __slots__ = ("I",)

    def __init__(self, I):
        setfield(self, "I", I)


def to_normal_form(ode):
    """Invariant of a linear ODE; exact in all fields.

    A RatFunc A = p/d gives A'/2 + A^2/4 = n/(4 d^2), n = 2(p'd - pd') + p^2.
    p is prime to d, so n shares with d^2 only factors simple in d, and
    two gcds, g1 = gcd(n, d) and gcd(n/g1, g1), reduce the fraction before
    B is subtracted. A GenRatFunc A takes the operator expression.
    """
    a, b = ode.A, ode.B
    if not isinstance(a, RatFunc):
        return NormalizedODE(a.deriv() / 2 + a ** 2 * Fraction(1, 4) - b)
    p, d = a.num, a.den
    n = (p.deriv() * d - p * d.deriv()) * 2 + p * p
    den = d * d
    if not n.is_zero and d.degree > 0:
        g = poly_gcd(n, d)
        if g.degree > 0:
            n, den = n // g, den // g
            g = poly_gcd(n, g)
            if g.degree > 0:
                n, den = n // g, den // g
    return NormalizedODE(RatFunc.from_coprime(n * Fraction(1, 4), den) - b)


def transform_invariant(i0, mobius):
    """Push an invariant through a fractional linear change of variables.

    The Schwarzian of a Mobius map is zero, so I1 = M'^2 * I0(M) exactly.
    """
    m = mobius.as_ratfunc()
    d1 = m.deriv()
    return d1 * d1 * i0.compose(m)


def shifted_invariant(i):
    """J = x^2 I + 1/4, a RatFunc or a GenRatFunc with minimal carrier."""
    if not isinstance(i, (RatFunc, GenRatFunc)):
        raise TypeError("expected an invariant, got %r" % (i,))
    return _X_SQUARED * i + Fraction(1, 4)


def minimize_power_exponents(j1):
    """Largest-magnitude power pulled out of a shifted invariant.

    Returns (k, j0) with J1(x) = k^2 * J0(x^k) exactly. k is a positive
    or negative rational; the sign is chosen by preferring the candidate
    whose J0 has the smaller denominator degree, ties going to positive.
    Constant J1 returns k = 1.
    """
    carrier_fn, n = ((j1.fn, j1.carrier) if isinstance(j1, GenRatFunc)
                     else (j1, 1))
    g = carrier_fn.exponent_gcd()
    if g == 0:
        # constant shifted invariant; no power transformation needed
        return Fraction(1), carrier_fn
    k = Fraction(g, n)
    compressed = carrier_fn.compress_power(g)
    scale = 1 / (k * k)
    j0_pos = compressed * scale
    # With p, q the degrees of num and den, J0(1/x) is
    # x^(q-p) rev(num) / rev(den) with coprime parts, so its denominator
    # has degree q - ord0(den) + max(p - q, 0); it is built only when
    # that is below q.
    num, den = j0_pos.num, j0_pos.den
    excess = num.degree - den.degree
    if den.order_at_zero() > max(excess, 0):
        return -k, RatFunc.from_coprime(num.reverse(max(-excess, 0)),
                                        den.reverse(max(excess, 0)))
    return k, j0_pos


def invariant_from_shifted(j0):
    """I0 = (J0 - 1/4) / x^2, inverse of the shift at the reduced stage."""
    return (j0 - Fraction(1, 4)) / _X_SQUARED


def apply_gauge(ode, log_deriv):
    """The equation satisfied by z where y = P z and P'/P = log_deriv.

    Used for generating gauge-equivalent equations; the invariant is
    unchanged under this substitution.
    """
    a, b = ode.A, ode.B
    l = log_deriv
    return LinearODE(a + 2 * l, b + l.deriv() + l ** 2 + a * l)
