"""Exact scalar and univariate polynomial arithmetic.

Everything downstream (invariant computation, equivalence resolution,
solution assembly) runs on the types in this module: Fraction scalars,
Gaussian rationals, dense polynomials, and reduced rational functions.
All arithmetic is exact; floats never enter here.
"""

from fractions import Fraction
from math import gcd, isqrt
import random

from .errors import DegreeOverflow

_degree_cap = 64


def set_degree_cap(n):
    """Set the global cap on intermediate polynomial degrees."""
    global _degree_cap
    if n < 1:
        raise ValueError("degree cap must be positive")
    _degree_cap = int(n)


def degree_cap():
    return _degree_cap


class GaussRat:
    """A Gaussian rational a + b*i with Fraction components.

    Interoperates with int and Fraction on both sides of every operator,
    so mixed-field polynomial arithmetic needs no explicit lifting.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def norm(self):
        return self.re * self.re + self.im * self.im

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussRat):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussRat(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRat(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRat(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRat(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRat(self.re * o.re - self.im * o.im,
                        self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussRat((self.re * o.re + self.im * o.im) / n,
                        (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __pos__(self):
        return self

    def __pow__(self, exp):
        if not isinstance(exp, int):
            return NotImplemented
        if exp < 0:
            return (GaussRat(1) / self) ** (-exp)
        out = GaussRat(1)
        base = self
        while exp:
            if exp & 1:
                out = out * base
            base = base * base
            exp >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, GaussRat):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return "GaussRat(%s, %s)" % (self.re, self.im)

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return "%s*i" % (self.im,)
        sign = "+" if self.im > 0 else "-"
        return "%s%s%s*i" % (self.re, sign, abs(self.im))


def demote_scalar(c):
    """Collapse a real GaussRat back to a Fraction; pass others through."""
    if isinstance(c, GaussRat) and c.im == 0:
        return c.re
    return c


class Poly:
    """Dense univariate polynomial, coefficients low degree first.

    Coefficients are Fraction or GaussRat (the two interoperate, so mixed
    polynomials are fine). The zero polynomial has an empty coefficient
    tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        if len(cs) - 1 > _degree_cap:
            raise DegreeOverflow(len(cs) - 1, _degree_cap)
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c):
        return cls((_as_scalar(c),))

    @classmethod
    def x(cls):
        return cls((Fraction(0), Fraction(1)))

    @classmethod
    def from_pairs(cls, pairs):
        """Build from (exponent, coefficient) pairs."""
        if not pairs:
            return cls()
        top = max(e for e, _ in pairs)
        if top > _degree_cap:
            raise DegreeOverflow(top, _degree_cap)
        cs = [Fraction(0)] * (top + 1)
        for e, c in pairs:
            cs[e] = cs[e] + c
        return cls(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def lc(self):
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def coeff(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for k, c in enumerate(b):
            cs[k] = cs[k] + c
        return Poly(cs)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            if not other:
                return Poly()
            return Poly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly()
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, exp):
        if not isinstance(exp, int) or exp < 0:
            return NotImplemented
        out = Poly.const(1)
        base = self
        while exp:
            if exp & 1:
                out = out * base
            base = base * base
            exp >>= 1
        return out

    def __divmod__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            other = Poly.const(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        quot = [Fraction(0)] * (dq + 1)
        dlc = other.lc
        dcs = other.coeffs
        for k in range(dq, -1, -1):
            c = rem[k + len(dcs) - 1]
            if not c:
                continue
            q = c / dlc
            quot[k] = q
            for j, dc in enumerate(dcs):
                rem[k + j] = rem[k + j] - q * dc
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __call__(self, v):
        return self.eval(v)

    def eval(self, v):
        if not self.coeffs:
            return Fraction(0) if not isinstance(v, (float, complex)) else 0.0
        acc = self.coeffs[-1]
        if isinstance(v, (float, complex)):
            acc = complex(acc) if isinstance(acc, GaussRat) else float(acc)
            for c in reversed(self.coeffs[:-1]):
                cv = complex(c) if isinstance(c, GaussRat) else float(c)
                acc = acc * v + cv
            return acc
        for c in reversed(self.coeffs[:-1]):
            acc = acc * v + c
        return acc

    def compose(self, other):
        """self(other(x)) for a polynomial argument."""
        if not self.coeffs:
            return Poly()
        acc = Poly.const(self.coeffs[-1])
        for c in reversed(self.coeffs[:-1]):
            acc = acc * other + Poly.const(c)
        return acc

    def deriv(self):
        if len(self.coeffs) <= 1:
            return Poly()
        return Poly(tuple(self.coeffs[k] * k
                          for k in range(1, len(self.coeffs))))

    def monic(self):
        if self.is_zero:
            return self
        lc = self.lc
        if lc == 1:
            return self
        return Poly(tuple(c / lc for c in self.coeffs))

    def substitute_power(self, k):
        """Return p(x^k) by exponent spreading (k a positive integer)."""
        if k == 1 or self.is_zero:
            return self
        return Poly.from_pairs([(e * k, c) for e, c in enumerate(self.coeffs)
                                if c])

    def compress_power(self, k):
        """Inverse of substitute_power: p must have support in k*Z."""
        if k == 1:
            return self
        cs = []
        for e, c in enumerate(self.coeffs):
            if c and e % k:
                raise ValueError("polynomial support not divisible by %d" % k)
            if e % k == 0:
                cs.append(c)
        return Poly(cs)

    def exponent_gcd(self):
        """gcd of the exponents carrying nonzero coefficients."""
        g = 0
        for e, c in enumerate(self.coeffs):
            if c:
                g = gcd(g, e)
        return g

    def taylor_at(self, r, count):
        """First `count` Taylor coefficients of p around x = r."""
        rem = list(self.coeffs)
        out = []
        for _ in range(count):
            if not rem:
                out.append(Fraction(0))
                continue
            acc = rem[-1]
            new = [acc]
            for c in reversed(rem[:-1]):
                acc = acc * r + c
                new.append(acc)
            new.reverse()
            out.append(new[0])
            rem = new[1:]
        return out

    def has_gauss(self):
        return any(isinstance(c, GaussRat) for c in self.coeffs)

    def demote(self):
        """Collapse GaussRat coefficients with zero imaginary part."""
        return Poly(tuple(demote_scalar(c) for c in self.coeffs))

    def __repr__(self):
        return "Poly(%r)" % (self.coeffs,)

    def __str__(self):
        return format_poly(self, "x")


def _as_scalar(c):
    if isinstance(c, (Fraction, GaussRat)):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError("not an exact scalar: %r" % (c,))


def _as_poly(other):
    if isinstance(other, Poly):
        return other
    if isinstance(other, (int, Fraction, GaussRat)):
        return Poly.const(other)
    return NotImplemented


def format_poly(p, var):
    if p.is_zero:
        return "0"
    parts = []
    for e in range(p.degree, -1, -1):
        c = p.coeff(e)
        if not c:
            continue
        if isinstance(c, GaussRat) and c.im != 0:
            coef = "(%s)" % c
            sign = "+"
        else:
            cr = c.re if isinstance(c, GaussRat) else c
            sign = "+" if cr >= 0 else "-"
            coef = str(abs(cr))
        if e == 0:
            term = coef
        else:
            xpow = var if e == 1 else "%s^%d" % (var, e)
            term = xpow if coef == "1" else "%s*%s" % (coef, xpow)
        if not parts:
            parts.append(term if sign == "+" else "-" + term)
        else:
            parts.append(" %s %s" % (sign, term))
    return "".join(parts)


# ---------------------------------------------------------------------------
# gcd machinery


def _clear_denominators(p):
    """Integer coefficient list (low first) proportional to p, primitive."""
    if p.is_zero:
        return []
    denlcm = 1
    for c in p.coeffs:
        denlcm = denlcm * c.denominator // gcd(denlcm, c.denominator)
    ints = [int(c * denlcm) for c in p.coeffs]
    g = 0
    for c in ints:
        g = gcd(g, c)
    if g > 1:
        ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return ints


def _int_content(cs):
    g = 0
    for c in cs:
        g = gcd(g, c)
    return g or 1


def _int_pseudo_rem(a, b):
    """Pseudo-remainder of integer coefficient lists (low first)."""
    rem = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(rem) - 1 >= db and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < db:
            break
        lead = rem[-1]
        shift = len(rem) - 1 - db
        rem = [c * lb for c in rem]
        for j, bc in enumerate(b):
            rem[shift + j] -= lead * bc
        while rem and rem[-1] == 0:
            rem.pop()
    return rem


def poly_gcd(p, q):
    """Monic gcd of two polynomials.

    Rational polynomials go through a primitive integer remainder sequence,
    which keeps coefficient growth tame. Gaussian coefficients take the
    straightforward monic Euclid route.
    """
    if p.is_zero:
        return q.monic()
    if q.is_zero:
        return p.monic()
    if p.has_gauss() or q.has_gauss():
        a, b = p, q
        while not b.is_zero:
            a, b = b, (a % b)
        return a.monic()
    a = _clear_denominators(p)
    b = _clear_denominators(q)
    if len(a) < len(b):
        a, b = b, a
    while True:
        r = _int_pseudo_rem(a, b)
        if not r:
            break
        g = _int_content(r)
        a, b = b, [c // g for c in r]
    return Poly([Fraction(c) for c in b]).monic()


def squarefree_decomposition(p):
    """Yufu style squarefree split: [(factor, multiplicity), ...].

    Factors are monic, squarefree, pairwise coprime; the product of
    factor^multiplicity times the leading coefficient reproduces p.
    """
    out = []
    if p.degree < 1:
        return out
    work = p.monic()
    g = poly_gcd(work, work.deriv())
    w = work // g
    mult = 1
    while w.degree > 0:
        y = poly_gcd(w, g)
        piece = w // y
        if piece.degree > 0:
            out.append((piece.monic(), mult))
        w = y
        g = g // y
        mult += 1
    return out


# ---------------------------------------------------------------------------
# rational functions


class RatFunc:
    """Reduced rational function num/den with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Poly):
            num = _as_poly(num)
        if den is None:
            den = Poly.const(1)
        elif not isinstance(den, Poly):
            den = _as_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            self.num = Poly()
            self.den = Poly.const(1)
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = num // g
            den = den // g
        lc = den.lc
        if lc != 1:
            num = num * (Fraction(1) / lc if not isinstance(lc, GaussRat)
                         else GaussRat(1) / lc)
            den = den.monic()
        self.num = num
        self.den = den

    @classmethod
    def const(cls, c):
        return cls(Poly.const(c))

    @classmethod
    def x(cls):
        return cls(Poly.x())

    @property
    def is_zero(self):
        return self.num.is_zero

    def __add__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.den - other.num * self.den,
                       self.den * other.den)

    def __rsub__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, exp):
        if not isinstance(exp, int):
            return NotImplemented
        if exp < 0:
            return (RatFunc.const(1) / self) ** (-exp)
        return RatFunc(self.num ** exp, self.den ** exp)

    def __eq__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.num.is_zero

    def deriv(self):
        return RatFunc(self.num.deriv() * self.den
                       - self.num * self.den.deriv(),
                       self.den * self.den)

    def eval(self, v):
        dv = self.den.eval(v)
        if isinstance(v, (float, complex)):
            return self.num.eval(v) / dv
        if not dv:
            raise ZeroDivisionError("evaluation at a pole")
        return self.num.eval(v) / dv

    def __call__(self, v):
        return self.eval(v)

    def compose(self, other):
        """self(other(x)) for a rational argument, by homogenization."""
        other = _as_ratfunc(other)
        d = max(self.num.degree, self.den.degree, 0)
        pn, pd = other.num, other.den
        powers_n = [Poly.const(1)]
        powers_d = [Poly.const(1)]
        for _ in range(d):
            powers_n.append(powers_n[-1] * pn)
            powers_d.append(powers_d[-1] * pd)
        num = Poly()
        for e in range(self.num.degree + 1):
            c = self.num.coeff(e)
            if c:
                num = num + powers_n[e] * powers_d[d - e] * c
        den = Poly()
        for e in range(self.den.degree + 1):
            c = self.den.coeff(e)
            if c:
                den = den + powers_n[e] * powers_d[d - e] * c
        return RatFunc(num, den)

    def substitute_power(self, k):
        return RatFunc(self.num.substitute_power(k),
                       self.den.substitute_power(k))

    def compress_power(self, k):
        return RatFunc(self.num.compress_power(k),
                       self.den.compress_power(k))

    def exponent_gcd(self):
        return gcd(self.num.exponent_gcd(), self.den.exponent_gcd())

    def has_gauss(self):
        return self.num.has_gauss() or self.den.has_gauss()

    def demote(self):
        return RatFunc(self.num.demote(), self.den.demote())

    def __repr__(self):
        return "RatFunc(%r, %r)" % (self.num, self.den)

    def __str__(self):
        return self.to_str("x")

    def to_str(self, var):
        ns = format_poly(self.num, var)
        if self.den.degree == 0:
            return ns
        ds = format_poly(self.den, var)
        if self.num.degree > 0:
            ns = "(%s)" % ns
        return "%s/(%s)" % (ns, ds)


def _as_ratfunc(other):
    if isinstance(other, RatFunc):
        return other
    if isinstance(other, Poly):
        return RatFunc(other)
    if isinstance(other, (int, Fraction, GaussRat)):
        return RatFunc.const(other)
    return NotImplemented


class GenRatFunc:
    """Rational function of a fractional power carrier.

    Represents f(x) = fn(x^(1/carrier)) with fn a RatFunc. carrier == 1
    reduces to an ordinary rational function. Supports just enough
    arithmetic for normal form and invariant work on equations whose
    coefficients involve fractional powers of x.
    """

    __slots__ = ("fn", "carrier")

    def __init__(self, fn, carrier=1):
        if carrier < 1:
            raise ValueError("carrier must be a positive integer")
        self.fn = _as_ratfunc(fn)
        self.carrier = int(carrier)

    @classmethod
    def const(cls, c):
        return cls(RatFunc.const(c), 1)

    @classmethod
    def x_power(cls, num, den):
        """x^(num/den) as a carrier function."""
        if num < 0:
            return cls(RatFunc(Poly.const(1),
                               Poly.from_pairs([(-num, Fraction(1))])), den)
        return cls(RatFunc(Poly.from_pairs([(num, Fraction(1))])), den)

    @staticmethod
    def _align(a, b):
        b = a._coerce(b)
        if b is NotImplemented:
            return None, None
        la, lb = a.carrier, b.carrier
        g = gcd(la, lb)
        lcm = la // g * lb
        fa = a.fn.substitute_power(lcm // la)
        fb = b.fn.substitute_power(lcm // lb)
        return GenRatFunc(fa, lcm), GenRatFunc(fb, lcm)

    @staticmethod
    def _coerce(other):
        if isinstance(other, GenRatFunc):
            return other
        if isinstance(other, (RatFunc, Poly, int, Fraction, GaussRat)):
            return GenRatFunc(_as_ratfunc(other), 1)
        return NotImplemented

    def _binop(self, other, op):
        a, b = self._align(self, other)
        if a is None:
            return NotImplemented
        return GenRatFunc(op(a.fn, b.fn), a.carrier).reduce_carrier()

    def __add__(self, other):
        return self._binop(other, lambda x, y: x + y)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, lambda x, y: x - y)

    def __rsub__(self, other):
        return self._binop(other, lambda x, y: y - x)

    def __mul__(self, other):
        return self._binop(other, lambda x, y: x * y)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, lambda x, y: x / y)

    def __rtruediv__(self, other):
        return self._binop(other, lambda x, y: y / x)

    def __neg__(self):
        return GenRatFunc(-self.fn, self.carrier)

    def __pow__(self, exp):
        return GenRatFunc(self.fn ** exp, self.carrier).reduce_carrier()

    def __eq__(self, other):
        a, b = self._align(self, other)
        if a is None:
            return NotImplemented
        return a.fn == b.fn

    def __hash__(self):
        r = self.reduce_carrier()
        return hash((r.fn, r.carrier))

    @property
    def is_zero(self):
        return self.fn.is_zero

    def deriv(self):
        """d/dx of fn(x^(1/L)): chain rule through the carrier."""
        if self.carrier == 1:
            return GenRatFunc(self.fn.deriv(), 1)
        inner = self.fn.deriv()
        # d sigma / dx = (1/L) sigma^(1-L)
        chain = RatFunc(Poly.const(Fraction(1, self.carrier)),
                        Poly.from_pairs([(self.carrier - 1, Fraction(1))]))
        return GenRatFunc(inner * chain, self.carrier).reduce_carrier()

    def reduce_carrier(self):
        """Shrink the carrier when every exponent permits it."""
        if self.carrier == 1:
            return self
        g = gcd(self.fn.exponent_gcd(), self.carrier)
        if g <= 1:
            return self
        return GenRatFunc(self.fn.compress_power(g), self.carrier // g)

    def as_ratfunc(self):
        r = self.reduce_carrier()
        if r.carrier != 1:
            raise ValueError("fractional carrier %d remains" % r.carrier)
        return r.fn

    def __repr__(self):
        return "GenRatFunc(%r, %d)" % (self.fn, self.carrier)


# ---------------------------------------------------------------------------
# integer and rational number theory


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_probable_prime(n):
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n):
    if n % 2 == 0:
        return 2
    rng = random.Random(n)
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d


def factorize(n):
    """Prime factorization of a positive integer as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize needs a positive integer")
    out = {}
    for p in (2, 3, 5, 7):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 11
    while d * d <= n and d <= 10000:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        f = _pollard_rho(m)
        stack.append(f)
        stack.append(m // f)
    return out


def divisors(n):
    """Sorted positive divisors of a nonzero integer."""
    facs = factorize(abs(n))
    out = [1]
    for p, e in facs.items():
        powers = [p ** k for k in range(1, e + 1)]
        out = [d * q for d in out for q in [1] + powers]
    return sorted(set(out))


def rational_sqrt(q):
    """Exact square root of a nonnegative Fraction, or None."""
    if q < 0:
        return None
    if q == 0:
        return Fraction(0)
    rn = isqrt(q.numerator)
    rd = isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def gauss_sqrt(z):
    """Square root of a rational or Gaussian rational inside Q(i), or None.

    Returns the canonical root: positive real part, or on the imaginary
    axis the one with positive imaginary part.
    """
    if not isinstance(z, GaussRat):
        z = Fraction(z)
        r = rational_sqrt(z) if z >= 0 else None
        if r is not None:
            return r
        if z < 0:
            r = rational_sqrt(-z)
            if r is not None:
                return GaussRat(0, r)
        return None
    if z.im == 0:
        r = gauss_sqrt(z.re)
        return r if r is None or isinstance(r, GaussRat) else GaussRat(r)
    n2 = rational_sqrt(z.norm())
    if n2 is None:
        return None
    c2 = (z.re + n2) / 2
    c = rational_sqrt(c2)
    if c is None or c == 0:
        return None
    d = z.im / (2 * c)
    root = GaussRat(c, d)
    if root.re < 0 or (root.re == 0 and root.im < 0):
        root = -root
    return root


# ---------------------------------------------------------------------------
# factoring over Q and Q(i)


def _rational_root_candidates(a0, an):
    """Candidate rational roots p/q of a primitive integer polynomial."""
    ps = divisors(a0)
    qs = divisors(an)
    seen = set()
    for q in qs:
        for p in ps:
            if gcd(p, q) != 1:
                continue
            f = Fraction(p, q)
            if f not in seen:
                seen.add(f)
                yield f
                yield -f


def factor_rational_roots(p):
    """Split off rational roots: p = unit * prod (x - r)^m * rem.

    Returns (unit, {root: multiplicity}, rem) with rem monic and free of
    rational roots. The unit is the leading coefficient of p.
    """
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    unit = p.lc
    work = p.monic()
    roots = {}
    # root at zero first
    nz = 0
    while nz < len(work.coeffs) and not work.coeffs[nz]:
        nz += 1
    if nz:
        roots[Fraction(0)] = nz
        work = Poly(work.coeffs[nz:])
    if work.degree < 1:
        return unit, roots, work
    # roots 1 and -1 by direct deflation, so the divisibility filters
    # below can assume nonzero values at both points
    for r in (Fraction(1), Fraction(-1)):
        while True:
            if work(r) != 0:
                break
            roots[r] = roots.get(r, 0) + 1
            work = work // Poly((-r, Fraction(1)))
        if work.degree < 1:
            return unit, roots, work
    ints = _clear_denominators(work)
    p1 = sum(ints)
    pm1 = sum(c if k % 2 == 0 else -c for k, c in enumerate(ints))
    for cand in _rational_root_candidates(ints[0], ints[-1]):
        if cand.numerator in (1, -1) and cand.denominator == 1:
            continue
        pn, qn = cand.numerator, cand.denominator
        if (qn - pn) != 0 and p1 % (qn - pn) != 0:
            continue
        if (qn + pn) != 0 and pm1 % (qn + pn) != 0:
            continue
        while work.degree >= 1 and work(cand) == 0:
            roots[cand] = roots.get(cand, 0) + 1
            work = work // Poly((-cand, Fraction(1)))
        if work.degree < 1:
            break
    return unit, roots, work


def split_quadratic_gauss(p):
    """Roots of a monic rational quadratic inside Q(i), or None.

    Only returns roots when they genuinely lie in Q or Q(i); real
    irrational roots yield None.
    """
    if p.degree != 2:
        raise ValueError("expected a quadratic")
    q = p.monic()
    b = q.coeff(1)
    c = q.coeff(0)
    disc = b * b - 4 * c
    w = gauss_sqrt(disc)
    if w is None:
        return None
    r1 = (-b + w) / 2
    r2 = (-b - w) / 2
    return demote_scalar(_as_scalar_root(r1)), demote_scalar(_as_scalar_root(r2))


def _as_scalar_root(v):
    if isinstance(v, GaussRat):
        return v
    return Fraction(v)


def laurent_coefficients(f, r, mult, count):
    """Laurent coefficients of f at x = r.

    f must have a pole of order exactly `mult` at r (mult 0 is allowed for
    a regular point). Returns `count` coefficients starting at the
    (x - r)^(-mult) term.
    """
    num, den = f.num, f.den
    lin = Poly((-r, Fraction(1) if not isinstance(r, GaussRat)
                else GaussRat(1)))
    d1 = den
    for _ in range(mult):
        q, rem = divmod(d1, lin)
        if not rem.is_zero:
            raise ValueError("pole order at %s is smaller than %d"
                             % (r, mult))
        d1 = q
    if not d1(r):
        raise ValueError("pole order at %s exceeds %d" % (r, mult))
    # f = num / ((x-r)^mult * d1); expand num/d1 around r
    taylor_n = num.taylor_at(r, count + 1)
    taylor_d = d1.taylor_at(r, count + 1)
    inv = []
    d0 = taylor_d[0]
    for k in range(count):
        if k == 0:
            inv.append((1 / d0) if not isinstance(d0, GaussRat)
                       else GaussRat(1) / d0)
            continue
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc = acc + taylor_d[j] * inv[k - j]
        inv.append(-acc / d0)
    out = []
    for k in range(count):
        acc = Fraction(0)
        for j in range(k + 1):
            acc = acc + taylor_n[j] * inv[k - j]
        out.append(demote_scalar(acc))
    return out


def residue_at(f, r):
    """Residue of f at a pole r (any order, including regular points)."""
    mult = pole_order(f, r)
    if mult == 0:
        return Fraction(0)
    coeffs = laurent_coefficients(f, r, mult, mult)
    return coeffs[mult - 1]


def pole_order(f, r):
    """Order of the pole of f at r (0 when f is finite there)."""
    lin = Poly((-r, Fraction(1) if not isinstance(r, GaussRat)
                else GaussRat(1)))
    d = f.den
    order = 0
    while True:
        q, rem = divmod(d, lin)
        if not rem.is_zero:
            return order
        order += 1
        d = q


# ---------------------------------------------------------------------------
# exact integration of rational functions


def _poly_ext_gcd(a, b):
    """Extended Euclid: (g, s, t) with s*a + t*b = g and g monic."""
    r0, r1 = a, b
    s0, s1 = Poly.const(1), Poly()
    t0, t1 = Poly(), Poly.const(1)
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero:
        raise ValueError("extended gcd of two zero polynomials")
    lc = r0.lc
    inv = (GaussRat(1) / lc) if isinstance(lc, GaussRat) else (1 / lc)
    return r0 * inv, s0 * inv, t0 * inv


def _poly_inverse_mod(a, m):
    """Inverse of a modulo m; a and m must be coprime."""
    g, s, _ = _poly_ext_gcd(a % m, m)
    if g.degree != 0:
        raise ValueError("polynomial is not invertible modulo the modulus")
    return s % m


class IntegrationResult:
    """Antiderivative of a rational function, split into exact pieces.

    polynomial_part   Poly, already integrated
    rational_part     RatFunc part of the antiderivative
    logarithms        tuple of (monic Poly g, coefficient c) meaning c*log(g)
    exact             False when some residues live outside Q(i); the three
                      parts above are then incomplete and should not be used
    """

    __slots__ = ("polynomial_part", "rational_part", "logarithms", "exact")

    def __init__(self, polynomial_part, rational_part, logarithms, exact):
        self.polynomial_part = polynomial_part
        self.rational_part = rational_part
        self.logarithms = logarithms
        self.exact = exact


def integrate_ratfunc(f):
    """Hermite reduction plus residue extraction, all in exact arithmetic.

    The logarithmic part is recovered only when every residue lies in Q or
    Q(i): linear factors directly, irreducible factors through the
    matching-derivative test (which keeps conjugate pairs such as x^2 + 1
    merged when their residues agree), quadratics with unequal Gaussian
    residues by splitting. Anything else flips `exact` off.
    """
    quot, rem = divmod(f.num, f.den)
    poly_int = Poly([Fraction(0)] + [c * Fraction(1, k + 1)
                                     for k, c in enumerate(quot.coeffs)])
    rational_part = RatFunc(Poly())
    logs = []
    exact = True
    if rem.is_zero:
        return IntegrationResult(poly_int, rational_part, (), True)
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
        # digits[i] / g^(m-i); push multiplicities down one step at a time
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
            logs.append((g, demote_scalar(w.coeff(0))))
            continue
        gp = g.deriv()
        lcq = w.lc / gp.lc
        if gp * lcq == w:
            logs.append((g, demote_scalar(lcq)))
            continue
        if g.degree == 2:
            split = split_quadratic_gauss(g)
            if split is not None:
                for root in split:
                    res = w(root) / gp(root)
                    one = GaussRat(1) if isinstance(root, GaussRat) \
                        else Fraction(1)
                    logs.append((Poly((-root, one)), demote_scalar(res)))
                continue
        exact = False
    return IntegrationResult(poly_int, rational_part, tuple(logs), exact)
