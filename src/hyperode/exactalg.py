"""Exact scalar and univariate polynomial arithmetic.

Everything downstream (invariant computation, equivalence resolution,
solution assembly) runs on the types in this module: Fraction scalars,
Gaussian rationals, dense polynomials, and reduced rational functions.
All arithmetic is exact; floats never enter here.

A Poly holds integers only, in the layout of FLINT's fmpq_poly: a tuple
of integer numerators for the real parts of its coefficients, a second
tuple for the imaginary parts (empty over Q), and one positive common
denominator. The denominator and all numerators together have gcd 1, so
the layout is canonical and equality and hashing compare integer tuples.
A product is an integer convolution followed by one gcd pass, division is
pseudo-division over Z or Z[i], the gcd over Q is a primitive remainder
sequence on the stored numerators (von zur Gathen and Gerhard, Modern
Computer Algebra, ch. 6) and the gcd over Q(i) a subresultant one over
Z[i]. Fractions and GaussRats appear only where a caller reads a
coefficient, and a polynomial is evaluated at exact points only.

The value types above Poly have one form each, fixed when they are built:
a real scalar is always a Fraction (GaussRat(a, 0) is Fraction(a)), and
a GenRatFunc whose carrier reduces to 1 is built as the RatFunc it
equals. No caller converts a result back.

Rational roots come from Loos's p-adic method (SIAM J. Comput. 12,
1983): the roots of the square-free part modulo the first prime that
keeps it square-free, lifted by Newton steps until the lifted value
determines the rational root. No integer is ever factored.

Two guards bound every polynomial: its degree may not exceed the value
of the context variable DEGREE_CAP (DegreeOverflow), and no numerator or
denominator may be longer than COEFF_BITS bits (CoefficientOverflow). A
scalar power is the power of a constant Poly, so the cap refuses its
first long intermediate.
"""

from contextvars import ContextVar
from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import CoefficientOverflow, DegreeOverflow

# Cap on the degree of any Poly. A caller scopes a different value with
# DEGREE_CAP.set() inside contextvars.copy_context().run(...).
DEGREE_CAP = ContextVar("DEGREE_CAP", default=64)

# Cap on the bit length of any numerator or denominator a Poly stores.
COEFF_BITS = 4096
_COEFF_LIMIT = 1 << COEFF_BITS


class GaussRat:
    """A Gaussian rational a + b*i with Fraction parts and b nonzero.

    A real value has one representation, the Fraction: GaussRat(a, 0)
    returns Fraction(a), and so does every operator whose imaginary part
    cancels. Interoperates with int and Fraction on both sides of every
    operator, so mixed-field polynomial arithmetic needs no explicit
    lifting.
    """

    __slots__ = ("re", "im")

    def __new__(cls, re=0, im=0):
        im = Fraction(im)
        if not im:
            return Fraction(re)
        self = object.__new__(cls)
        self.re = Fraction(re)
        self.im = im
        return self

    def norm(self):
        return self.re * self.re + self.im * self.im

    def __add__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return GaussRat(self.re + o[0], self.im + o[1])

    __radd__ = __add__

    def __sub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return GaussRat(self.re - o[0], self.im - o[1])

    def __rsub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return GaussRat(o[0] - self.re, o[1] - self.im)

    def __mul__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        re, im = o
        return GaussRat(self.re * re - self.im * im,
                        self.re * im + self.im * re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _gauss_div(self.re, self.im, *o)

    def __rtruediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _gauss_div(*o, self.re, self.im)

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __pos__(self):
        return self

    def __pow__(self, exp):
        if not isinstance(exp, int):
            return NotImplemented
        if exp < 0:
            return (1 / self) ** -exp
        # Poly.__pow__ refuses the first intermediate past COEFF_BITS
        return (Poly.const(self) ** exp).coeff(0)

    def __eq__(self, other):
        return (isinstance(other, GaussRat) and self.re == other.re
                and self.im == other.im)

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return "GaussRat(%s, %s)" % (self.re, self.im)


def _parts(c):
    """(real part, imaginary part) of an exact scalar, else None."""
    if isinstance(c, GaussRat):
        return c.re, c.im
    if isinstance(c, (int, Fraction)):
        return c, 0
    return None


def _gauss_div(a, b, c, d):
    """(a + b*i) / (c + d*i) for rational parts."""
    n = c * c + d * d
    if n == 0:
        raise ZeroDivisionError("division by zero Gaussian rational")
    return GaussRat((a * c + b * d) / n, (b * c - a * d) / n)


def _scalar_parts(c):
    """(real numerator, imaginary numerator, positive denominator) of c."""
    if isinstance(c, GaussRat):
        re, im = c.re, c.im
        d = lcm(re.denominator, im.denominator)
        return (re.numerator * (d // re.denominator),
                im.numerator * (d // im.denominator), d)
    if isinstance(c, (int, Fraction)):
        return c.numerator, 0, c.denominator
    raise TypeError("not an exact scalar: %r" % (c,))


def _scalar(re, im, den):
    """The exact scalar (re + im*i)/den: a Fraction unless im is nonzero."""
    if im:
        return GaussRat(Fraction(re, den), Fraction(im, den))
    return Fraction(re, den)


def _padded(seq, n):
    return list(seq) + [0] * (n - len(seq))


def _lin(a, s, b, t):
    """s*a + t*b for integer sequences, the shorter padded with zeros."""
    out = [s * x for x in a]
    out += [0] * (len(b) - len(a))
    for k, y in enumerate(b):
        out[k] += t * y
    return out


def _conv(a, b):
    """Product of two integer coefficient sequences (empty if one is)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _int_divmod(a, b):
    """Pseudo-division of integer coefficient lists (low degree first).

    Returns (q, r, s) with s*a == q*b + r, len(r) == len(b) - 1 and s a
    positive integer. The running dividend is scaled only by the part of
    lc(b) that does not already divide its leading term, so s stays a
    small divisor of lc(b)^(deg a - deg b + 1).
    """
    n = len(b) - 1
    lb = b[-1]
    r = list(a)
    q = [0] * (len(a) - n)
    s = 1
    for k in range(len(q) - 1, -1, -1):
        x = r[k + n]
        if not x:
            continue
        m = abs(lb) // gcd(lb, x)
        if m != 1:
            r = [v * m for v in r]
            q = [v * m for v in q]
            s *= m
            x *= m
        c = x // lb
        q[k] = c
        for j, y in enumerate(b):
            r[k + j] -= c * y
    return q, r[:n], s


def _gauss_divmod(ar, ai, br, bi):
    """Pseudo-division over Z[i]; b's leading numerator must be real.

    Same contract as _int_divmod with each sequence split into real and
    imaginary numerators: returns (qr, qi, rr, ri, s).
    """
    n = len(br) - 1
    lb = br[-1]
    rr, ri = list(ar), _padded(ai, len(ar))
    bi = _padded(bi, n + 1)
    qr = [0] * (len(ar) - n)
    qi = list(qr)
    s = 1
    for k in range(len(qr) - 1, -1, -1):
        x, y = rr[k + n], ri[k + n]
        if not x and not y:
            continue
        m = abs(lb) // gcd(lb, x, y)
        if m != 1:
            rr, ri = [v * m for v in rr], [v * m for v in ri]
            qr, qi = [v * m for v in qr], [v * m for v in qi]
            s *= m
            x *= m
            y *= m
        cx, cy = x // lb, y // lb
        qr[k], qi[k] = cx, cy
        for j in range(n + 1):
            u, v = br[j], bi[j]
            rr[k + j] -= cx * u - cy * v
            ri[k + j] -= cx * v + cy * u
    return qr, qi, rr[:n], ri[:n], s


def _real_lead(br, bi):
    """b times the conjugate c of its leading numerator: (br, bi, cr, ci).

    The product's leading numerator is real; c is 1 when b's already is.
    """
    if not (bi and bi[-1]):
        return br, bi, 1, 0
    cr, ci = br[-1], -bi[-1]
    return _lin(br, cr, bi, -ci), _lin(br, ci, bi, cr), cr, ci


def _poly(re, im, den):
    """The Poly (re + im*i)/den from integer numerators, made canonical.

    Strips trailing zeros, drops an all-zero imaginary part, divides out
    the common gcd with a positive denominator and enforces both caps.
    """
    n = len(re)
    if im and any(im):
        if len(im) != n:
            n = max(n, len(im))
            re, im = _padded(re, n), _padded(im, n)
        while not re[n - 1] and not im[n - 1]:
            n -= 1
        im = im[:n]
    else:
        im = ()
        while n and not re[n - 1]:
            n -= 1
    p = object.__new__(Poly)
    if not n:
        p.re, p.im, p.den = (), (), 1
        return p
    cap = DEGREE_CAP.get()
    if n > cap + 1:
        raise DegreeOverflow(n - 1, cap)
    if n != len(re):
        re = re[:n]
    g = gcd(den, *re, *im)
    if den < 0:
        g = -g
    if g != 1:
        re = [c // g for c in re]
        im = [c // g for c in im]
        den //= g
    if den >= _COEFF_LIMIT or max(re) >= _COEFF_LIMIT \
            or min(re) <= -_COEFF_LIMIT or (im and (
                max(im) >= _COEFF_LIMIT or min(im) <= -_COEFF_LIMIT)):
        bits = max(abs(c).bit_length() for c in (den, *re, *im))
        raise CoefficientOverflow(bits, COEFF_BITS)
    p.re, p.im, p.den = tuple(re), tuple(im), den
    return p


class Poly:
    """Dense univariate polynomial over Q or Q(i), low degree first.

    ``re`` and ``im`` are tuples of integer numerators of the real and
    imaginary coefficient parts over the positive common denominator
    ``den``; ``im`` is empty for a polynomial over Q and as long as ``re``
    otherwise. The zero polynomial has empty tuples, den 1 and degree -1.
    The constructor takes exact scalars (int, Fraction or GaussRat).
    """

    __slots__ = ("re", "im", "den")

    def __init__(self, coeffs=()):
        parts = [_scalar_parts(c) for c in coeffs]
        den = lcm(*(d for _, _, d in parts))
        p = _poly([r * (den // d) for r, _, d in parts],
                  [i * (den // d) for _, i, d in parts], den)
        self.re, self.im, self.den = p.re, p.im, p.den

    @classmethod
    def const(cls, c):
        re, im, den = _scalar_parts(c)
        return _poly((re,), (im,), den)

    @classmethod
    def x(cls):
        return _poly((0, 1), (), 1)

    @classmethod
    def from_pairs(cls, pairs):
        """Build from (exponent, coefficient) pairs."""
        if not pairs:
            return cls()
        top = max(e for e, _ in pairs)
        cap = DEGREE_CAP.get()
        if top > cap:
            raise DegreeOverflow(top, cap)
        if all(isinstance(c, (int, Fraction)) for _, c in pairs):
            # over Q: the numerators over one denominator, built directly
            den = lcm(*[c.denominator for _, c in pairs])
            re = [0] * (top + 1)
            for e, c in pairs:
                re[e] += c.numerator * (den // c.denominator)
            return _poly(re, (), den)
        cs = [0] * (top + 1)
        for e, c in pairs:
            cs[e] = cs[e] + c if cs[e] else c
        return cls(cs)

    @property
    def coeffs(self):
        """The coefficients as exact scalars, low degree first."""
        im = self.im or (0,) * len(self.re)
        return tuple(_scalar(r, i, self.den) for r, i in zip(self.re, im))

    def complex_coeffs(self):
        """The coefficients as complex doubles, low degree first, read
        straight off the integer numerators. OverflowError marks one
        beyond double range."""
        im = self.im or (0,) * len(self.re)
        return [complex(r / self.den, i / self.den)
                for r, i in zip(self.re, im)]

    @property
    def degree(self):
        return len(self.re) - 1

    @property
    def is_zero(self):
        return not self.re

    @property
    def lc(self):
        return self.coeff(len(self.re) - 1)

    def coeff(self, k):
        if 0 <= k < len(self.re):
            return _scalar(self.re[k], self.im[k] if self.im else 0,
                           self.den)
        return Fraction(0)

    def _combine(self, other, sign):
        """self + sign*other over the least common denominator."""
        d1, d2 = self.den, other.den
        if d1 == d2:
            s, t = 1, sign
        else:
            g = gcd(d1, d2)
            s, t = d2 // g, sign * (d1 // g)
        im = _lin(self.im, s, other.im, t) if self.im or other.im else ()
        return _poly(_lin(self.re, s, other.re, t), im, d1 * s)

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other._combine(self, -1)

    def __neg__(self):
        return _poly([-c for c in self.re], [-c for c in self.im], self.den)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction, GaussRat)):
                return NotImplemented
            sr, si, sd = _scalar_parts(other)
            if si:
                re = _lin(self.re, sr, self.im, -si)
                im = _lin(self.re, si, self.im, sr)
            else:
                re = [c * sr for c in self.re]
                im = [c * sr for c in self.im]
            return _poly(re, im, self.den * sd)
        ar, ai, br, bi = self.re, self.im, other.re, other.im
        re = _conv(ar, br)
        im = ()
        if ai or bi:
            if ai and bi:
                re = _lin(re, 1, _conv(ai, bi), -1)
            im = _lin(_conv(ar, bi), 1, _conv(ai, br), 1)
        return _poly(re, im, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, exp):
        if not isinstance(exp, int) or exp < 0:
            return NotImplemented
        out = Poly.const(1)
        base = self
        while exp:
            if exp & 1:
                out = out * base
            exp >>= 1
            if exp:
                base = base * base
        return out

    def __divmod__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            other = Poly.const(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if len(self.re) < len(other.re):
            return Poly(), self
        # over Z[i] the divisor is scaled to a real leading numerator and
        # the quotient scaled back by the same factor
        br, bi, cr, ci = _real_lead(other.re, other.im)
        if self.im or bi:
            qr, qi, rr, ri, s = _gauss_divmod(self.re, self.im, br, bi)
            if ci:
                qr, qi = _lin(qr, cr, qi, -ci), _lin(qr, ci, qi, cr)
        else:
            qr, rr, s = _int_divmod(self.re, br)
            qi = ri = ()
        # s*a == q*b + r over the integers, with self = a/da, other = b/db
        db = other.den
        den = s * self.den
        return (_poly([c * db for c in qr], [c * db for c in qi], den),
                _poly(rr, ri, den))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.den == other.den and self.re == other.re
                and self.im == other.im)

    def __hash__(self):
        return hash((self.re, self.im, self.den))

    def __bool__(self):
        return bool(self.re)

    def __call__(self, v):
        return self.eval(v)

    def eval(self, v):
        """p(v) at an exact point (int, Fraction or GaussRat)."""
        # homogeneous Horner: q^deg * p((ur + ui*i)/q) lies in Z[i]
        ur, ui, q = _scalar_parts(v)
        if not self.re:
            return Fraction(0)
        re, im = self.re, self.im
        acc_re, acc_im = re[-1], im[-1] if im else 0
        qk = 1
        for k in range(len(re) - 2, -1, -1):
            qk *= q
            acc_re, acc_im = (acc_re * ur - acc_im * ui + re[k] * qk,
                              acc_re * ui + acc_im * ur
                              + (im[k] * qk if im else 0))
        return _scalar(acc_re, acc_im, self.den * qk)

    def deriv(self):
        if len(self.re) <= 1:
            return Poly()
        return _poly([k * c for k, c in enumerate(self.re)][1:],
                     [k * c for k, c in enumerate(self.im)][1:], self.den)

    def monic(self):
        if self.is_zero:
            return self
        lr = self.re[-1]
        li = self.im[-1] if self.im else 0
        if not li:
            return self if lr == self.den else _poly(self.re, self.im, lr)
        # divide by (lr + li*i)/den: multiply by its conjugate over the norm
        return _poly(_lin(self.re, lr, self.im, li),
                     _lin(self.re, -li, self.im, lr), lr * lr + li * li)

    def substitute_power(self, k):
        """Return p(x^k) by exponent spreading (k a positive integer)."""
        if k == 1 or self.is_zero:
            return self
        top = self.degree * k
        cap = DEGREE_CAP.get()
        if top > cap:
            raise DegreeOverflow(top, cap)
        re = [0] * (top + 1)
        re[::k] = self.re
        im = ()
        if self.im:
            im = [0] * (top + 1)
            im[::k] = self.im
        return _poly(re, im, self.den)

    def compress_power(self, k):
        """Inverse of substitute_power: p must have support in k*Z."""
        if k == 1:
            return self
        for e in range(len(self.re)):
            if e % k and (self.re[e] or (self.im and self.im[e])):
                raise ValueError("polynomial support not divisible by %d" % k)
        return _poly(self.re[::k], self.im[::k], self.den)

    def order_at_zero(self):
        """Multiplicity of 0 as a root of a nonzero polynomial."""
        im = self.im or (0,) * len(self.re)
        for e, (r, i) in enumerate(zip(self.re, im)):
            if r or i:
                return e

    def reverse(self, shift=0):
        """x^(degree + shift) * p(1/x): the coefficients in reverse
        order, raised by shift."""
        pad = (0,) * shift
        return _poly(pad + self.re[::-1],
                     (pad + self.im[::-1]) if self.im else (), self.den)

    def exponent_gcd(self):
        """gcd of the exponents carrying nonzero coefficients."""
        g = 0
        im = self.im or (0,) * len(self.re)
        for e, (r, i) in enumerate(zip(self.re, im)):
            if r or i:
                g = gcd(g, e)
        return g

    def taylor_at(self, r, count):
        """First `count` Taylor coefficients of p around x = r.

        The shift runs over Z or Z[i]. With p = P/den, r = u/q and
        n = deg p, q^n P(u/q + t/q) is R(u + t) for the integer polynomial
        R(s) = sum of a_j q^(n-j) s^j, so the k-th coefficient is
        e_k / (q^(n-k) den), where e_k comes from the k-th synthetic
        division of R by s - u.
        """
        n = len(self.re) - 1
        ur, ui, q = _scalar_parts(r)
        qpow = [1]
        for _ in range(n):
            qpow.append(qpow[-1] * q)
        re = [a * qpow[n - j] for j, a in enumerate(self.re)]
        im = [a * qpow[n - j] for j, a in enumerate(self.im)]
        if ui and not im:
            im = [0] * len(re)
        out = []
        for k in range(min(count, n + 1)):
            # one Horner pass leaves R's k-th shifted coefficient in slot k
            if im:
                for j in range(n - 1, k - 1, -1):
                    x, y = re[j + 1], im[j + 1]
                    re[j] += x * ur - y * ui
                    im[j] += x * ui + y * ur
                out.append(_scalar(re[k], im[k], qpow[n - k] * self.den))
            else:
                for j in range(n - 1, k - 1, -1):
                    re[j] += re[j + 1] * ur
                out.append(Fraction(re[k], qpow[n - k] * self.den))
        return out + [Fraction(0)] * (count - len(out))

    def has_gauss(self):
        return bool(self.im)

    def __repr__(self):
        return "Poly(%r)" % (self.coeffs,)


# Polys are never mutated after construction, so one instance can serve.
_ONE = _poly((1,), (), 1)


def _as_poly(other):
    if isinstance(other, Poly):
        return other
    if isinstance(other, (int, Fraction, GaussRat)):
        return Poly.const(other)
    return NotImplemented


# ---------------------------------------------------------------------------
# gcd machinery


def _primitive(cs):
    """Primitive part of an integer coefficient list, leading term > 0."""
    g = gcd(*cs)
    if cs[-1] < 0:
        g = -g
    return [c // g for c in cs] if g != 1 else list(cs)


def poly_gcd(p, q):
    """Monic gcd of two polynomials.

    A nonzero constant argument gives 1 at once. Other rational
    polynomials go through a primitive integer remainder sequence on the
    stored numerators, which keeps coefficient growth tame; Gaussian ones
    through the same sequence over Z[i].
    """
    if p.is_zero:
        return q.monic()
    if q.is_zero:
        return p.monic()
    if len(p.re) == 1 or len(q.re) == 1:
        return _ONE
    if p.im or q.im:
        return _gauss_gcd(p, q)
    a = _primitive(p.re)
    b = _primitive(q.re)
    if len(a) < len(b):
        a, b = b, a
    while True:
        r = _int_divmod(a, b)[1]
        while r and not r[-1]:
            r.pop()
        if not r:
            break
        a, b = b, _primitive(r)
    return _poly(b, (), b[-1])


def _gauss_pow(a, n, out=(1, 0)):
    """out * a**n for Gaussian integers given as (re, im) pairs."""
    for _ in range(n):
        out = out[0] * a[0] - out[1] * a[1], out[0] * a[1] + out[1] * a[0]
    return out


def _gauss_quo(a, d):
    """a / d for Gaussian integers given as (re, im) pairs, d dividing a."""
    n = d[0] * d[0] + d[1] * d[1]
    return ((a[0] * d[0] + a[1] * d[1]) // n,
            (a[1] * d[0] - a[0] * d[1]) // n)


def _gauss_gcd(p, q):
    """Monic gcd of polynomials over Q(i), by a subresultant PRS over Z[i].

    Brown and Traub (J. ACM 18, 1971; Knuth 4.6.1, Algorithm C): the
    pseudo-remainder r by v's own leading numerator c comes from steps
    r <- c*r - lead(r)*x^j*v, and it divides exactly by g*h^delta, which
    leaves a subresultant, so coefficients grow linearly and no content
    is taken.
    """
    ur, ui = p.re, _padded(p.im, len(p.re))
    vr, vi = q.re, _padded(q.im, len(q.re))
    if len(ur) < len(vr):
        ur, ui, vr, vi = vr, vi, ur, ui
    g = h = (1, 0)
    while True:
        n = len(vr) - 1
        cr, ci = vr[-1], vi[-1]
        rr, ri = list(ur), list(ui)
        for k in range(len(rr) - 1, n - 1, -1):
            x, y = rr[k], ri[k]
            rr, ri = _lin(rr, cr, ri, -ci), _lin(rr, ci, ri, cr)
            for j in range(n + 1):
                rr[k - n + j] -= x * vr[j] - y * vi[j]
                ri[k - n + j] -= x * vi[j] + y * vr[j]
        while n and not rr[n - 1] and not ri[n - 1]:
            n -= 1
        if not n:
            # one conjugate multiply makes v monic; _poly divides the rest
            return _poly(_lin(vr, cr, vi, ci), _lin(vr, -ci, vi, cr),
                         cr * cr + ci * ci)
        if n == 1:
            return _ONE
        delta = len(ur) - len(vr)
        d = _gauss_pow(h, delta, g)
        quo = [_gauss_quo(c, d) for c in zip(rr[:n], ri[:n])]
        ur, ui = vr, vi
        vr, vi = [c[0] for c in quo], [c[1] for c in quo]
        g = cr, ci
        if delta:
            h = _gauss_quo(_gauss_pow(g, delta), _gauss_pow(h, delta - 1))


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
    """Reduced rational function num/den with a monic denominator.

    The constructor reduces arbitrary input by one gcd. The operators take
    reduced operands to a reduced result directly, by Henrici's rules
    (Knuth, TAOCP vol. 2, 4.5.1): they divide out only the small gcds the
    result can still share, skip the gcd where coprimality is provable,
    and build the result with from_coprime.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Poly):
            num = _as_poly(num)
        if den is None:
            den = _ONE
        elif not isinstance(den, Poly):
            den = _as_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            self.num = num
            self.den = _ONE
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = num // g
            den = den // g
        if den.re[-1] != den.den or (den.im and den.im[-1]):
            num = num * (1 / den.lc)
            den = den.monic()
        self.num = num
        self.den = den

    @classmethod
    def const(cls, c):
        return cls.from_coprime(Poly.const(c), _ONE)

    @classmethod
    def from_coprime(cls, num, den):
        """num/den for polynomials the caller knows share no factor.

        Skips the gcd and only makes den monic.
        """
        if num.is_zero:
            den = _ONE
        elif den.re[-1] != den.den or (den.im and den.im[-1]):
            num = num * (1 / den.lc)
            den = den.monic()
        self = object.__new__(cls)
        self.num = num
        self.den = den
        return self

    @property
    def is_zero(self):
        return self.num.is_zero

    def _add(self, other, sign):
        """self + sign*other: cancels only the gcd of the denominators."""
        a, b, c, d = self.num, self.den, other.num, other.den
        g = poly_gcd(b, d) if b.degree > 0 and d.degree > 0 else _ONE
        if g.degree <= 0:
            return RatFunc.from_coprime((a * d)._combine(c * b, sign), b * d)
        b, dg = b // g, d // g
        t = (a * dg)._combine(c * b, sign)
        # t is coprime to b/g and d/g, so only a factor of g can cancel
        g2 = poly_gcd(t, g)
        if g2.degree > 0:
            t, d = t // g2, d // g2
        return RatFunc.from_coprime(t, b * d)

    def __add__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self._add(other, -1)

    def __rsub__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return other._add(self, -1)

    def __neg__(self):
        return RatFunc.from_coprime(-self.num, self.den)

    def _mul(self, c, d):
        """self * c/d for coprime c, d: cancels across the diagonals only."""
        a, b = self.num, self.den
        if a.degree > 0 and d.degree > 0:
            g = poly_gcd(a, d)
            if g.degree > 0:
                a, d = a // g, d // g
        if c.degree > 0 and b.degree > 0:
            g = poly_gcd(c, b)
            if g.degree > 0:
                c, b = c // g, b // g
        return RatFunc.from_coprime(a * c, b * d)

    def __mul__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self._mul(other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return self._mul(other.den, other.num)

    def __rtruediv__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, exp):
        if not isinstance(exp, int):
            return NotImplemented
        # powers of coprime polynomials stay coprime
        if exp >= 0:
            return RatFunc.from_coprime(self.num ** exp, self.den ** exp)
        if self.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc.from_coprime(self.den ** -exp, self.num ** -exp)

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
        """(a/b)' = (a'(b/g) - a(b'/g)) / (b(b/g)) with g = gcd(b, b').

        In characteristic 0, b'/g shares no factor with b, so the result
        is reduced.
        """
        a, b = self.num, self.den
        if b.degree <= 0:
            return RatFunc.from_coprime(a.deriv(), _ONE)
        db = b.deriv()
        g = poly_gcd(b, db) if b.degree > 1 else _ONE
        if g.degree > 0:
            s, db = b // g, db // g
        else:
            s = b
        return RatFunc.from_coprime(a.deriv() * s - a * db, b * s)

    def compose(self, other):
        """self(other(x)) for a rational argument, by homogenization.

        Coprime num and den homogenize to coprime binary forms, and a
        reduced argument n/m never makes n and m vanish together, so the
        composed parts are coprime. Only a constant argument at a pole
        makes the denominator 0.
        """
        other = _as_ratfunc(other)
        d = max(self.num.degree, self.den.degree, 0)
        mpow = [_ONE]
        for _ in range(d):
            mpow.append(mpow[-1] * other.den)
        num = _homogenized(self.num, other.num, mpow, d)
        den = _homogenized(self.den, other.num, mpow, d)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        return RatFunc.from_coprime(num, den)

    # x -> x^k carries a Bezout identity both ways, so both keep coprimality

    def substitute_power(self, k):
        return RatFunc.from_coprime(self.num.substitute_power(k),
                                    self.den.substitute_power(k))

    def compress_power(self, k):
        return RatFunc.from_coprime(self.num.compress_power(k),
                                    self.den.compress_power(k))

    def exponent_gcd(self):
        return gcd(self.num.exponent_gcd(), self.den.exponent_gcd())

    def __repr__(self):
        return "RatFunc(%r, %r)" % (self.num, self.den)


def _homogenized(p, n, mpow, d):
    """sum of p_e n^e m^(d-e) by Horner's rule in n, given mpow[j] = m^j."""
    if p.is_zero:
        return p
    top = p.degree
    acc = Poly.const(p.lc)
    for e in range(top - 1, -1, -1):
        acc = acc * n
        c = p.coeff(e)
        if c:
            acc = acc + mpow[top - e] * c
    return acc * mpow[d - top] if d > top else acc


def _as_ratfunc(other):
    if isinstance(other, RatFunc):
        return other
    if isinstance(other, Poly):
        return RatFunc.from_coprime(other, _ONE)
    if isinstance(other, (int, Fraction, GaussRat)):
        return RatFunc.const(other)
    return NotImplemented


class GenRatFunc:
    """Rational function of a fractional power carrier.

    Represents f(x) = fn(x^(1/carrier)) with fn a RatFunc. The carrier is
    reduced when the value is built: the constructor divides it and the
    exponents of fn by their gcd, and returns fn itself, a RatFunc, when
    the carrier comes out as 1. A GenRatFunc therefore always has
    carrier >= 2 and gcd(fn.exponent_gcd(), carrier) == 1, so equal
    values have equal parts. Supports just enough arithmetic, mixed
    freely with RatFunc and scalars, for normal form and invariant work
    on equations whose coefficients involve fractional powers of x.
    """

    __slots__ = ("fn", "carrier")

    # a zero value comes out of the constructor as a RatFunc
    is_zero = False

    def __new__(cls, fn, carrier):
        if carrier < 1:
            raise ValueError("carrier must be a positive integer")
        fn = _as_ratfunc(fn)
        g = gcd(fn.exponent_gcd(), carrier)
        if g > 1:
            fn = fn.compress_power(g)
            carrier //= g
        if carrier == 1:
            return fn
        self = object.__new__(cls)
        self.fn = fn
        self.carrier = int(carrier)
        return self

    @classmethod
    def x_power(cls, num, den):
        """x^(num/den): a RatFunc when den divides num."""
        if num < 0:
            return cls(RatFunc.from_coprime(
                _ONE, Poly.from_pairs([(-num, Fraction(1))])), den)
        return cls(RatFunc.from_coprime(
            Poly.from_pairs([(num, Fraction(1))]), _ONE), den)

    def _binop(self, other, op):
        if isinstance(other, GenRatFunc):
            fn, carrier = other.fn, other.carrier
        else:
            fn, carrier = _as_ratfunc(other), 1
            if fn is NotImplemented:
                return NotImplemented
        # both as rational functions of x^(1/L), L the common carrier
        common = lcm(self.carrier, carrier)
        return GenRatFunc(op(self.fn.substitute_power(common // self.carrier),
                             fn.substitute_power(common // carrier)), common)

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
        return GenRatFunc(self.fn ** exp, self.carrier)

    def __eq__(self, other):
        return (isinstance(other, GenRatFunc)
                and self.carrier == other.carrier and self.fn == other.fn)

    def __hash__(self):
        return hash((self.fn, self.carrier))

    def deriv(self):
        """d/dx of fn(x^(1/L)): chain rule through the carrier."""
        # d sigma / dx = (1/L) sigma^(1-L)
        chain = RatFunc.from_coprime(
            Poly.const(Fraction(1, self.carrier)),
            Poly.from_pairs([(self.carrier - 1, Fraction(1))]))
        return GenRatFunc(self.fn.deriv() * chain, self.carrier)

    def __repr__(self):
        return "GenRatFunc(%r, %d)" % (self.fn, self.carrier)


# ---------------------------------------------------------------------------
# square roots in Q and Q(i)


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


def _eval_mod(cs, r, m):
    """The integer polynomial cs (low degree first) at r, modulo m."""
    v = 0
    for c in reversed(cs):
        v = (v * r + c) % m
    return v


def _squarefree_mod(f, df, p):
    """Whether gcd(f, f') is constant in GF(p)[x], p not dividing lc(f).

    Euclid's algorithm modulo p, the test of sympy's gf_sqf_p.
    """
    a, b = [c % p for c in f], [c % p for c in df]
    while True:
        while b and not b[-1]:
            b.pop()
        if not b:
            return len(a) == 1
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a.pop() * inv % p
            for j in range(1, len(b)):
                a[-j] = (a[-j] - c * b[-1 - j]) % p
        a, b = b, a


def _lifted_roots(work):
    """At most deg(work) rationals among which are all rational roots of work.

    Loos's p-adic method (SIAM J. Comput. 12, 1983). A rational root of
    work is a root of f, the primitive square-free part of its real part.
    For a root r of f, lc(f)*r is an integer of absolute value at most
    |lc| + max|a_i| (Cauchy's bound). The prime p is the smallest odd
    one that does not divide lc and at which f mod p is square-free, a
    test of one gcd in GF(p)[x]; only its residues are swept. Each
    rational root reduces to one of the roots of f mod p, all simple,
    and Newton steps lift that root uniquely to a modulus m past twice
    the bound, where the symmetric residue of lc*r is lc*r itself. A
    residue past the bound is no root and is dropped.
    """
    real = _poly(work.re, (), 1)
    f = _primitive((real // poly_gcd(real, real.deriv())).re)
    df = [k * c for k, c in enumerate(f)][1:]
    lc = f[-1]
    bound = 2 * (lc + max(map(abs, f)))
    p = 1
    while True:
        p += 2
        if lc % p and all(p % q for q in range(3, isqrt(p) + 1, 2)) \
                and _squarefree_mod(f, df, p):
            break
    fp = [c % p for c in f]
    found = [r for r in range(p) if not _eval_mod(fp, r, p)]
    out = []
    for r in found:
        m = p
        while m <= bound:
            m *= m
            r = (r - _eval_mod(f, r, m) * pow(_eval_mod(df, r, m), -1, m)) % m
        s = lc * r % m
        if 2 * s > m:
            s -= m
        if 2 * abs(s) <= bound:
            out.append(Fraction(s, lc))
    return out


def factor_rational_roots(p):
    """Split off rational roots: p = unit * prod (x - r)^m * rem.

    Returns (unit, {root: multiplicity}, rem) with rem monic and free of
    rational roots. The unit is the leading coefficient of p. Each
    candidate from _lifted_roots is tested by exact evaluation.
    """
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    unit = p.lc
    work = p.monic()
    roots = {}
    # root at zero first
    nz = work.order_at_zero()
    if nz:
        roots[Fraction(0)] = nz
        work = Poly(work.coeffs[nz:])
    if work.degree < 1:
        return unit, roots, work
    for cand in _lifted_roots(work):
        while work.degree >= 1 and work(cand) == 0:
            roots[cand] = roots.get(cand, 0) + 1
            work = work // Poly((-cand, Fraction(1)))
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
    return (-b + w) / 2, (-b - w) / 2


def principal_part(f, r):
    """Principal part of f at x = r: [c_-m, ..., c_-1] for a pole of order m.

    Returns [] where f is finite. With f = num / ((x - r)^m * rest), the
    coefficients are the first m Taylor coefficients of num / rest at r.
    """
    lin = Poly((-r, 1))
    rest = f.den
    while True:
        q, rem = divmod(rest, lin)
        if not rem.is_zero:
            break
        rest = q
    order = f.den.degree - rest.degree
    taylor_n = f.num.taylor_at(r, order)
    taylor_d = rest.taylor_at(r, order)
    out = []
    for k in range(order):
        acc = taylor_n[k]
        for j in range(1, k + 1):
            acc = acc - taylor_d[j] * out[k - j]
        out.append(acc / taylor_d[0])
    return out


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
    inv = 1 / r0.lc
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
    """

    __slots__ = ("polynomial_part", "rational_part", "logarithms")

    def __init__(self, polynomial_part, rational_part, logarithms):
        self.polynomial_part = polynomial_part
        self.rational_part = rational_part
        self.logarithms = logarithms


def integrate_ratfunc(f):
    """Hermite reduction plus residue extraction, all in exact arithmetic.

    The logarithmic part is recovered only when every residue lies in Q or
    Q(i): linear factors directly, irreducible factors through the
    matching-derivative test (which keeps conjugate pairs such as x^2 + 1
    merged when their residues agree), quadratics with unequal Gaussian
    residues by splitting. A residue outside Q(i) returns None.
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
