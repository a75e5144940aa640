"""Textual front end: ODE parsing, solution expression trees, printing.

The ODE grammar accepts both "y'' + A*y' + B*y = 0" and "y'' = RHS"
shapes; internally everything becomes the reduced coefficient pair
(A, B) of y'' + A y' + B y = 0. Solution expressions are immutable
trees built through the smart constructors below, which do just enough
folding to keep printed output tidy and round-trippable.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ParseError, UnsupportedEquation
from .exactalg import (
    GaussRat,
    GenRatFunc,
    RatFunc,
    demote_scalar,
)

Scalar = Union[Fraction, GaussRat]


@dataclass(frozen=True)
class LinearODE:
    """y'' + A y' + B y = 0 with reduced rational coefficients.

    A and B are RatFunc in the ordinary case. Inputs containing x^(p/q)
    literals carry GenRatFunc coefficients instead, and downstream code
    routes them through the generalized invariant path.
    """

    A: object
    B: object

    @property
    def is_fractional(self):
        return isinstance(self.A, GenRatFunc) or isinstance(self.B, GenRatFunc)


# ---------------------------------------------------------------------------
# solution expression trees


@dataclass(frozen=True)
class Num:
    value: Scalar


@dataclass(frozen=True)
class Sym:
    pass


X = Sym()


@dataclass(frozen=True)
class Const:
    index: int  # 1 or 2


@dataclass(frozen=True)
class Add:
    terms: tuple


@dataclass(frozen=True)
class Mul:
    factors: tuple


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: Fraction


@dataclass(frozen=True)
class Exp:
    arg: object


@dataclass(frozen=True)
class Intg:
    """Unevaluated integral of the integrand with respect to x."""

    integrand: object


@dataclass(frozen=True)
class Hyp:
    kind: str            # "2F1", "1F1" or "0F1"
    upper: tuple
    lower: tuple
    arg: object
    degenerate: bool = False


@dataclass(frozen=True)
class Leg:
    kind: str            # "P" or "Q"
    degree: Scalar
    arg: object


SolutionExpr = Union[Num, Sym, Const, Add, Mul, Pow, Exp, Intg, Hyp, Leg]

_ARITY = {"2F1": (2, 1), "1F1": (1, 1), "0F1": (0, 1)}

ZERO = Num(Fraction(0))
ONE = Num(Fraction(1))


def num(v):
    if isinstance(v, int):
        v = Fraction(v)
    v = demote_scalar(v)
    return Num(v)


def add(*terms):
    flat = []
    acc = Fraction(0)
    for t in terms:
        if isinstance(t, Add):
            parts = t.terms
        else:
            parts = (t,)
        for p in parts:
            if isinstance(p, Num):
                acc = acc + p.value
            else:
                flat.append(p)
    if acc != 0 or not flat:
        flat.append(num(acc))
    if len(flat) == 1:
        return flat[0]
    return Add(tuple(flat))


def mul(*factors):
    flat = []
    acc = Fraction(1)
    for f in factors:
        if isinstance(f, Mul):
            parts = f.factors
        else:
            parts = (f,)
        for p in parts:
            if isinstance(p, Num):
                if not p.value:
                    return ZERO
                acc = acc * p.value
            else:
                flat.append(p)
    # Merge repeated bases; z^a * z^b = z^(a+b) holds for principal
    # powers of one base, unlike distributing an exponent over a product.
    slots = []
    where = {}
    for p in flat:
        base, e = (p.base, p.exponent) if isinstance(p, Pow) \
            else (p, Fraction(1))
        if base in where:
            k = where[base]
            slots[k] = (base, slots[k][1] + e)
        else:
            where[base] = len(slots)
            slots.append((base, e))
    merged = []
    for base, e in slots:
        if not e:
            continue
        p = power(base, e)
        if isinstance(p, Num):
            if not p.value:
                return ZERO
            acc = acc * p.value
        else:
            merged.append(p)
    # reciprocal factors go last, mirroring the printed numerator /
    # denominator split, so reparsing printed output reproduces the tree
    merged = ([f for f in merged
               if not (isinstance(f, Pow) and f.exponent < 0)]
              + [f for f in merged
                 if isinstance(f, Pow) and f.exponent < 0])
    if not merged:
        return num(acc)
    if acc != 1:
        merged.insert(0, num(acc))
    if len(merged) == 1:
        return merged[0]
    return Mul(tuple(merged))


def neg(e):
    if isinstance(e, Num):
        return num(-e.value)
    if isinstance(e, Mul) and isinstance(e.factors[0], Num):
        return mul(num(-e.factors[0].value), *e.factors[1:])
    return mul(num(-1), e)


def power(base, exponent):
    if isinstance(exponent, int):
        exponent = Fraction(exponent)
    if exponent == 1:
        return base
    if exponent == 0:
        return ONE
    if isinstance(base, Num) and exponent.denominator == 1:
        v = base.value
        e = exponent.numerator
        if e >= 0:
            return num(v ** e)
        if v:
            return num(v ** e if isinstance(v, GaussRat)
                       else Fraction(1) / v ** (-e))
    if isinstance(base, Pow) and exponent.denominator == 1:
        return power(base.base, base.exponent * exponent)
    if isinstance(base, Mul) and exponent.denominator == 1:
        return mul(*(power(f, exponent) for f in base.factors))
    return Pow(base, exponent)


def invert(e):
    if isinstance(e, Num):
        if not e.value:
            raise ZeroDivisionError("division by zero expression")
        return num(1 / e.value)
    if isinstance(e, Pow):
        return power(e.base, -e.exponent)
    if isinstance(e, Mul):
        return mul(*(invert(f) for f in e.factors))
    return Pow(e, Fraction(-1))


def div(a, b):
    return mul(a, invert(b))


def _lower_param_degenerate(lower):
    return any(isinstance(c, Fraction) and c.denominator == 1 and c <= 0
               for c in lower)


def hyp(kind, upper, lower, arg, degenerate=False):
    nu, nl = _ARITY[kind]
    upper = tuple(demote_scalar(u) for u in upper)
    lower = tuple(demote_scalar(l) for l in lower)
    if len(upper) != nu or len(lower) != nl:
        raise ValueError("bad %s arity: %d upper, %d lower"
                         % (kind, len(upper), len(lower)))
    bad = _lower_param_degenerate(lower)
    if bad and not degenerate:
        raise ValueError(
            "nonpositive integer lower parameter needs the degenerate flag")
    # The flag is stored only when the parameters actually demand it, so
    # printing and re-parsing reproduces the tree exactly.
    return Hyp(kind, upper, lower, arg, bad)


def legendre(kind, degree, arg):
    if kind not in ("P", "Q"):
        raise ValueError("Legendre kind must be P or Q")
    return Leg(kind, demote_scalar(Fraction(degree)
                                   if isinstance(degree, int) else degree),
               arg)


def has_integral(e):
    """True when the tree holds an unevaluated integral."""
    if isinstance(e, Intg):
        return True
    if isinstance(e, Add):
        return any(has_integral(t) for t in e.terms)
    if isinstance(e, Mul):
        return any(has_integral(t) for t in e.factors)
    if isinstance(e, Pow):
        return has_integral(e.base)
    if isinstance(e, (Exp, Hyp, Leg)):
        return has_integral(e.arg)
    return False


def poly_to_expr(p, var=None):
    var = X if var is None else var
    terms = []
    for e in range(p.degree, -1, -1):
        c = p.coeff(e)
        if not c:
            continue
        terms.append(mul(num(c), power(var, e)))
    if not terms:
        return ZERO
    return add(*terms)


def ratfunc_to_expr(f, var=None):
    if isinstance(f, GenRatFunc):
        g = f.reduce_carrier()
        if g.carrier == 1:
            return ratfunc_to_expr(g.fn, var)
        inner = X if var is None else var
        return ratfunc_to_expr(g.fn, power(inner, Fraction(1, g.carrier)))
    var = X if var is None else var
    if f.is_zero:
        return ZERO
    top = poly_to_expr(f.num, var)
    if f.den.degree == 0:
        return top
    return div(top, poly_to_expr(f.den, var))


# ---------------------------------------------------------------------------
# tokenizer


_SINGLE = set("+-*/^()[],=")


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SINGLE:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch == "'":
            tokens.append(("prime", "'", i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                raise ParseError("decimal literals are not supported; "
                                 "use exact rationals", i)
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError("unexpected character %r" % ch, i)
    tokens.append(("end", "", n))
    return tokens


class _TokenStream:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] != "end":
            self.pos += 1
        return tok

    def accept(self, kind, value=None):
        tok = self.peek()
        if tok[0] == kind and (value is None or tok[1] == value):
            return self.next()
        return None

    def expect(self, kind, what=None):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError("expected %s" % (what or kind), tok[2])
        return self.next()

    def fail(self, message):
        raise ParseError(message, self.peek()[2])


# ---------------------------------------------------------------------------
# ODE parsing: expressions evaluate to affine forms in y and its derivatives


class _LinForm:
    """c_free + sum_k c_k * y^(k), coefficients generalized rationals."""

    __slots__ = ("free", "ys")

    def __init__(self, free=None, ys=None):
        self.free = GenRatFunc.const(0) if free is None else free
        self.ys = ys or {}

    @property
    def is_pure(self):
        return not self.ys

    def __add__(self, other):
        ys = dict(self.ys)
        for k, c in other.ys.items():
            ys[k] = ys[k] + c if k in ys else c
        return _LinForm(self.free + other.free, ys)

    def __neg__(self):
        return _LinForm(-self.free, {k: -c for k, c in self.ys.items()})

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, g):
        return _LinForm(self.free * g, {k: c * g for k, c in self.ys.items()})


def _parse_rational_exponent(ts):
    if ts.accept("("):
        sign = -1 if ts.accept("-") else 1
        p = int(ts.expect("num", "an integer exponent")[1])
        q = 1
        if ts.accept("/"):
            q = int(ts.expect("num", "an integer denominator")[1])
        ts.expect(")", "')'")
        return Fraction(sign * p, q)
    sign = -1 if ts.accept("-") else 1
    p = int(ts.expect("num", "an integer exponent")[1])
    return Fraction(sign * p)


class _OdeParser:
    def __init__(self, text):
        self.ts = _TokenStream(text)

    def parse(self):
        lhs = self.expr()
        if self.ts.accept("="):
            rhs = self.expr()
            form = lhs - rhs
        else:
            form = lhs
        tok = self.ts.peek()
        if tok[0] != "end":
            raise ParseError("trailing input", tok[2])
        return form

    def expr(self):
        sign = 1
        while True:
            if self.ts.accept("-", "-"):
                sign = -sign
            elif self.ts.accept("+", "+"):
                pass
            else:
                break
        acc = self.term()
        if sign < 0:
            acc = -acc
        while True:
            if self.ts.accept("+"):
                acc = acc + self.term()
            elif self.ts.accept("-"):
                acc = acc - self.term()
            else:
                return acc

    def term(self):
        acc = self.factor()
        while True:
            if self.ts.accept("*"):
                rhs = self.factor()
                acc = self._mul(acc, rhs)
            elif self.ts.accept("/"):
                rhs = self.factor()
                if not rhs.is_pure:
                    self.ts.fail("cannot divide by an expression containing y")
                if rhs.free.is_zero:
                    self.ts.fail("division by zero")
                acc = acc.scaled(GenRatFunc.const(1) / rhs.free)
            else:
                return acc

    def _mul(self, a, b):
        if a.is_pure:
            return b.scaled(a.free)
        if b.is_pure:
            return a.scaled(b.free)
        raise UnsupportedEquation("nonlinear term: product of y factors")

    def factor(self):
        tok = self.ts.peek()
        base_is_x = tok[0] == "name" and tok[1] == "x"
        base = self.base()
        if self.ts.accept("^"):
            e = _parse_rational_exponent(self.ts)
            if not base.is_pure:
                if e == 1:
                    return base
                raise UnsupportedEquation(
                    "nonlinear term: y raised to power %s" % e)
            if e.denominator == 1:
                return _LinForm(base.free ** e.numerator)
            if base_is_x:
                return _LinForm(GenRatFunc.x_power(e.numerator,
                                                   e.denominator))
            raise UnsupportedEquation(
                "fractional power of a non-x base is outside the rational "
                "coefficient class")
        return base

    def base(self):
        ts = self.ts
        tok = ts.next()
        kind, val, pos = tok
        if kind == "(":
            inner = self.expr()
            ts.expect(")", "')'")
            return inner
        if kind == "num":
            return _LinForm(GenRatFunc.const(Fraction(int(val))))
        if kind == "name":
            if val == "x":
                return _LinForm(GenRatFunc(RatFunc.x(), 1))
            if val == "y":
                order = 0
                while ts.accept("prime"):
                    order += 1
                return _LinForm(ys={order: GenRatFunc.const(1)})
            raise ParseError("unknown symbol %r in an ODE" % val, pos)
        if kind == "-":
            return -self.base()
        raise ParseError("expected a number, x, y or parenthesis", pos)


def parse_ode(text):
    """Parse a second-order linear ODE into its (A, B) coefficient pair."""
    form = _OdeParser(text).parse()
    if not form.ys:
        raise UnsupportedEquation("no y term: not an ODE")
    top = max(form.ys)
    if top != 2:
        raise UnsupportedEquation("order %d equation; only order 2 is "
                                  "supported" % top)
    lead = form.ys[2]
    if lead.is_zero:
        raise UnsupportedEquation("the y'' coefficient vanishes identically")
    if not form.free.is_zero:
        raise UnsupportedEquation("inhomogeneous equation")
    a = form.ys.get(1)
    b = form.ys.get(0)
    a = (a / lead) if a is not None else GenRatFunc.const(0)
    b = (b / lead) if b is not None else GenRatFunc.const(0)
    a = a.reduce_carrier()
    b = b.reduce_carrier()
    if a.carrier == 1 and b.carrier == 1:
        return LinearODE(a.fn, b.fn)
    return LinearODE(a, b)


# ---------------------------------------------------------------------------
# solution expression parsing


class _ExprParser:
    def __init__(self, text):
        self.ts = _TokenStream(text)

    def parse(self):
        e = self.expr()
        tok = self.ts.peek()
        if tok[0] != "end":
            raise ParseError("trailing input", tok[2])
        return e

    def expr(self):
        if self.ts.accept("-"):
            acc = neg(self.term())
        else:
            self.ts.accept("+")
            acc = self.term()
        while True:
            if self.ts.accept("+"):
                acc = add(acc, self.term())
            elif self.ts.accept("-"):
                acc = add(acc, neg(self.term()))
            else:
                return acc

    def term(self):
        acc = self.factor()
        while True:
            if self.ts.accept("*"):
                acc = mul(acc, self.factor())
            elif self.ts.accept("/"):
                acc = div(acc, self.factor())
            else:
                return acc

    def factor(self):
        base = self.base()
        if self.ts.accept("^"):
            e = _parse_rational_exponent(self.ts)
            return power(base, e)
        return base

    def scalar(self, what):
        e = self.expr()
        if not isinstance(e, Num):
            self.ts.fail("expected an exact %s" % what)
        return e.value

    def scalar_list(self):
        self.ts.expect("[", "'['")
        out = []
        if not self.ts.accept("]"):
            out.append(self.scalar("parameter"))
            while self.ts.accept(","):
                out.append(self.scalar("parameter"))
            self.ts.expect("]", "']'")
        return tuple(out)

    def base(self):
        ts = self.ts
        kind, val, pos = ts.next()
        if kind == "(":
            inner = self.expr()
            ts.expect(")", "')'")
            return inner
        if kind == "num":
            return num(int(val))
        if kind == "-":
            return neg(self.base())
        if kind != "name":
            raise ParseError("expected an expression", pos)
        if val == "x":
            return X
        if val == "I":
            return num(GaussRat(0, 1))
        if val in ("C1", "C2"):
            return Const(int(val[1]))
        if val == "exp":
            ts.expect("(", "'('")
            arg = self.expr()
            ts.expect(")", "')'")
            return Exp(arg)
        if val == "Int":
            ts.expect("(", "'('")
            integrand = self.expr()
            ts.expect(",", "','")
            ts.expect("name", "the integration variable x")
            ts.expect(")", "')'")
            return Intg(integrand)
        if val == "hypergeom":
            ts.expect("(", "'('")
            upper = self.scalar_list()
            ts.expect(",", "','")
            lower = self.scalar_list()
            ts.expect(",", "','")
            arg = self.expr()
            ts.expect(")", "')'")
            kinds = {(2, 1): "2F1", (1, 1): "1F1", (0, 1): "0F1"}
            shape = (len(upper), len(lower))
            if shape not in kinds:
                raise ParseError("unsupported hypergeom shape %s" % (shape,),
                                 pos)
            return hyp(kinds[shape], upper, lower, arg,
                       degenerate=_lower_param_degenerate(
                           tuple(demote_scalar(l) for l in lower)))
        if val in ("LegendreP", "LegendreQ"):
            ts.expect("(", "'('")
            deg = self.scalar("degree")
            ts.expect(",", "','")
            arg = self.expr()
            ts.expect(")", "')'")
            return legendre(val[-1], deg, arg)
        raise ParseError("unknown symbol %r" % val, pos)


def parse_solution(text):
    """Parse a printed solution expression back into a tree."""
    return _ExprParser(text).parse()


# ---------------------------------------------------------------------------
# printing


def format_exact(v):
    """Render a Fraction or GaussRat as re-parseable text."""
    if isinstance(v, GaussRat):
        if v.im == 0:
            return str(v.re)
        if v.re == 0:
            im = v.im
            if im == 1:
                return "I"
            if im == -1:
                return "-I"
            return "%s*I" % im
        sign = "+" if v.im > 0 else "-"
        imag = abs(v.im)
        istr = "I" if imag == 1 else "%s*I" % imag
        return "%s%s%s" % (v.re, sign, istr)
    return str(v)


def _exponent_str(e):
    if e.denominator == 1 and e >= 0:
        return str(e)
    return "(%s)" % e


def _is_atom(e):
    return isinstance(e, (Sym, Const, Exp, Intg, Hyp, Leg)) or (
        isinstance(e, Num) and _scalar_is_simple(e.value))


def _scalar_is_simple(v):
    if isinstance(v, GaussRat):
        return v.im == 0 and v.re >= 0 and v.re.denominator == 1
    return v >= 0 and v.denominator == 1


def _paren(s):
    return "(" + s + ")"


def print_solution(e):
    """Deterministic textual rendering of a solution expression."""
    if isinstance(e, Num):
        s = format_exact(e.value)
        return s
    if isinstance(e, Sym):
        return "x"
    if isinstance(e, Const):
        return "C%d" % e.index
    if isinstance(e, Exp):
        return "exp(%s)" % print_solution(e.arg)
    if isinstance(e, Intg):
        return "Int(%s, x)" % print_solution(e.integrand)
    if isinstance(e, Hyp):
        ups = ", ".join(format_exact(u) for u in e.upper)
        los = ", ".join(format_exact(l) for l in e.lower)
        return "hypergeom([%s], [%s], %s)" % (ups, los,
                                              print_solution(e.arg))
    if isinstance(e, Leg):
        return "Legendre%s(%s, %s)" % (e.kind, format_exact(e.degree),
                                       print_solution(e.arg))
    if isinstance(e, Pow):
        if e.exponent < 0:
            inner = print_solution(power(e.base, -e.exponent))
            if not _is_atom(e.base) or e.exponent != -1:
                if "/" in inner or " " in inner or "*" in inner:
                    inner = _paren(inner)
            return "1/%s" % inner
        bstr = print_solution(e.base)
        if not _is_atom(e.base):
            bstr = _paren(bstr)
        return "%s^%s" % (bstr, _exponent_str(e.exponent))
    if isinstance(e, Add):
        parts = []
        for t in e.terms:
            s = print_solution(t)
            if not parts:
                parts.append(s)
            elif s.startswith("-"):
                parts.append(" - " + s[1:])
            else:
                parts.append(" + " + s)
        return "".join(parts)
    if isinstance(e, Mul):
        factors = list(e.factors)
        lead = ""
        if isinstance(factors[0], Num):
            v = factors[0].value
            if isinstance(v, Fraction) and v < 0:
                lead = "-"
                v = -v
                if v == 1:
                    factors = factors[1:]
                else:
                    factors = [num(v)] + factors[1:]
        nums, dens = [], []
        for f in factors:
            if isinstance(f, Pow) and f.exponent < 0:
                dens.append(power(f.base, -f.exponent))
            elif isinstance(f, Num) and isinstance(f.value, Fraction) \
                    and f.value.numerator == 1 and f.value.denominator > 1:
                dens.append(num(Fraction(f.value.denominator)))
            else:
                nums.append(f)
        def render(fs):
            parts = []
            for f in fs:
                s = print_solution(f)
                if isinstance(f, Add) or s.startswith("-") or (
                        isinstance(f, Num) and not _scalar_is_simple(f.value)):
                    s = _paren(s)
                parts.append(s)
            return "*".join(parts)
        top = render(nums) if nums else "1"
        if not dens:
            return lead + top
        if len(dens) == 1:
            bot = print_solution(dens[0])
            if not (_is_atom(dens[0]) and "/" not in bot):
                bot = _paren(bot)
        else:
            bot = _paren("*".join(
                _paren(print_solution(f)) if isinstance(f, (Add, Mul))
                else print_solution(f) for f in dens))
        return "%s%s/%s" % (lead, top, bot)
    raise TypeError("not a solution expression: %r" % (e,))


# ---------------------------------------------------------------------------
# differentiation


def differentiate_expr(e):
    """Exact d/dx of a solution expression tree.

    A series with a lower parameter 0 has no derivative rule and raises
    ValueError.
    """
    if isinstance(e, (Num, Const)):
        return ZERO
    if isinstance(e, Sym):
        return ONE
    if isinstance(e, Add):
        return add(*(differentiate_expr(t) for t in e.terms))
    if isinstance(e, Mul):
        pieces = []
        fs = e.factors
        for k in range(len(fs)):
            d = differentiate_expr(fs[k])
            if d == ZERO:
                continue
            pieces.append(mul(*fs[:k], d, *fs[k + 1:]))
        return add(*pieces) if pieces else ZERO
    if isinstance(e, Pow):
        return mul(num(e.exponent), power(e.base, e.exponent - 1),
                   differentiate_expr(e.base))
    if isinstance(e, Exp):
        return mul(e, differentiate_expr(e.arg))
    if isinstance(e, Intg):
        return e.integrand
    if isinstance(e, Hyp):
        if any(not c for c in e.lower):
            # the rule below divides by the lower parameters
            raise ValueError("no derivative rule for %s with a lower "
                             "parameter 0" % e.kind)
        da = differentiate_expr(e.arg)
        if e.kind == "2F1":
            a, b = e.upper
            c, = e.lower
            factor = num(a * b / c)
            shifted = hyp("2F1", (a + 1, b + 1), (c + 1,), e.arg,
                          degenerate=e.degenerate)
        elif e.kind == "1F1":
            a, = e.upper
            c, = e.lower
            factor = num(a / c)
            shifted = hyp("1F1", (a + 1,), (c + 1,), e.arg,
                          degenerate=e.degenerate)
        else:
            c, = e.lower
            factor = num(Fraction(1) / c if not isinstance(c, GaussRat)
                         else GaussRat(1) / c)
            shifted = hyp("0F1", (), (c + 1,), e.arg,
                          degenerate=e.degenerate)
        return mul(factor, shifted, da)
    if isinstance(e, Leg):
        # (z^2 - 1) X'(z) = (v+1) (X_{v+1}(z) - z X_v(z))
        z = e.arg
        v = e.degree
        up = Leg(e.kind, v + 1, z)
        core = mul(num(v + 1),
                   add(up, neg(mul(z, e))),
                   invert(add(power(z, 2), num(-1))))
        return mul(core, differentiate_expr(z))
    raise TypeError("not a solution expression: %r" % (e,))
