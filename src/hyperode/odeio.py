"""Textual front end: ODE parsing, solution expression trees, printing.

Equations and solutions share one grammar, read by _Parser:

    expr     := ("+" | "-")* term (("+" | "-") term)*
    term     := factor (("*" | "/") factor)*
    factor   := "-" factor | base ("^" exponent)?
    base     := "(" expr ")" | number | name ...
    exponent := "-"? integer | "(" "-"? integer ("/" integer)? ")"

Each side is a subclass that holds only the actions. _OdeParser reads
"y'' + A*y' + B*y = 0" and "y'' = RHS" shapes into the reduced
coefficient pair (A, B) of y'' + A y' + B y = 0; only x itself takes a
fractional power there. _ExprParser builds a solution as an immutable
tree through the smart constructors below, which do just enough folding
to keep printed output tidy and round-trippable. A number raised to an
integer power is folded by Poly.__pow__, under the kernel's caps.
"""

from fractions import Fraction
from math import lcm, log2

from .errors import (
    CoefficientOverflow,
    DegreeOverflow,
    ParseError,
    UnsupportedEquation,
)
from .exactalg import (
    COEFF_BITS,
    DEGREE_CAP,
    GaussRat,
    GenRatFunc,
    Poly,
    RatFunc,
)
from .values import Value, setfield


class LinearODE(Value):
    """y'' + A y' + B y = 0 with reduced rational coefficients.

    A and B are RatFunc in the ordinary case. A coefficient that keeps a
    fractional power of x, from an x^(p/q) literal or a pullback through
    M(x^k), is a GenRatFunc instead, so the two may be of mixed types;
    downstream code routes such equations through the generalized
    invariant path.
    """

    __slots__ = ("A", "B")

    def __init__(self, A, B):
        setfield(self, "A", A)
        setfield(self, "B", B)

    @property
    def is_fractional(self):
        return isinstance(self.A, GenRatFunc) or isinstance(self.B, GenRatFunc)


# ---------------------------------------------------------------------------
# solution expression trees


class Num(Value):
    __slots__ = ("value",)   # a Fraction or a GaussRat

    def __init__(self, value):
        setfield(self, "value", value)


class Sym(Value):
    __slots__ = ()


X = Sym()


class Const(Value):
    __slots__ = ("index",)   # 1 or 2

    def __init__(self, index):
        setfield(self, "index", index)


class Add(Value):
    __slots__ = ("terms",)

    def __init__(self, terms):
        setfield(self, "terms", terms)


class Mul(Value):
    __slots__ = ("factors",)

    def __init__(self, factors):
        setfield(self, "factors", factors)


class Pow(Value):
    __slots__ = ("base", "exponent")   # exponent: a Fraction

    def __init__(self, base, exponent):
        setfield(self, "base", base)
        setfield(self, "exponent", exponent)


class Exp(Value):
    __slots__ = ("arg",)

    def __init__(self, arg):
        setfield(self, "arg", arg)


class Intg(Value):
    """Unevaluated integral of the integrand with respect to x."""

    __slots__ = ("integrand",)

    def __init__(self, integrand):
        setfield(self, "integrand", integrand)


class Hyp(Value):
    # kind is "2F1", "1F1" or "0F1"
    __slots__ = ("kind", "upper", "lower", "arg", "degenerate")

    def __init__(self, kind, upper, lower, arg, degenerate=False):
        setfield(self, "kind", kind)
        setfield(self, "upper", upper)
        setfield(self, "lower", lower)
        setfield(self, "arg", arg)
        setfield(self, "degenerate", degenerate)


class Leg(Value):
    # kind is "P" or "Q"; degree a Fraction or a GaussRat
    __slots__ = ("kind", "degree", "arg")

    def __init__(self, kind, degree, arg):
        setfield(self, "kind", kind)
        setfield(self, "degree", degree)
        setfield(self, "arg", arg)


_ARITY = {"2F1": (2, 1), "1F1": (1, 1), "0F1": (0, 1)}

ZERO = Num(Fraction(0))
ONE = Num(Fraction(1))


def num(v):
    if isinstance(v, int):
        v = Fraction(v)
    return Num(v)


def add(*terms):
    flat = []
    acc = Fraction(0)
    for t in terms:
        for p in (t.terms if type(t) is Add else (t,)):
            if type(p) is Num:
                acc = acc + p.value
            else:
                flat.append(p)
    if acc != 0 or not flat:
        flat.append(num(_fit(acc)))
    if len(flat) == 1:
        return flat[0]
    return Add(tuple(flat))


def _recip(f):
    return type(f) is Pow and f.exponent < 0


def mul(*factors):
    """The product of factors that these constructors built.

    Numbers fold into one leading coefficient, repeated bases merge and
    reciprocal factors go last. A product of two factors that are not
    products themselves, such as each step of a parsed term, takes a
    shortcut with the same result.
    """
    if len(factors) == 2:
        a, b = factors
        ta, tb = type(a), type(b)
        if ta is Num and tb is not Mul:
            if tb is Num:
                return Num(_fit(a.value * b.value)) \
                    if a.value and b.value else ZERO
            if not a.value:
                return ZERO
            return b if a.value == 1 else Mul((a, b))
        if tb is Num and ta is not Mul:
            if not b.value:
                return ZERO
            return a if b.value == 1 else Mul((b, a))
        if ta is not Mul and tb is not Mul and \
                (a.base if ta is Pow else a) != (b.base if tb is Pow else b):
            return Mul((b, a) if _recip(a) and not _recip(b) else (a, b))
    flat = []
    acc = Fraction(1)
    for f in factors:
        for p in (f.factors if type(f) is Mul else (f,)):
            if type(p) is Num:
                if not p.value:
                    return ZERO
                acc = acc * p.value
            else:
                flat.append(p)
    # Merge repeated bases; z^a * z^b = z^(a+b) holds for principal
    # powers of one base, unlike distributing an exponent over a product.
    # A factor whose base occurs once is kept as it is.
    slots = {}
    for p in flat:
        base, e = (p.base, p.exponent) if type(p) is Pow else (p, 1)
        slots[base] = (None, slots[base][1] + e) if base in slots else (p, e)
    merged = []
    for base, (p, e) in slots.items():
        if p is None:
            if not e:
                continue
            p = power(base, e)
            if type(p) is Num:
                if not p.value:
                    return ZERO
                acc = acc * p.value
                continue
        merged.append(p)
    # reciprocal factors go last, mirroring the printed numerator /
    # denominator split, so reparsing printed output reproduces the tree
    tail = [f for f in merged if _recip(f)]
    if tail:
        merged = [f for f in merged if not _recip(f)] + tail
    acc = _fit(acc)
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
    """base^exponent for an int or Fraction exponent."""
    if exponent == 1:
        return base
    if exponent == 0:
        return ONE
    integral = exponent.denominator == 1
    if type(base) is Num:
        v = base.value
        if not v and exponent < 0:
            raise ZeroDivisionError("division by zero expression")
        if integral:
            e = exponent.numerator
            if e == -1 and type(v) is Fraction:
                # a rational reciprocal is as long as the number itself
                return Num(_fit(v ** -1))
            if e < 0:
                v, e = 1 / v, -e
            # Poly.__pow__ refuses the first intermediate past the cap
            return num((Poly.const(v) ** e).coeff(0))
    elif integral:
        if type(base) is Pow:
            return power(base.base, base.exponent * exponent)
        if type(base) is Mul:
            return mul(*(power(f, exponent) for f in base.factors))
    return Pow(base, Fraction(exponent) if type(exponent) is int
               else exponent)


def div(a, b):
    return mul(a, power(b, -1))


def _fit(c):
    """c, refused when its numerator or denominator alone is longer than
    COEFF_BITS, so that the kernel's layout would refuse it too. A
    Gaussian c is checked in that layout."""
    if type(c) is GaussRat:
        Poly.const(c)
        return c
    bits = c.bit_length() if type(c) is int else max(
        c.numerator.bit_length(), c.denominator.bit_length())
    if bits > COEFF_BITS:
        raise CoefficientOverflow(bits, COEFF_BITS)
    return c


def hyp(kind, upper, lower, arg, degenerate=False):
    nu, nl = _ARITY[kind]
    upper = tuple(upper)
    lower = tuple(lower)
    if len(upper) != nu or len(lower) != nl:
        raise ValueError("bad %s arity: %d upper, %d lower"
                         % (kind, len(upper), len(lower)))
    bad = any(isinstance(c, Fraction) and c.denominator == 1 and c <= 0
              for c in lower)
    if bad and not degenerate:
        raise ValueError(
            "nonpositive integer lower parameter needs the degenerate flag")
    # The flag is stored only when the parameters actually demand it, so
    # printing and re-parsing reproduces the tree exactly.
    return Hyp(kind, upper, lower, arg, bad)


def legendre(kind, degree, arg):
    if kind not in ("P", "Q"):
        raise ValueError("Legendre kind must be P or Q")
    return Leg(kind, Fraction(degree) if isinstance(degree, int) else degree,
               arg)


def has_integral(e):
    """True when the tree holds an unevaluated integral."""
    if isinstance(e, Intg):
        return True
    if isinstance(e, Add):
        return any(has_integral(t) for t in e.terms)
    if isinstance(e, Mul):
        return any(has_integral(f) for f in e.factors)
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
    var = X if var is None else var
    if isinstance(f, GenRatFunc):
        return ratfunc_to_expr(f.fn, power(var, Fraction(1, f.carrier)))
    if f.is_zero:
        return ZERO
    top = poly_to_expr(f.num, var)
    if f.den.degree == 0:
        return top
    return div(top, poly_to_expr(f.den, var))


# ---------------------------------------------------------------------------
# tokenizer and grammar


_SINGLE = set("+-*/^()[],=")

# Deepest nesting of factors (parentheses, function arguments and the minus
# signs of a factor) the parser accepts; it keeps the recursive descent far
# from Python's recursion limit.
MAX_NESTING = 100

# A literal with more significant digits than this is at least
# 10^_MAX_DIGITS, which is beyond 2^COEFF_BITS.
_BITS_PER_DIGIT = log2(10)
_MAX_DIGITS = int(COEFF_BITS / _BITS_PER_DIGIT) + 1


def _tokenize(text):
    """The (kind, value, offset) tokens of text, ending in an "end" token."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in _SINGLE:
            tokens.append((ch, ch, i))
            i += 1
        elif ch == "'":
            tokens.append(("prime", "'", i))
            i += 1
        elif ch.isspace():
            i += 1
        elif ch.isdecimal():
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            if j < n and text[j] == ".":
                raise ParseError("decimal literals are not supported; "
                                 "use exact rationals", i)
            digits = len(text[i:j].lstrip("0"))
            if digits > _MAX_DIGITS:
                raise CoefficientOverflow(
                    int((digits - 1) * _BITS_PER_DIGIT) + 1, COEFF_BITS)
            tokens.append(("num", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        else:
            raise ParseError("unexpected character %r" % ch, i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """Recursive descent over the grammar of the module docstring.

    A subclass supplies the actions: add, neg, mul, div, power (also
    given the factor's first token), number, and name, which reads a
    name and what follows it. Each factor is one nesting level. A
    ZeroDivisionError from an action is a ParseError at the current token.
    The rules read the token kinds by index; pos stays on the end token
    once it gets there.
    """

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.kinds = [tok[0] for tok in self.tokens]
        self.pos = 0
        self.depth = 0

    def accept(self, kind):
        """Consume the next token if it is of this kind, never "end"."""
        if self.kinds[self.pos] != kind:
            return False
        self.pos += 1
        return True

    def expect(self, kind, what=None):
        """Consume the next token, which must be of this kind."""
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ParseError("expected %s" % (what or kind), tok[2])
        self.pos += 1
        return tok

    def fail(self, message):
        raise ParseError(message, self.tokens[self.pos][2])

    def parse(self):
        try:
            out = self.whole()
        except ZeroDivisionError:
            self.fail("division by zero")
        tok = self.tokens[self.pos]
        if tok[0] != "end":
            raise ParseError("trailing input", tok[2])
        return out

    def whole(self):
        return self.expr()

    def expr(self):
        kinds = self.kinds
        negative = False
        while kinds[self.pos] in ("+", "-"):
            negative ^= kinds[self.pos] == "-"
            self.pos += 1
        acc = self.term()
        if negative:
            acc = self.neg(acc)
        while True:
            kind = kinds[self.pos]
            if kind == "+":
                self.pos += 1
                acc = self.add(acc, self.term())
            elif kind == "-":
                self.pos += 1
                acc = self.add(acc, self.neg(self.term()))
            else:
                return acc

    def term(self):
        kinds = self.kinds
        acc = self.factor()
        while True:
            kind = kinds[self.pos]
            if kind == "*":
                self.pos += 1
                acc = self.mul(acc, self.factor())
            elif kind == "/":
                self.pos += 1
                acc = self.div(acc, self.factor())
            else:
                return acc

    def factor(self):
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail("expression nested deeper than %d levels" % MAX_NESTING)
        start = self.pos
        if self.kinds[start] == "-":
            self.pos += 1
            out = self.neg(self.factor())
        else:
            out = self.base()
            if self.kinds[self.pos] == "^":
                self.pos += 1
                out = self.power(out, self.exponent(), self.tokens[start])
        self.depth -= 1
        return out

    def exponent(self):
        """The exponent after '^': an integer, or a ratio in parentheses,
        which is a Fraction."""
        paren = self.accept("(")
        sign = -1 if self.accept("-") else 1
        e = sign * int(self.expect("num", "an integer exponent")[1])
        if paren:
            if self.accept("/"):
                tok = self.expect("num", "an integer denominator")
                q = int(tok[1])
                if not q:
                    raise ParseError("zero denominator in an exponent",
                                     tok[2])
                e = Fraction(e, q)
            self.expect(")", "')'")
        return e

    def base(self):
        kind, val, pos = self.tokens[self.pos]
        if kind != "end":
            self.pos += 1
        if kind == "(":
            inner = self.expr()
            self.expect(")", "')'")
            return inner
        if kind == "num":
            return self.number(int(val))
        if kind == "name":
            return self.name(val, pos)
        raise ParseError(self.expected, pos)


# ---------------------------------------------------------------------------
# ODE parsing: expressions evaluate to affine forms in y and its derivatives
#
# A coefficient accumulates as a sparse polynomial: a dict from each
# exponent of x (an int, or a Fraction for x^(p/q)) to its nonzero
# rational coefficient, so x^(-n) and x^(p/q) are single terms. Sums,
# products, quotients by a single term and integer powers keep that form
# and cost only rational arithmetic on the terms. A quotient by two or
# more terms is built once, with one gcd, as the reduced RatFunc (or
# GenRatFunc, when an exponent is fractional) and from then on uses the
# kernel's arithmetic. A term dict never leaves the kernel's caps: the
# degree of the RatFunc or GenRatFunc it denotes, and the bit length of
# each coefficient.


def _carrier(exponents):
    """The lcm of the denominators of the exponents."""
    return lcm(*[e.denominator for e in exponents])


def _check_degree(exponents):
    """Refuse terms whose RatFunc or GenRatFunc form is past DEGREE_CAP."""
    hi = max(exponents)
    lo = min(exponents)
    degree = (hi if hi > 0 else 0) - (lo if lo < 0 else 0)
    carrier = _carrier(exponents)
    if carrier > 1:
        degree = int(degree * carrier)
    cap = DEGREE_CAP.get()
    if degree > cap:
        raise DegreeOverflow(degree, cap)


def _checked(terms):
    """terms without zero coefficients, refused past the kernel's caps."""
    out = {e: _fit(c) for e, c in terms.items() if c}
    if out:
        _check_degree(out)
    return out


def _is_one(v):
    return type(v) is dict and len(v) == 1 and v.get(0) == 1


def _in_carrier(v, carrier, low):
    """The Poly in t = x^(1/carrier) of the terms of v times x^(-low)."""
    return Poly.from_pairs([(int((e - low) * carrier), c)
                            for e, c in v.items()])


def _ratio(a, b):
    """a / b for term dicts, b nonzero, as a RatFunc or GenRatFunc.

    Both become polynomials in x^(1/L), L the lcm of the exponent
    denominators, after dividing by the lowest power of x in either.
    A single-term b then shares no factor with a, so only a quotient by
    two or more terms costs a gcd.
    """
    exponents = [*a, *b]
    carrier = _carrier(exponents)
    low = min(exponents)
    num = _in_carrier(a, carrier, low)
    den = _in_carrier(b, carrier, low)
    fn = RatFunc.from_coprime(num, den) if len(b) == 1 else RatFunc(num, den)
    return GenRatFunc(fn, carrier) if carrier > 1 else fn


def _exact(v):
    """The RatFunc or GenRatFunc a coefficient denotes."""
    if type(v) is not dict:
        return v
    return _ratio(v, {0: 1}) if v else RatFunc.const(0)


def _neg(v):
    """-v for a coefficient or a _LinForm."""
    if type(v) is dict:
        return {e: -c for e, c in v.items()}
    return -v


def _add(a, b):
    if not a:
        return b
    if not b:
        return a
    if type(a) is dict and type(b) is dict:
        out = dict(a)
        for e, c in b.items():
            if e in out:
                c = _fit(out.pop(e) + c)
            if c:
                out[e] = c
        # more terms than DEGREE_CAP + 1 imply a degree past the cap;
        # the degree itself is checked where the sum is next used
        if len(out) > DEGREE_CAP.get() + 1:
            _check_degree(out)
        return out
    return _exact(a) + _exact(b)


def _times_term(v, k, c, over=False):
    """The terms of v times c * x^k, or over c * x^k, for a nonzero c.

    Only a shift of the exponents can move the degree; a sum keeps the
    check it was due.
    """
    if over:
        out = {e + k: _fit(Fraction(d, c)) for e, d in v.items()}
    elif c == 1:
        out = {e + k: d for e, d in v.items()}
    else:
        out = {e + k: _fit(d * c) for e, d in v.items()}
    if k:
        _check_degree(out)
    return out


def _mul(a, b):
    if not a or not b:
        return {}
    if type(a) is dict and type(b) is dict:
        if len(b) > len(a):
            a, b = b, a
        if len(b) == 1:
            (k, c), = b.items()
            return _times_term(a, k, c)
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                out[e] = out.get(e, 0) + ca * cb
        return _checked(out)
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return _exact(a) * _exact(b)


def _div(a, b):
    """a / b for a nonzero b."""
    if not a or _is_one(b):
        return a
    if type(a) is dict and type(b) is dict:
        if len(b) == 1:
            (k, c), = b.items()
            return _times_term(a, -k, c, over=True)
        return _ratio(a, b)
    return _exact(a) / _exact(b)


def _power(v, e):
    """v**e for an integer e, with v nonzero when e < 0.

    A single term is refused by the degree cap before its power is
    computed; its coefficient, like a sum of terms, goes through
    Poly.__pow__, which stops at the first intermediate past a cap; a
    RatFunc or GenRatFunc is already reduced.
    """
    if type(v) is not dict:
        return v ** e
    if e == 0:
        return {0: 1}
    if not v:
        return v
    if len(v) == 1:
        (k, c), = v.items()
        if e < 0:
            k, c, e = -k, Fraction(1, c), -e
        _check_degree((k * e,))
        if c == 1:
            return {k * e: 1}
        return {k * e: (Poly.const(c) ** e).coeff(0)}
    if e < 0:
        return _div({0: 1}, _power(v, -e))
    carrier = _carrier(v)
    low = min(v)
    p = _in_carrier(v, carrier, low) ** e
    return _checked({low * e + (Fraction(i, carrier) if carrier > 1 else i): c
                     for i, c in enumerate(p.coeffs)})


class _LinForm:
    """c_free + sum_k c_k * y^(k) with at least one y term.

    Each coefficient is a term dict or, past a quotient by several terms,
    a RatFunc or GenRatFunc. An expression without y is its coefficient
    alone.
    """

    __slots__ = ("free", "ys")

    def __init__(self, free, ys):
        self.free = free
        self.ys = ys

    def __neg__(self):
        return _LinForm(_neg(self.free),
                        {k: _neg(c) for k, c in self.ys.items()})

    def scaled(self, g):
        return _LinForm(_mul(self.free, g),
                        {k: _mul(c, g) for k, c in self.ys.items()})

    def divided(self, g):
        return _LinForm(_div(self.free, g),
                        {k: _div(c, g) for k, c in self.ys.items()})


def _plus(a, b):
    """a + b for coefficients or _LinForms."""
    if type(a) is not _LinForm:
        if type(b) is not _LinForm:
            return _add(a, b)
        a, b = b, a
    if type(b) is not _LinForm:
        return _LinForm(_add(a.free, b), a.ys)
    ys = dict(a.ys)
    for k, c in b.ys.items():
        ys[k] = _add(ys[k], c) if k in ys else c
    return _LinForm(_add(a.free, b.free), ys)


def _times(a, b):
    """a * b for coefficients or _LinForms, linear in y."""
    if type(a) is not _LinForm:
        return b.scaled(a) if type(b) is _LinForm else _mul(a, b)
    if type(b) is not _LinForm:
        return a.scaled(b)
    raise UnsupportedEquation("nonlinear term: product of y factors")


class _OdeParser(_Parser):
    """Actions for an equation: a value is a coefficient or a _LinForm,
    and "lhs = rhs" is lhs - rhs."""

    expected = "expected a number, x, y or parenthesis"
    add = staticmethod(_plus)
    neg = staticmethod(_neg)
    mul = staticmethod(_times)

    def whole(self):
        lhs = self.expr()
        if self.accept("="):
            return _plus(lhs, _neg(self.expr()))
        return lhs

    def div(self, a, b):
        if type(b) is _LinForm:
            self.fail("cannot divide by an expression containing y")
        if not b:
            self.fail("division by zero")
        return a.divided(b) if type(a) is _LinForm else _div(a, b)

    def power(self, base, e, start):
        if type(base) is _LinForm:
            if e == 1:
                return base
            raise UnsupportedEquation(
                "nonlinear term: y raised to power %s" % e)
        if e.denominator == 1:
            if e < 0 and not base:
                self.fail("division by zero")
            return _power(base, e.numerator)
        if start[0] == "name" and start[1] == "x":
            _check_degree((e,))
            return {e: 1}
        raise UnsupportedEquation(
            "fractional power of a non-x base is outside the rational "
            "coefficient class")

    @staticmethod
    def number(n):
        n = _fit(n)
        return {0: n} if n else {}

    def name(self, val, pos):
        if val == "x":
            return {1: 1}
        if val == "y":
            order = 0
            while self.accept("prime"):
                order += 1
            return _LinForm({}, {order: {0: 1}})
        raise ParseError("unknown symbol %r in an ODE" % val, pos)


def parse_ode(text):
    """Parse a second-order linear ODE into its (A, B) coefficient pair."""
    form = _OdeParser(text).parse()
    if type(form) is not _LinForm:
        raise UnsupportedEquation("no y term: not an ODE")
    top = max(form.ys)
    if top != 2:
        raise UnsupportedEquation("order %d equation; only order 2 is "
                                  "supported" % top)
    lead = form.ys[2]
    if not lead:
        raise UnsupportedEquation("the y'' coefficient vanishes identically")
    if form.free:
        raise UnsupportedEquation("inhomogeneous equation")
    return LinearODE(*(_exact(_div(form.ys.get(k, {}), lead))
                       for k in (1, 0)))


# ---------------------------------------------------------------------------
# solution expression parsing: expressions evaluate to solution trees


class _ExprParser(_Parser):
    """Actions for a solution: a value is a tree of the smart
    constructors above."""

    expected = "expected an expression"
    add = staticmethod(add)
    neg = staticmethod(neg)
    mul = staticmethod(mul)
    div = staticmethod(div)

    @staticmethod
    def number(n):
        return num(_fit(n))

    @staticmethod
    def power(base, e, start):
        return power(base, e)

    def scalar(self, what):
        e = self.expr()
        if not isinstance(e, Num):
            self.fail("expected an exact %s" % what)
        return e.value

    def scalar_list(self):
        self.expect("[", "'['")
        out = []
        if not self.accept("]"):
            out.append(self.scalar("parameter"))
            while self.accept(","):
                out.append(self.scalar("parameter"))
            self.expect("]", "']'")
        return tuple(out)

    def name(self, val, pos):
        if val == "x":
            return X
        if val == "I":
            return num(GaussRat(0, 1))
        if val in ("C1", "C2"):
            return Const(int(val[1]))
        if val == "exp":
            self.expect("(", "'('")
            arg = self.expr()
            self.expect(")", "')'")
            return Exp(arg)
        if val == "Int":
            self.expect("(", "'('")
            integrand = self.expr()
            self.expect(",", "','")
            var = self.expect("name", "the integration variable x")
            if var[1] != "x":
                raise ParseError("the integration variable must be x, not "
                                 "%r" % var[1], var[2])
            self.expect(")", "')'")
            return Intg(integrand)
        if val == "hypergeom":
            self.expect("(", "'('")
            upper = self.scalar_list()
            self.expect(",", "','")
            lower = self.scalar_list()
            self.expect(",", "','")
            arg = self.expr()
            self.expect(")", "')'")
            kinds = {arity: kind for kind, arity in _ARITY.items()}
            shape = (len(upper), len(lower))
            if shape not in kinds:
                raise ParseError("unsupported hypergeom shape %s" % (shape,),
                                 pos)
            return hyp(kinds[shape], upper, lower, arg, degenerate=True)
        if val in ("LegendreP", "LegendreQ"):
            self.expect("(", "'('")
            deg = self.scalar("degree")
            self.expect(",", "','")
            arg = self.expr()
            self.expect(")", "')'")
            return legendre(val[-1], deg, arg)
        raise ParseError("unknown symbol %r" % val, pos)


def parse_solution(text):
    """Parse a printed solution expression back into a tree.

    A zero base under a negative power, written or produced by merging
    powers of one base, is a ParseError at the current token.
    """
    return _ExprParser(text).parse()


# ---------------------------------------------------------------------------
# printing


def format_exact(v):
    """Render a Fraction or GaussRat as re-parseable text."""
    if isinstance(v, GaussRat):
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
        return False
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

    A series with an upper parameter 0 is the constant 1. Otherwise a
    series with a lower parameter 0 has no derivative rule and raises
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
        # d/dz F(upper; lower; z) = (prod upper / prod lower)
        #                           * F(upper + 1; lower + 1; z)
        if any(not u for u in e.upper):
            return ZERO
        if any(not c for c in e.lower):
            raise ValueError("no derivative rule for %s with a lower "
                             "parameter 0" % e.kind)
        factor = Fraction(1)
        for u in e.upper:
            factor = factor * u
        for c in e.lower:
            factor = factor / c
        return mul(num(factor),
                   hyp(e.kind, tuple(u + 1 for u in e.upper),
                       tuple(c + 1 for c in e.lower), e.arg,
                       degenerate=e.degenerate),
                   differentiate_expr(e.arg))
    if isinstance(e, Leg):
        # (z^2 - 1) X'(z) = (v+1) (X_{v+1}(z) - z X_v(z)); a constant
        # z, possibly at the pole z^2 = 1, needs no rule
        z = e.arg
        dz = differentiate_expr(z)
        if dz == ZERO:
            return ZERO
        v = e.degree
        up = Leg(e.kind, v + 1, z)
        core = mul(num(v + 1),
                   add(up, neg(mul(z, e))),
                   power(add(power(z, 2), num(-1)), -1))
        return mul(core, dz)
    raise TypeError("not a solution expression: %r" % (e,))
