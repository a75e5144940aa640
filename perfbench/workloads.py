"""Seeded inputs, the timed call and the grading of each benchmark workload.

A workload turns a seed into a list of cases before any timing starts.
A case holds only the text handed to hyperode and the outcome expected of
it. Expectations come from the data that generated the text (the frozen
corpus record, the criterion-5 invariant round trip, the exit codes the
``verify`` verb documents), never from the run being graded.

hyperode is reached through module attributes (``cli.cmd_solve``, not a
name imported once), so the wrappers the traced run installs on those
attributes see every call the benchmark makes.
"""

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from hyperode import cli, equivalence, odeio, solutions
from hyperode.errors import (
    HyperodeError,
    IrrationalExponentDifference,
    NoEquivalence,
    UnsupportedParameterField,
)
from hyperode.exactalg import Poly, RatFunc
from hyperode.invariants import Mobius, to_normal_form

CORPUS_PATH = Path(__file__).resolve().parent / "corpus.jsonl"
KINDS = ("2F1", "1F1", "0F1")
NO_WITNESS = (NoEquivalence, IrrationalExponentDifference,
              UnsupportedParameterField)


@dataclass(frozen=True)
class Case:
    """One input: a stable label, the text inputs, the expected outcome."""

    name: str
    texts: tuple
    expect: object


@dataclass(frozen=True)
class Verdict:
    """How one outcome compares with its expectation.

    ``matched`` is false for every outcome other than the expected one;
    those count in ``failed``. ``wrong`` marks the ones that make a run
    incorrect: a traceback or an exact answer that contradicts the input
    (a wrong class or integral-free flag, a witness failing its round
    trip, no equivalence where one was built in). A
    refusal (exit 1), the oracle failing a true solution (a false FAIL)
    and the oracle passing a control (a false PASS) are unmatched but not
    wrong: all three are limits of the numeric oracle. False PASSes are
    also counted apart (``false_pass``), and the harness calls a run
    incorrect when they exceed a small share of it. A traceback where an
    evaluation error (exit 1) is expected is a miss too: it gives no
    verdict, and none was due.
    """

    matched: bool
    wrong: bool
    note: str = ""
    false_pass: bool = False


MATCHED = Verdict(True, False)


def _missed(note):
    return Verdict(False, False, note)


def _wrong(note):
    return Verdict(False, True, note)


def _false_pass(note):
    return Verdict(False, False, note, false_pass=True)


# ---------------------------------------------------------------------------
# the criterion-5 recipe


@dataclass(frozen=True)
class Draw:
    """The data that generates one transformed-seed equation."""

    kind: str
    params: dict
    mobius: Mobius
    k: int
    gauge: object

    def ode(self):
        return equivalence.transformed_seed_ode(
            self.kind, self.params, self.mobius, self.k, self.gauge)


def _nondegenerate_params(rng, kind):
    """Height-12 rational parameters avoiding integer exponent gaps."""
    while True:
        if kind == "2F1":
            a, b, c = (Fraction(rng.randint(-12, 12), rng.randint(1, 12))
                       for _ in range(3))
            if a and b and c.denominator > 1 \
                    and (a + b - c).denominator > 1 \
                    and (a - b).denominator > 1:
                return {"a": a, "b": b, "c": c}
        elif kind == "1F1":
            a = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
            c = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
            if a and c.denominator > 1 and 2 * a != c:
                return {"a": a, "c": c}
        else:
            c = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
            if c.denominator > 1:
                return {"c": c}


def _random_mobius(rng):
    while True:
        a, b, c, d = (rng.randint(-6, 6) for _ in range(4))
        if a * d - b * c:
            return Mobius.from_ints(a, b, c, d)


def _random_gauge(rng):
    pole = rng.randint(-3, 3)
    res = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return (RatFunc(Poly.const(res), Poly((Fraction(-pole), Fraction(1))))
            + RatFunc(Poly.const(Fraction(rng.randint(-2, 2)))))


def draws(seed, count):
    """The first ``count`` draws of the criterion-5 recipe for a seed.

    Parameters are height-12 and nondegenerate, Mobius entries lie in
    [-6, 6] and every fourth draw is gauged, as in criterion 5. Kinds go
    round robin and, unlike criterion 5, which draws k at random, k cycles
    through 1, 2, 3 within each kind. Every 36 draws therefore hold each
    (kind, k) pair four times, once gauged, so the mix of costly and cheap
    inputs is the same for every seed.
    """
    rng = random.Random(seed)
    out = []
    for trial in range(count):
        kind = KINDS[trial % 3]
        params = _nondegenerate_params(rng, kind)
        m = _random_mobius(rng)
        k = 1 + (trial // 3) % 3
        gauge = _random_gauge(rng) if trial % 4 == 0 else None
        out.append(Draw(kind, params, m, k, gauge))
    return out


# ---------------------------------------------------------------------------
# text rendering, independent of hyperode's printer


def _poly_text(p):
    parts = []
    for e in range(len(p.coeffs) - 1, -1, -1):
        c = Fraction(p.coeffs[e])
        if not c:
            continue
        mag = abs(c)
        mono = "" if e == 0 else ("x" if e == 1 else "x^%d" % e)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = "%s*%s" % (mag, mono)
        if not parts:
            parts.append("-" + body if c < 0 else body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts) or "0"


def _ratfunc_text(f):
    top = _poly_text(f.num)
    if f.den.degree == 0:
        return "(%s)" % top
    return "(%s)/(%s)" % (top, _poly_text(f.den))


def ode_text(ode):
    """``y'' + (A)*y' + (B)*y = 0`` for rational coefficients over Q.

    The text is parsed back and compared with the equation, so a rendering
    slip stops the benchmark before it measures anything.
    """
    text = "y'' + %s*y' + %s*y = 0" % (_ratfunc_text(ode.A),
                                      _ratfunc_text(ode.B))
    back = odeio.parse_ode(text)
    if back.A != ode.A or back.B != ode.B:
        raise RuntimeError("equation text does not round-trip: %s" % text)
    return text


def _walk(e):
    yield e
    for child in _children(e):
        yield from _walk(child)


def _children(e):
    if isinstance(e, odeio.Add):
        return e.terms
    if isinstance(e, odeio.Mul):
        return e.factors
    if isinstance(e, odeio.Pow):
        return (e.base,)
    if isinstance(e, odeio.Exp):
        return (e.arg,)
    if isinstance(e, odeio.Intg):
        return (e.integrand,)
    if isinstance(e, (odeio.Hyp, odeio.Leg)):
        return (e.arg,)
    return ()


def node_count(e):
    """Number of nodes in a solution expression tree."""
    return sum(1 for _ in _walk(e))


def has_integral(e):
    return any(isinstance(n, odeio.Intg) for n in _walk(e))


def _nonpositive_integer(v):
    return isinstance(v, Fraction) and v.denominator == 1 and v <= 0


def has_undefined_series(e):
    """True when a pFq node has a lower parameter b on a nonpositive
    integer and no upper parameter on an integer in [b, 0] that ends the
    series first: its terms divide by zero, so it cannot be evaluated."""
    return any(
        _nonpositive_integer(b) and not any(
            _nonpositive_integer(a) and a >= b for a in n.upper)
        for n in _walk(e) if isinstance(n, odeio.Hyp) for b in n.lower)


def shift_first_parameter(expr):
    """Copy of the tree with one special-function parameter moved by 1/10.

    The first Hyp or Leg node in depth-first order gets the move: its
    first upper parameter, else its lower one, else the Legendre degree.
    A lower parameter moved onto a nonpositive integer leaves the series
    undefined; the node keeps it, flagged degenerate, as the solution
    grammar allows.
    """
    step = Fraction(1, 10)
    hit = []

    def walk(e):
        if hit:
            return e
        if isinstance(e, odeio.Hyp):
            hit.append(True)
            if e.upper:
                up = (e.upper[0] + step,) + e.upper[1:]
                return odeio.hyp(e.kind, up, e.lower, e.arg, degenerate=True)
            low = (e.lower[0] + step,) + e.lower[1:]
            return odeio.hyp(e.kind, e.upper, low, e.arg, degenerate=True)
        if isinstance(e, odeio.Leg):
            hit.append(True)
            return odeio.Leg(e.kind, e.degree + step, e.arg)
        if isinstance(e, odeio.Mul):
            return odeio.Mul(tuple(walk(f) for f in e.factors))
        if isinstance(e, odeio.Add):
            return odeio.Add(tuple(walk(t) for t in e.terms))
        if isinstance(e, odeio.Pow):
            return odeio.Pow(walk(e.base), e.exponent)
        if isinstance(e, odeio.Exp):
            return odeio.Exp(walk(e.arg))
        return e

    out = walk(expr)
    if not hit:
        raise RuntimeError("no special function to perturb in %r" % (expr,))
    return out


def frozen_corpus():
    """The 20 corpus entries frozen with the benchmark, sorted by id."""
    rows = [json.loads(line) for line in
            CORPUS_PATH.read_text(encoding="utf-8").splitlines()
            if line.strip()]
    return sorted(rows, key=lambda r: r["id"])


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Seeded cases, the timed call, its outcome record and its grading.

    ``call`` is what the harness times. ``record`` reduces its result to a
    small hashable outcome, and ``grade`` compares an outcome with the
    case's expectation. ``cold_case`` is the input a fresh interpreter
    completes for ``setup_s``; it does not depend on the seed.
    """

    @staticmethod
    def crash_record(exc):
        """The outcome record of a call that raised instead of returning."""
        return ("raised", type(exc).__name__, str(exc))

    def verdict(self, case, rec):
        """Grade one outcome record; a traceback is wrong."""
        if rec[0] == "raised":
            return _wrong("raised %s: %s" % rec[1:])
        return self.grade(case, rec)


class CorpusVerify(Workload):
    """The frozen corpus through ``cmd_solve(..., verify=True)``.

    The 20 entries make one pass, in seeded order. Graded as
    ``cmd_corpus`` grades: unmarked entries must exit 2; marked ones must
    exit 0 with the recorded class, the recorded integral-free flag and a
    passing residual gate.
    """

    name = "corpus-verify"
    cold_start = ("from hyperode.cli import cmd_solve\n"
                  "cmd_solve(sys.argv[1], verify=True)")

    @staticmethod
    def _case(row):
        return Case(row["id"], (row["ode_text"],),
                    (row.get("expected_class"),
                     row.get("expected_integral_free")))

    def cases(self, seed):
        out = [self._case(r) for r in frozen_corpus()]
        random.Random(seed).shuffle(out)
        return out

    def cold_case(self):
        return self._case(frozen_corpus()[0])

    def call(self, case):
        return cli.cmd_solve(case.texts[0], verify=True)

    def record(self, out):
        payload, code = out
        if "error" in payload:
            return (code, payload["error"]["type"],
                    payload["error"]["message"])
        residuals = payload.get("residuals") or {}
        return (code, payload["witness"]["class"],
                payload["solutions"]["integral_free"],
                residuals.get("passes"))

    def grade(self, case, rec):
        want_class, want_free = case.expect
        code = rec[0]
        if want_class is None:
            if code == 2:
                return MATCHED
            if code == 0:
                return _wrong("unexpected %s witness" % rec[1])
            return _missed("exit %d: %s" % (code, rec[2]))
        if code == 1:
            return _missed("exit 1: %s" % rec[2])
        if code == 2 and len(rec) == 3:
            return _wrong("no equivalence: %s" % rec[2])
        _, got_class, got_free, passes = rec
        if got_class != want_class:
            return _wrong("class %s, expected %s" % (got_class, want_class))
        if want_free is not None and got_free != want_free:
            return _wrong("integral_free %s, expected %s"
                          % (got_free, want_free))
        if not passes:
            return _missed("false FAIL: residual gate failed")
        return MATCHED


class SeedsSolve(Workload):
    """Transformed seeds through ``parse_ode``, ``solve_equivalence``,
    ``assemble``, with a quarter of near-miss inputs mixed in.

    A near miss is one of the generated equations with a nonzero constant
    added to B. Every witness, for either kind of input, must pass the
    criterion-5 invariant round trip; near misses may also end in a
    no-equivalence error (exit 2 at the CLI).
    """

    name = "seeds-solve"
    cold_start = ("import hyperode\n"
                  "hyperode.assemble(hyperode.solve_equivalence("
                  "hyperode.parse_ode(sys.argv[1])))")

    def __init__(self, seeds=108):
        self.seeds = seeds

    def cold_case(self):
        return Case("draw-0", (ode_text(draws(0, 1)[0].ode()),), "witness")

    def cases(self, seed):
        out = []
        rng = random.Random("near-miss:%d" % seed)
        picked = set(rng.sample(range(self.seeds), self.seeds // 4))
        for i, d in enumerate(draws(seed, self.seeds)):
            ode = d.ode()
            out.append(Case("seed-%d" % i, (ode_text(ode),), "witness"))
            if i in picked:
                shift = Fraction(rng.randint(1, 12), rng.randint(1, 12))
                if rng.random() < 0.5:
                    shift = -shift
                near = odeio.LinearODE(ode.A, ode.B + shift)
                out.append(Case("seed-%d+near-miss" % i,
                                (ode_text(near),), "near-miss"))
        rng.shuffle(out)
        return out

    def call(self, case):
        ode = odeio.parse_ode(case.texts[0])
        try:
            w = equivalence.solve_equivalence(ode)
        except NO_WITNESS as e:
            return 2, type(e).__name__
        except HyperodeError as e:
            return 1, "%s: %s" % (type(e).__name__, e)
        solutions.assemble(w)
        return 0, w

    def record(self, out):
        code, w = out
        if code != 0:
            return out
        return (0, w.class_kind, w.k, w.mobius,
                tuple(sorted(w.params.items())), w.gauge_log_derivative)

    def grade(self, case, rec):
        code = rec[0]
        if code == 1:
            return _missed("exit 1: %s" % rec[1])
        if code == 2:
            if case.expect == "near-miss":
                return MATCHED
            return _wrong("no equivalence (%s) for a transformed seed"
                          % rec[1])
        _, kind, k, mobius, params, gauge_ld = rec
        i_in = to_normal_form(odeio.parse_ode(case.texts[0])).I
        i_back = to_normal_form(equivalence.transformed_seed_ode(
            kind, dict(params), mobius, k, -gauge_ld)).I
        if i_back != i_in:
            return _wrong("witness fails the invariant round trip")
        return MATCHED


class VerifyGiven(Workload):
    """``cmd_verify`` on caller-supplied solution texts.

    Per seed draw: both members of the exact pair, built from the drawing
    data with ``EquivalenceWitness`` + ``assemble`` (no search), and one
    control, y1 with a parameter moved by 1/10. Then both members of every
    solvable corpus entry. True members must exit 0 and controls 2. A
    member or control holding an unevaluated integral must exit 1, and so
    must a control whose move left a series undefined (an evaluation
    error, in the CLI's terms).
    """

    name = "verify-given"
    cold_start = ("from hyperode.cli import cmd_verify\n"
                  "cmd_verify(sys.argv[1], sys.argv[2])")

    def __init__(self, seeds=324):
        self.seeds = seeds

    def verdict(self, case, rec):
        """A traceback where exit 1 is expected is a miss, not wrong.

        Such a case holds an integral or an undefined series, so no
        verdict is due. The traceback still counts in ``failed`` and is
        listed by input; any other traceback is wrong.
        """
        if rec[0] == "raised" and case.expect == 1:
            return _missed("raised %s: %s, where exit 1 was expected"
                           % rec[1:])
        return super().verdict(case, rec)

    @staticmethod
    def _member(label, ode, expr):
        return Case(label, (ode, odeio.print_solution(expr)),
                    1 if has_integral(expr) else 0)

    @staticmethod
    def _control(label, ode, expr):
        bad = has_integral(expr) or has_undefined_series(expr)
        return Case(label, (ode, odeio.print_solution(expr)), 1 if bad else 2)

    def cold_case(self):
        row = next(r for r in frozen_corpus()
                   if r.get("expected_class") is not None)
        payload, _ = cli.cmd_solve(row["ode_text"])
        expr = odeio.parse_solution(payload["solutions"]["y1"])
        return self._member(row["id"] + "/y1", row["ode_text"], expr)

    def cases(self, seed):
        out = []
        for i, d in enumerate(draws(seed, self.seeds)):
            ode = d.ode()
            text = ode_text(ode)
            w = equivalence.EquivalenceWitness(d.kind, d.k, d.mobius,
                                               d.params, ode)
            pair = solutions.assemble(w)
            out.append(self._member("seed-%d/y1" % i, text, pair.y1))
            out.append(self._member("seed-%d/y2" % i, text, pair.y2))
            out.append(self._control("seed-%d/control" % i, text,
                                     shift_first_parameter(pair.y1)))
        for row in frozen_corpus():
            if row.get("expected_class") is None:
                continue
            payload, code = cli.cmd_solve(row["ode_text"])
            if code != 0:
                raise RuntimeError("corpus entry %s did not solve: %s"
                                   % (row["id"], payload))
            for member in ("y1", "y2"):
                expr = odeio.parse_solution(payload["solutions"][member])
                out.append(self._member("%s/%s" % (row["id"], member),
                                        row["ode_text"], expr))
        random.Random(seed).shuffle(out)
        return out

    def call(self, case):
        return cli.cmd_verify(*case.texts)

    def record(self, out):
        payload, code = out
        if "error" in payload:
            return (code, payload["error"]["type"],
                    payload["error"]["message"])
        return (code,)

    def grade(self, case, rec):
        code = rec[0]
        if code == case.expect:
            return MATCHED
        if code == 1 and rec[1] == "verification_impossible":
            return _missed(rec[2])
        if code == 1:
            return _wrong("%s: %s" % rec[1:])
        if code == 0 and case.expect == 2:
            return _false_pass("false PASS (expected exit 2)")
        if code == 0:
            return _wrong("exit 0 (expected exit %d)" % case.expect)
        if case.expect == 0:
            return _missed("false FAIL (expected exit 0)")
        return _wrong("exit 2 (expected exit %d)" % case.expect)


WORKLOADS = {w.name: w for w in (CorpusVerify(), SeedsSolve(), VerifyGiven())}
