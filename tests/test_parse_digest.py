"""The results of both parsers on a fixed text set, pinned by one digest.

A change meant to leave parsing as it is (a faster grammar, cheaper
actions) must leave this digest as it is. The texts are transformed-seed
equations, with integer and fractional powers k, the printed members of
their assembled solution pairs, a set of hand-written shapes, and
malformed or over-cap texts. Each text goes through ``parse_ode`` or
``parse_solution``; the repr of each result, or the type, message and
offset of each error, is hashed in order.

After a change that is meant to alter parse results, print the new
digest with ``python tests/test_parse_digest.py`` and store it in
``tests/data/parse_digest.sha256``.
"""

import hashlib
import random
from fractions import Fraction as F
from pathlib import Path

from hyperode.equivalence import EquivalenceWitness, transformed_seed_ode
from hyperode.errors import HyperodeError
from hyperode.odeio import parse_ode, parse_solution, print_solution
from hyperode.solutions import assemble

from test_acceptance import (
    _nondegenerate_params,
    _random_gauge,
    _random_mobius,
)
from test_witness_digest import ode_text

DIGEST_PATH = Path(__file__).resolve().parent / "data" / "parse_digest.sha256"
KINDS = ("2F1", "1F1", "0F1")
POWERS = (1, 2, 3, F(1, 2), F(2, 3), F(-1, 2))

# shapes the transformed seeds do not write
ODE_SHAPES = [
    "y'' + x*y = 0",
    "y'' = x*y",
    "x*(1-x)*y'' + (1/3 - 7/3*x)*y' - 2/9*y = 0",
    "x^2*y'' + x*y' + (x^2 - 1/4)*y = 0",
    "(1 - x^2)*y'' - 2*x*y' + 6*y = 0",
    "y'' - 2*x*y' + 4*y = 0",
    "y'' + (x^(1/2) + x^(-1/3))*y' + x^(5/6)/(x + 1)*y = 0",
    "y'' + (x^(1/2)+1)^(2)*y = 0",
    "y'' + (x^(-1/2)-x)^(-2)*y' + y = 0",
    "y'' + ((x+1)/(x+1))^(3000)*y = 0",
    "y'' + x^(-3)*(x^2 - 1)^2/(x - 1)*y = 0",
    "y'' + 7^(1400)*y = 0",
    "y'' + (2/3)^(-5)*x^2/(x^3 - 2/5*x + 1/7)*y = 0",
    "-(y'' + --x*y') = -y",
    "y''/(x + 1) + y/(x^2 - 1) = 0",
    "(x^2 + 1)*y'' + x*y'/(x - 1) + y*(x + 2)^2 = 0",
    "y'' + x^(1/2)*x^(1/2)*y' + (x^(1/3))^3*y = 0",
    "y'' + x^(2/4)*y' + x^(0/5)*x^(-0)*y = 0",
    "y'' + 1/%d*y = 0" % (2 ** 4096 - 1),
]

SOLUTION_SHAPES = [
    "1/(7^(1400))",
    "(2/3)^(-2584)",
    "((1+I)/2)^(5000)",
    "x^(3/2)*x^(-1/2)",
    "(x + 1)^(1/2)*(x + 1)^(1/2)",
    "(x + 1)/(x + 1)",
    "2*x*3/x^2/(1/2)",
    "-(-x)*(-1/2)*exp(x)*exp(-x)",
    "(x^2*exp(x))^(1/3)*(x^2*exp(x))^(2/3)",
    "((x + 1)^(-1))^(1/2)*((x + 1)^(-1))^(1/2)*(x + 1)^2",
    "hypergeom([1/2, -1/3], [5/4], 2*x^2/(x^2 - 1))",
    "hypergeom([], [-2], x)",
    "hypergeom([-1], [-3], x)",
    "LegendreQ(3/2+1/2*I, (1 - x)/2)",
    "exp(Int(1/x + 1/(x + 1)^(1/2), x))",
    "C1*x + C2*x^(-1) - 0*x + 3 - 3",
    "(1/2+1/3*I)*x/(2 - I)",
    "I^3*x^(1/2)/I",
    "0*(x + 1)^(-1/2)",
    "x^(0)*x^(-0)*(x^(1/2))^(-2)",
    "2^(1/2)*2^(1/2)*(-1)^(1/2)",
    "%d/%d" % (2 ** 4096 - 1, 2 ** 4095 + 1),
    # past 2^4096, yet short enough for the tokenizer
    str(2 ** 4096 + 1),
]

MALFORMED_ODES = [
    "",
    "y''",
    "y'' + y",
    "y' + y = 0",
    "y''' + y = 0",
    "y'' + 1 = 0",
    "x*y'' = 0*y''",
    "y'' + y^2 = 0",
    "y'' + y*y' = 0",
    "y'' + y/y' = 0",
    "y'' + 1.5*y = 0",
    "y'' + z*y = 0",
    "y'' + x^(1/0)*y = 0",
    "y'' + (x+1)^(1/2)*y = 0",
    "y'' + y/(x - x) = 0",
    "y'' + 0^(-1)*y = 0",
    "y'' + (x + * 1)*y = 0",
    "y'' + (x + 1*y = 0",
    "y'' + x*y = 0 )",
    "y'' + x @ y = 0",
    "y'' + x^65*y = 0",
    "y'' + x^(-65)*y = 0",
    "y'' + x^(130/2)*y' + y = 0",
    "y'' + x^(1/65)*y = 0",
    "y'' + (x^50 + x^(-50))/(x + 1)*y = 0",
    "y'' + (x^(1/64) + x^(1/63) + x^(1/61))/(x + 1)*y = 0",
    "y'' + (x^(1/64) + x^(1/63))^2*y = 0",
    "y'' + (x^(1/64) + x^(1/63))*y' + y = 0",
    "y'' + (x^40 + 1)*(x^30 + 1)*y = 0",
    "y'' + (x + 1)^(100000)*y = 0",
    "y'' + 7^(1500)*y = 0",
    "y'' + 7^(100000000)*y = 0",
    "y'' + 1/7^(1500)*y = 0",
    "y'' + 1/%d*y = 0" % (2 ** 4096 + 1),
    "y'' + " + "9" * 1300 + "*y = 0",
    "y'' + " + "(" * 101 + "x" + ")" * 101 + "*y = 0",
    "y'' + " + "-" * 101 + "x*y = 0",
]

MALFORMED_SOLUTIONS = [
    "",
    "1/0",
    "0^(-1)",
    "x^(1/2)/0^(1/2)",
    "(x - x)^(-1)",
    "1/(7^(1400)+I)",
    "(7^(1400)+I)^(-1)",
    "7^(1500)",
    "1/7^(1500)",
    "1/%d" % (2 ** 4096 + 1),
    "x/%d" % (2 ** 4096 + 1),
    "(1/2)^(4096)",
    "((1+I)/2)^(8194)",
    "(7*x)^(99999999999999)",
    "hypergeom([1, 2, 3], [1], x)",
    "hypergeom([x], [1], x)",
    "hypergeom([1], [1/2], x",
    "LegendreR(1, x)",
    "Int(x, t)",
    "exp x",
    "y",
    "1.5*x",
    "x^y",
    "x + ",
    "9" * 1300,
    "(" * 101 + "x" + ")" * 101,
]


def _instances():
    rng = random.Random(0x9A25E)
    for trial in range(120):
        kind = KINDS[trial % 3]
        params = _nondegenerate_params(rng, kind)
        m = _random_mobius(rng)
        k = POWERS[trial % len(POWERS)]
        gauge = _random_gauge(rng) if trial % 4 == 0 else None
        ode = transformed_seed_ode(kind, params, m, k, gauge)
        yield kind, params, m, k, ode


def _texts():
    """(parser, text) pairs in a fixed order."""
    for kind, params, m, k, ode in _instances():
        yield parse_ode, ode_text(ode)
        pair = assemble(EquivalenceWitness(kind, k, m, params, ode))
        yield parse_solution, print_solution(pair.y1)
        yield parse_solution, print_solution(pair.y2)
    for text in ODE_SHAPES + MALFORMED_ODES:
        yield parse_ode, text
    for text in SOLUTION_SHAPES + MALFORMED_SOLUTIONS:
        yield parse_solution, text


def _outcome(parse, text):
    try:
        return repr(parse(text))
    except HyperodeError as e:
        return "%s|%s|%r" % (type(e).__name__, e,
                             getattr(e, "position", None))


def parse_digest():
    h = hashlib.sha256()
    count = 0
    for parse, text in _texts():
        h.update(("%s\n%s\n" % (text, _outcome(parse, text))).encode())
        count += 1
    assert count == 120 * 3 + len(ODE_SHAPES) + len(MALFORMED_ODES) \
        + len(SOLUTION_SHAPES) + len(MALFORMED_SOLUTIONS)
    return h.hexdigest()


def test_parse_results_unchanged():
    assert parse_digest() == DIGEST_PATH.read_text().strip()


if __name__ == "__main__":
    print(parse_digest())
