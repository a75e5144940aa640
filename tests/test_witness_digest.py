"""The solver's answers on a fixed instance set, pinned by one digest.

A change meant to leave every witness as it is (a refactor, a faster
kernel) must leave this digest as it is. The instances are criterion 5's
300 transformed seeds, drawn with that test's generator and seed, plus 60
with fractional powers k, whose coefficients carry x^(1/q). Each equation
goes through ``cmd_solve`` as text; the payloads, without their timing,
and the exit codes are hashed together.

After a change that is meant to alter witnesses, print the new digest
with ``python tests/test_witness_digest.py`` and store it in
``tests/data/witness_digest.sha256``.
"""

import hashlib
import json
import random
from fractions import Fraction as F
from pathlib import Path

from hyperode.cli import cmd_solve
from hyperode.equivalence import transformed_seed_ode
from hyperode.exactalg import GenRatFunc

from test_acceptance import (
    _nondegenerate_params,
    _random_gauge,
    _random_mobius,
)

DIGEST_PATH = Path(__file__).resolve().parent / "data" / "witness_digest.sha256"
KINDS = ("2F1", "1F1", "0F1")
FRACTIONAL_K = (F(1, 2), F(2, 3), F(3, 2), F(-1, 2))


def instance_draws():
    """(kind, params, mobius, k, gauge) of each digest instance, in order."""
    rng = random.Random(0xACCE55)
    for trial in range(300):
        kind = KINDS[trial % 3]
        params = _nondegenerate_params(rng, kind)
        m = _random_mobius(rng)
        k = rng.choice((1, 2, 3))
        gauge = _random_gauge(rng) if trial % 4 == 0 else None
        yield kind, params, m, k, gauge
    rng = random.Random(0xF4AC)
    for trial in range(60):
        kind = KINDS[trial % 3]
        params = _nondegenerate_params(rng, kind)
        m = _random_mobius(rng)
        k = FRACTIONAL_K[trial % 4]
        gauge = _random_gauge(rng) if trial % 5 == 0 else None
        yield kind, params, m, k, gauge


def _poly_text(p, step):
    """p(x^step) as text, step a Fraction; exponents stay rational."""
    parts = []
    for e in range(p.degree, -1, -1):
        c = F(p.coeff(e))
        if not c:
            continue
        q = e * step
        if not q:
            mono = ""
        elif q == 1:
            mono = "x"
        elif q.denominator == 1 and q > 0:
            mono = "x^%d" % q
        else:
            mono = "x^(%s)" % q
        if not mono:
            body = str(abs(c))
        else:
            body = mono if abs(c) == 1 else "%s*%s" % (abs(c), mono)
        if not parts:
            parts.append("-" + body if c < 0 else body)
        else:
            parts.append("%s %s" % ("-" if c < 0 else "+", body))
    return " ".join(parts) or "0"


def _coeff_text(f):
    step = F(1)
    if isinstance(f, GenRatFunc):
        f, step = f.fn, F(1, f.carrier)
    return "((%s)/(%s))" % (_poly_text(f.num, step), _poly_text(f.den, step))


def ode_text(ode):
    return "y'' + %s*y' + %s*y = 0" % (_coeff_text(ode.A), _coeff_text(ode.B))


def witness_digest():
    h = hashlib.sha256()
    count = 0
    for draw in instance_draws():
        payload, code = cmd_solve(ode_text(transformed_seed_ode(*draw)))
        payload.pop("timing_ms", None)
        h.update(json.dumps([payload, code], sort_keys=True).encode())
        h.update(b"\n")
        count += 1
    assert count == 360
    return h.hexdigest()


def test_witnesses_unchanged():
    assert witness_digest() == DIGEST_PATH.read_text().strip()


if __name__ == "__main__":
    print(witness_digest())
