"""Exact-stage work on a fixed input set, counted rather than timed.

The normal form cancels over d^2 with two gcds at most, the witness
compares only B, and integration reads simple-pole residues without an
extended gcd. A return to the operator forms gives the same answers, so
no other test sees it; it shows here as more poly_gcd or
_poly_inverse_mod calls during solve_equivalence over the bundled corpus
and criterion 5's first 60 instances.

Figures at the time of writing: 2195 poly_gcd and 18 _poly_inverse_mod
calls. The operator normal form alone read 2330 gcds, the full gauge
comparison alone 2309, and Hermite reduction at every factor 127
inverses. The bounds leave 55 gcds (2.5%) and 6 inverses of headroom.

The verify verb's exact work is counted on the texts of the same 80
equations. The RatFunc constructor certifies coprimality modulo a prime
before it reduces, so parse_ode calls poly_gcd 3 times, against 140
without the certificate. The singular-point search runs in x^g, so the
Durand-Kerner degrees sum to 171, against 340 in x. The bounds, 10 gcds
and a degree sum of 190, fail on a revert of either change.
"""

from itertools import islice

from hyperode import exactalg, invariants, numverify
from hyperode.cli import load_corpus
from hyperode.equivalence import solve_equivalence, transformed_seed_ode
from hyperode.errors import HyperodeError
from hyperode.odeio import parse_ode

from test_witness_digest import instance_draws, ode_text

GCD_BOUND = 2250
INVERSE_BOUND = 24
PARSE_GCD_BOUND = 10
ROOT_DEGREE_BOUND = 190


def _inputs():
    return ([parse_ode(e.ode_text) for e in load_corpus()]
            + [transformed_seed_ode(*draw)
               for draw in islice(instance_draws(), 60)])


def test_gcd_and_inverse_counts(monkeypatch):
    odes = _inputs()
    counts = {"poly_gcd": 0, "_poly_inverse_mod": 0}

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    gcd = counting("poly_gcd", exactalg.poly_gcd)
    for module in (exactalg, invariants):
        monkeypatch.setattr(module, "poly_gcd", gcd)
    monkeypatch.setattr(exactalg, "_poly_inverse_mod", counting(
        "_poly_inverse_mod", exactalg._poly_inverse_mod))
    solved = 0
    for ode in odes:
        try:
            solve_equivalence(ode)
            solved += 1
        except HyperodeError:
            pass
    assert (len(odes), solved) == (80, 78)
    assert counts["poly_gcd"] <= GCD_BOUND, counts
    assert counts["_poly_inverse_mod"] <= INVERSE_BOUND, counts


def test_parse_gcds_and_root_search_degrees(monkeypatch):
    texts = ([e.ode_text for e in load_corpus()]
             + [ode_text(transformed_seed_ode(*draw))
                for draw in islice(instance_draws(), 60)])
    gcds = []
    degrees = []

    def counted_gcd(*args):
        gcds.append(1)
        return gcd(*args)

    def counted_roots(coeffs):
        degrees.append(len(coeffs) - 1)
        return roots(coeffs)

    gcd, roots = exactalg.poly_gcd, numverify._poly_roots
    monkeypatch.setattr(exactalg, "poly_gcd", counted_gcd)
    odes = [parse_ode(t) for t in texts]
    monkeypatch.undo()
    monkeypatch.setattr(numverify, "_poly_roots", counted_roots)
    for ode in odes:
        numverify._singular_points(ode)
    assert len(odes) == len(degrees) == 80
    assert len(gcds) <= PARSE_GCD_BOUND, len(gcds)
    assert sum(degrees) <= ROOT_DEGREE_BOUND, sum(degrees)
