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

The pull-back builds M(x^k) and its derivatives in closed form: on the
first 60 instances _pull_back calls poly_gcd 417 times, against 653 by
the derivative and quotient operators (reference.pull_back_reference);
the bound leaves 13 (3%) of headroom. A residual check prepares each
series once and grows one ratio table for it and one for its Pfaff
twin, however many points it sums. The two members of a solve --verify
share one build of the equation side: over the corpus, 18 builds for 18
solves that reach sampling, against 35 with one build per member.
"""

from itertools import islice

from hyperode import exactalg, invariants, numverify
from hyperode.cli import cmd_solve, load_corpus
from hyperode.equivalence import (
    _pull_back,
    seed_ode,
    solve_equivalence,
    transformed_seed_ode,
)
from hyperode.errors import HyperodeError
from hyperode.odeio import has_integral, parse_ode
from hyperode.solutions import assemble

from reference import pull_back_reference
from test_witness_digest import instance_draws, ode_text

GCD_BOUND = 2250
INVERSE_BOUND = 24
PARSE_GCD_BOUND = 10
ROOT_DEGREE_BOUND = 190
PULL_BACK_GCD_BOUND = 430


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


def test_pull_back_gcds(monkeypatch):
    draws = list(islice(instance_draws(), 60))
    counts = []

    def counted(*args):
        counts.append(1)
        return gcd(*args)

    gcd = exactalg.poly_gcd
    monkeypatch.setattr(exactalg, "poly_gcd", counted)
    for pull_back in (_pull_back, pull_back_reference):
        del counts[:]
        for kind, params, mobius, k, _ in draws:
            pull_back(seed_ode(kind, params), mobius, k)
        if pull_back is _pull_back:
            closed = len(counts)
    assert closed <= PULL_BACK_GCD_BOUND < len(counts), (closed, len(counts))


def test_one_ratio_table_per_series(monkeypatch):
    members = []
    for ode in _inputs()[:40]:
        try:
            pair = assemble(solve_equivalence(ode))
        except HyperodeError:
            continue
        members += [(ode, s) for s in (pair.y1, pair.y2)
                    if not has_integral(s)]
    prepared = []
    started = []
    evals = []

    def counted_series(*args):
        prepared.append(args)
        return prepare(*args)

    def counted_ratios(series, n):
        if not (series.ratios or series.ended):
            started.append(series)
        return ratios(series, n)

    def counted_jet(series, z):
        evals.append(series)
        return series_jet(series, z)

    prepare, ratios = numverify._series, numverify._ratios
    series_jet = numverify._series_jet
    monkeypatch.setattr(numverify, "_series", counted_series)
    monkeypatch.setattr(numverify, "_ratios", counted_ratios)
    monkeypatch.setattr(numverify, "_series_jet", counted_jet)
    tables = sums = 0
    for ode, s in members:
        del prepared[:], started[:], evals[:]
        try:
            numverify.residual_check(ode, s, 8)
        except HyperodeError:
            continue
        # a series and its Pfaff twin, each started once
        assert len(set(map(id, started))) == len(started)
        assert len(started) <= 2 * len(prepared)
        tables += len(started)
        sums += len(evals)
    # 63 tables served 472 sums when this was written; a table per point
    # would make the two counts equal
    assert len(members) > 50 and sums > 4 * tables, (tables, sums)


def test_one_equation_side_per_solve(monkeypatch):
    builds = []

    def counted(ode):
        builds.append(ode)
        return singular_points(ode)

    singular_points = numverify._singular_points
    monkeypatch.setattr(numverify, "_singular_points", counted)
    verified = 0
    for entry in load_corpus():
        payload, _ = cmd_solve(entry.ode_text, verify=True)
        verified += "residuals" in payload
    assert len(builds) <= verified == 18, (len(builds), verified)
