"""Resolvers, witnesses, and the full equivalence pipeline."""

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperode
from hyperode import equivalence
from hyperode.classifier import profile
from hyperode.errors import (
    IrrationalExponentDifference,
    NoEquivalence,
    UnsupportedParameterField,
    WitnessRejected,
)
from hyperode.exactalg import GaussRat, Poly, RatFunc
from hyperode.equivalence import (
    PARAMETER_NAMES,
    EquivalenceWitness,
    double_pole_coefficient,
    exponent_difference_at,
    mobius_from_three_points,
    parameters_from_differences,
    resolve_0F1,
    resolve_1F1,
    resolve_2F1,
    seed_ode,
    solve_equivalence,
    transformed_seed_ode,
)
from hyperode.invariants import (
    INF,
    Mobius,
    to_normal_form,
    transform_invariant,
)
from hyperode.odeio import LinearODE, parse_ode, print_solution

from reference import (
    mobius_apply,
    pull_back_reference,
    seed_invariant,
    witness_rejects_reference,
)
from test_witness_digest import instance_draws


def rf(nums, dens=(1,)):
    return RatFunc(Poly(tuple(F(c) for c in nums)),
                   Poly(tuple(F(c) for c in dens)))


def _seed_invariant_2F1_reference(a, b, c):
    """Independent construction from the local exponent differences."""
    lam, mu, kap = 1 - c, a + b - c, a - b
    x = RatFunc(Poly.x())
    return (RatFunc.const((lam * lam - 1) / 4) / (x * x)
            + RatFunc.const((mu * mu - 1) / 4) / ((x - 1) * (x - 1))
            + RatFunc.const((1 + kap * kap - lam * lam - mu * mu) / 4)
            / (x * (x - 1)))


def _proved(i0, cand):
    """The invariant identity: the candidate's model invariant, moved by
    its map, is I0. Resolvers do not check it; the witness does."""
    kind, m, params = cand
    return transform_invariant(seed_invariant(kind, params), m) == i0


PARAMETER_NAMES = {"2F1": ("a", "b", "c"), "1F1": ("a", "c"), "0F1": ("c",)}


def _differences(a, b, c):
    """Exponent differences of the full model at 0, 1 and infinity."""
    return 1 - c, a + b - c, a - b


WORKED_ODE = ("y'' = ((1/3*x^2 - 3*x^4 - 8/3)/(x^5 - x))*y'"
              " + (19/12/(x^6 - x^2))*y")
WORKED_I0 = rf([14, -5, -73], [0, 0, 72, 0, -144, 0, 72])


class TestSeedEquations:
    def test_full_model_shape(self):
        ode = seed_ode("2F1", {"a": F(1), "b": F(2), "c": F(3)})
        # (x^2 - x) y'' + ((a+b+1) x - c) y' + ab y = 0
        assert ode.A == rf([-3, 4], [0, -1, 1])
        assert ode.B == rf([2], [0, -1, 1])

    def test_first_confluent_shape(self):
        ode = seed_ode("1F1", {"a": F(2), "c": F(5)})
        assert ode.A == rf([5, -1], [0, 1])
        assert ode.B == rf([-2], [0, 1])

    def test_doubly_confluent_shape(self):
        ode = seed_ode("0F1", {"c": F(2)})
        assert ode.A == rf([2], [0, 1])
        assert ode.B == rf([-1], [0, 1])
        assert to_normal_form(ode).I == rf([1], [0, 1])

    def test_missing_parameter_rejected(self):
        with pytest.raises(ValueError):
            seed_ode("2F1", {"a": F(1), "b": F(2)})

    @given(st.fractions(min_value=-4, max_value=4, max_denominator=3),
           st.fractions(min_value=-4, max_value=4, max_denominator=3),
           st.fractions(min_value=-4, max_value=4, max_denominator=3))
    @settings(max_examples=40)
    def test_full_model_invariant_reference(self, a, b, c):
        got = seed_invariant("2F1", {"a": a, "b": b, "c": c})
        assert got == _seed_invariant_2F1_reference(a, b, c)

    @given(st.fractions(min_value=-4, max_value=4, max_denominator=3),
           st.fractions(min_value=-4, max_value=4, max_denominator=3))
    @settings(max_examples=40)
    def test_first_confluent_invariant_reference(self, a, c):
        # I = 1/4 + h/x + e/x^2 with h = a - c/2, e = c(c-2)/4
        got = seed_invariant("1F1", {"a": a, "c": c})
        x = RatFunc(Poly.x())
        want = (RatFunc.const(F(1, 4)) + RatFunc.const(a - c / 2) / x
                + RatFunc.const(c * (c - 2) / 4) / (x * x))
        assert got == want

    @given(st.fractions(min_value=-4, max_value=4, max_denominator=3))
    @settings(max_examples=40)
    def test_doubly_confluent_invariant_reference(self, c):
        got = seed_invariant("0F1", {"c": c})
        x = RatFunc(Poly.x())
        want = RatFunc.const(1) / x + RatFunc.const(c * (c - 2) / 4) / (x * x)
        assert got == want

    def test_parameter_names(self):
        for kind, names in PARAMETER_NAMES.items():
            full = {n: F(1, 3) for n in names}
            seed_ode(kind, full)
            for name in names:
                with pytest.raises(ValueError, match="'%s'" % name):
                    seed_ode(kind, {n: v for n, v in full.items()
                                    if n != name})


_small = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_entry = st.one_of(
    st.just(F(0)), _small,
    st.builds(GaussRat, _small, _small.filter(bool)))
_POWERS = [F(n, d) * sign for n, d in ((1, 1), (2, 1), (3, 1), (1, 2),
                                       (2, 3), (3, 2)) for sign in (1, -1)]


class TestPullBack:
    @given(st.tuples(_entry, _entry, _entry, _entry).filter(
               lambda m: m[0] * m[3] - m[1] * m[2]),
           st.sampled_from(_POWERS), st.sampled_from(sorted(PARAMETER_NAMES)),
           st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_closed_form_equals_the_operators(self, entries, k, kind, rng):
        # Gaussian entries, c = 0 and d = 0 included; equal values have
        # equal parts, so == compares the canonical forms
        params = {name: F(rng.randint(-9, 9), rng.randint(1, 4))
                  for name in PARAMETER_NAMES[kind]}
        seed = seed_ode(kind, params)
        mobius = Mobius(*entries)
        arg, pulled = equivalence._pull_back(seed, mobius, k)
        want_arg, want = pull_back_reference(seed, mobius, k)
        assert arg == want_arg and type(arg) is type(want_arg)
        assert pulled.A == want.A and pulled.B == want.B
        assert type(pulled.A) is type(want.A)
        assert type(pulled.B) is type(want.B)


class TestExponentDifferences:
    def test_parameter_round_trip(self):
        back = parameters_from_differences(
            *_differences(F(1, 4), F(-1, 12), F(-1, 3)))
        assert back == {"a": F(1, 4), "b": F(-1, 12), "c": F(-1, 3)}

    def test_ordinary_double_root_gives_one(self):
        # no double pole at the point: indicial roots 0 and 1
        assert exponent_difference_at(rf([1], [0, 1]), F(0)) == 1
        assert exponent_difference_at(rf([1], [0, 1]), F(5)) == 1

    def test_worked_example_difference_at_zero(self):
        # c = -1/3 recovered from |1 - c| = 4/3
        assert exponent_difference_at(WORKED_I0, F(0)) == F(4, 3)

    def test_worked_example_other_points(self):
        assert exponent_difference_at(WORKED_I0, F(-1)) == F(1, 2)
        assert exponent_difference_at(WORKED_I0, F(1)) == F(1, 3)

    def test_legendre_instance_all_zero(self):
        ode = parse_ode("(x^2 - x)*y'' + (2*x - 1)*y' + 1/4*y = 0")
        i = to_normal_form(ode).I
        for point in (F(0), F(1), INF):
            assert exponent_difference_at(i, point) == 0

    def test_infinity_conventions(self):
        # degree gap 2: coefficient is the ratio of leading coefficients
        assert double_pole_coefficient(rf([3, 2], [0, 0, 0, 1]), INF) == 2
        # gap above 2: ordinary point
        assert double_pole_coefficient(rf([1], [0, 0, 0, 1]), INF) == 0
        assert exponent_difference_at(rf([1], [0, 0, 0, 1]), INF) == 1
        with pytest.raises(ValueError):
            double_pole_coefficient(rf([1, 1], [0, 1]), INF)

    def test_negative_discriminant(self):
        with pytest.raises(IrrationalExponentDifference):
            exponent_difference_at(rf([-3], [0, 0, 4]), F(0))

    def test_nonsquare_discriminant(self):
        with pytest.raises(IrrationalExponentDifference):
            exponent_difference_at(rf([1], [0, 0, 1]), F(0))

    def test_triple_pole_rejected(self):
        with pytest.raises(ValueError):
            double_pole_coefficient(rf([1], [0, 0, 0, 1]), F(0))


points = st.fractions(min_value=-8, max_value=8, max_denominator=4)


class TestMobiusFromThreePoints:
    @given(st.tuples(points, points, points).filter(
        lambda t: len({t[0], t[1], t[2]}) == 3))
    @settings(max_examples=60)
    def test_finite_triples(self, triple):
        t0, t1, tinf = triple
        m = mobius_from_three_points(t0, t1, tinf)
        assert mobius_apply(m, t0) == 0
        assert mobius_apply(m, t1) == 1
        assert mobius_apply(m, tinf) is INF

    @given(st.tuples(points, points).filter(lambda t: t[0] != t[1]))
    @settings(max_examples=30)
    def test_infinite_slots(self, pair):
        p, q = pair
        for t0, t1, tinf in ((INF, p, q), (p, INF, q), (p, q, INF)):
            m = mobius_from_three_points(t0, t1, tinf)
            assert mobius_apply(m, t0) == 0
            assert mobius_apply(m, t1) == 1
            assert mobius_apply(m, tinf) is INF


thetas = st.one_of(
    st.fractions(min_value=-8, max_value=8, max_denominator=4).filter(bool),
    st.builds(GaussRat, points,
              st.fractions(min_value=-8, max_value=8,
                           max_denominator=4).filter(bool)))


class TestScaleMobius:
    """The confluent resolvers print these maps without canonical
    scaling, so each placement of INF must give the entries of the map
    theta * (t - t_reg) / (t - t_irr) written out for that placement."""

    @staticmethod
    def by_placement(theta, t_irr, t_reg):
        if t_irr is INF:
            return theta, -theta * t_reg, F(0), F(1)
        if t_reg is INF:
            return F(0), theta, F(1), -t_irr
        return theta, -theta * t_reg, F(1), -t_irr

    @given(thetas, st.tuples(points, points).filter(lambda t: t[0] != t[1]))
    @settings(max_examples=60)
    def test_entries_for_each_placement_of_inf(self, theta, pair):
        p, q = pair
        for t_irr, t_reg in ((INF, p), (p, INF), (p, q)):
            m = equivalence._scale_mobius(theta, t_irr, t_reg)
            got = (m.a, m.b, m.c, m.d)
            want = self.by_placement(theta, t_irr, t_reg)
            assert got == want
            assert list(map(type, got)) == list(map(type, want))


class TestResolve2F1:
    def test_worked_example_first_witness(self):
        ws = list(resolve_2F1(WORKED_I0, profile(WORKED_I0)))
        assert ws
        _, m, params = ws[0]
        assert m == Mobius.from_ints(2, 0, 1, -1)
        assert params == {"a": F(1, 4), "b": F(-1, 12), "c": F(-1, 3)}
        assert _proved(WORKED_I0, ws[0])

    def test_euler_type_invisible_point(self):
        # poles {0, infinity} only; the third model point gets a fresh spot
        i0 = rf([3], [0, 0, 4])
        ws = list(resolve_2F1(i0, profile(i0)))
        assert ws
        _, m, params = ws[0]
        assert m == Mobius.from_ints(1, 0, 0, 1)
        assert params == {"a": F(1), "b": F(-1), "c": F(-1)}
        assert _proved(i0, ws[0])

    def test_two_visible_points_with_ordinary_infinity(self):
        i0 = RatFunc(Poly.const(F(-1)),
                     (Poly((F(-1), F(1))) * Poly((F(1), F(1)))) ** 2)
        ws = list(resolve_2F1(i0, profile(i0)))
        assert ws
        _, m, params = ws[0]
        assert m == Mobius.from_ints(1, 1, 0, 2)
        assert params == {"a": F(1), "b": F(0), "c": F(1)}
        assert _proved(i0, ws[0])

    def test_sign_symmetry_recovery(self):
        # normal form of the a=1, b=2, c=3 instance: parameters come back
        # as the nonnegative-difference representative
        i0 = seed_invariant("2F1", {"a": F(1), "b": F(2), "c": F(3)})
        ws = list(resolve_2F1(i0, profile(i0)))
        assert ws
        _, m, params = ws[0]
        assert m == Mobius.from_ints(1, 0, 0, 1)
        assert params == {"a": F(0), "b": F(-1), "c": F(-1)}
        assert _proved(i0, ws[0])
        shape = _differences(F(1), F(2), F(3))
        got = _differences(**params)
        assert [abs(d) for d in shape] == [abs(d) for d in got]

    def test_ordering_prefers_larger_differences(self):
        ws = list(resolve_2F1(WORKED_I0, profile(WORKED_I0)))
        # first assignment keeps 0 in place and uses the 4/3 difference there
        _, _, params = ws[0]
        assert 1 - params["c"] == F(4, 3)
        assert _proved(WORKED_I0, ws[0])

    @given(st.fractions(min_value=-3, max_value=3, max_denominator=2),
           st.fractions(min_value=-3, max_value=3, max_denominator=2),
           st.fractions(min_value=-3, max_value=3, max_denominator=2))
    @settings(max_examples=25, deadline=None)
    def test_witness_parameters_canonical(self, a, b, c):
        i0 = seed_invariant("2F1", {"a": a, "b": b, "c": c})
        pr = profile(i0)
        try:
            ws = list(resolve_2F1(i0, pr))
        except IrrationalExponentDifference:
            return
        for _, _, params in ws:
            assert params["a"] >= params["b"]


class TestResolve1F1:
    def test_cubic_drift_reduced_invariant(self):
        i0 = rf([-2, -1, -1], [0, 0, 9])
        ws = list(resolve_1F1(i0, profile(i0)))
        assert ws
        _, m, params = ws[0]
        assert params["c"] == F(4, 3)
        assert params["a"] == GaussRat(F(2, 3), F(1, 6))
        assert m == Mobius(GaussRat(0, F(2, 3)), GaussRat(0),
                           GaussRat(0), GaussRat(1))
        assert _proved(i0, ws[0])

    def test_seed_self_resolution(self):
        i0 = seed_invariant("1F1", {"a": F(1, 3), "c": F(3, 2)})
        ws = list(resolve_1F1(i0, profile(i0)))
        assert any(m == Mobius.from_ints(1, 0, 0, 1)
                   and params == {"a": F(1, 3), "c": F(3, 2)}
                   and _proved(i0, (kind, m, params))
                   for kind, m, params in ws)

    def test_scale_outside_gaussian_field(self):
        i0 = rf([3], [0, 0, 0, 0, 1])
        with pytest.raises(UnsupportedParameterField):
            list(resolve_1F1(i0, profile(i0)))

    def test_wrong_profile_returns_nothing(self):
        i0 = rf([1], [0, 0, 0, 1])  # pole order 3 is the other model
        assert list(resolve_1F1(i0, profile(i0))) == []


class TestResolve0F1:
    def test_identity_witness_first(self):
        i0 = rf([1], [0, 1])
        ws = list(resolve_0F1(i0, profile(i0)))
        assert [(m, params["c"]) for _, m, params in ws] == [
            (Mobius.from_ints(1, 0, 0, 1), F(2)),
            (Mobius.from_ints(1, 0, 0, 1), F(0)),
        ]
        assert all(_proved(i0, w) for w in ws)

    def test_airy_reduced_invariant(self):
        i0 = rf([-2, 1], [0, 0, 9])
        ws = list(resolve_0F1(i0, profile(i0)))
        assert ws
        _, m, params = ws[0]
        assert m == Mobius(F(1, 9), F(0), F(0), F(1))
        assert params == {"c": F(4, 3)}
        assert _proved(i0, ws[0])

    def test_finite_irregular_point(self):
        # image of the model under x -> 1/x: triple pole at 0
        i0 = seed_invariant("0F1", {"c": F(1, 2)})
        flipped = transform_invariant(i0, Mobius.from_ints(0, 1, 1, 0))
        ws = list(resolve_0F1(flipped, profile(flipped)))
        assert ws
        assert any(params["c"] == F(1, 2)
                   and _proved(flipped, (kind, m, params))
                   for kind, m, params in ws)

    def test_zero_scale_returns_nothing(self):
        i0 = rf([1], [0, 0, 1])
        assert list(resolve_0F1(i0, profile(i0))) == []


class TestWitness:
    def test_constructor_rejects_bad_candidate(self):
        ode = seed_ode("0F1", {"c": F(2)})
        with pytest.raises(WitnessRejected):
            EquivalenceWitness("0F1", 1, Mobius.from_ints(1, 0, 0, 1),
                               {"c": F(3)}, ode)

    def test_constructor_rejects_bad_candidate_under_optimize(self):
        # the exact check is not an assert, so -O keeps it
        script = textwrap.dedent("""
            import sys
            from fractions import Fraction as F
            from hyperode import (EquivalenceWitness, Mobius,
                                  WitnessRejected, parse_ode)
            assert False, "not reached under -O"
            try:
                EquivalenceWitness(
                    "2F1", 1, Mobius.from_ints(1, 0, 0, 1),
                    {"a": F(1), "b": F(2), "c": F(1, 3)},
                    parse_ode("y'' + x*y = 0"))
            except WitnessRejected:
                sys.exit(0)
            sys.exit(3)
            """)
        src = str(Path(hyperode.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-O", "-c", script],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr

    def test_rejection_parity_with_full_gauge_check(self):
        # the constructor compares B alone; the reference applies the
        # whole gauge and compares A too, so both must reject alike
        tenth = F(1, 10)
        cases = rejected = 0
        for n, (kind, params, m, k, gauge) in enumerate(instance_draws()):
            ode = transformed_seed_ode(kind, params, m, k, gauge)
            names = sorted(params)
            moved = dict(params)
            moved[names[n % len(names)]] += tenth
            entries = [m.a, m.b, m.c, m.d]
            entries[n % 4] += 1
            near = LinearODE(ode.A, ode.B + F(1, 7 + n % 5))
            candidates = [(ode, kind, k, m, params),
                          (ode, kind, k, m, moved),
                          (ode, kind, -F(k), m, params),
                          (near, kind, k, m, params)]
            if entries[0] * entries[3] - entries[1] * entries[2]:
                candidates.append((ode, kind, k, Mobius(*entries), params))
            for target, kind_, k_, m_, params_ in candidates:
                want = witness_rejects_reference(kind_, k_, m_, params_,
                                                 target)
                try:
                    EquivalenceWitness(kind_, k_, m_, params_, target)
                    got = False
                except WitnessRejected:
                    got = True
                assert got == want, (n, kind_, k_, m_, params_)
                cases += 1
                rejected += got
        # every true candidate passes, and most moved ones fail
        assert n + 1 <= cases - rejected < cases // 2

    def test_gauge_expression_worked_example(self):
        w = solve_equivalence(parse_ode(WORKED_ODE))
        assert print_solution(w.gauge) == \
            "x^(1/2)/((x + 1)^(1/4)*(x - 1)^(1/4))"

    def test_gauge_expression_cubic_drift(self):
        ode = LinearODE(rf([0]), rf([0, 1, 0, 0, 1]))
        w = solve_equivalence(ode)
        assert print_solution(w.gauge) == "x*exp((-1/3*I)*x^3)"

    def test_witness_repr_mentions_class(self):
        w = solve_equivalence(parse_ode("y'' + y = 0"))
        assert "0F1" in repr(w)


class TestSolveEquivalence:
    def test_worked_example(self):
        w = solve_equivalence(parse_ode(WORKED_ODE))
        assert w.class_kind == "2F1"
        assert w.k == 2
        assert w.mobius == Mobius.from_ints(2, 0, 1, -1)
        assert w.params == {"a": F(1, 4), "b": F(-1, 12), "c": F(-1, 3)}

    def test_cubic_drift_instance(self):
        w = solve_equivalence(LinearODE(rf([0]), rf([0, 1, 0, 0, 1])))
        assert w.class_kind == "1F1"
        assert w.k == 3
        assert w.params["c"] == F(4, 3)
        assert w.params["a"] == GaussRat(F(2, 3), F(1, 6))

    def test_euler_type(self):
        w = solve_equivalence(parse_ode("y'' = (3/4/x^2)*y"))
        assert w.class_kind == "2F1"
        assert w.k == 1
        assert w.params == {"a": F(1), "b": F(-1), "c": F(-1)}

    def test_airy(self):
        w = solve_equivalence(parse_ode("y'' = x*y"))
        assert (w.class_kind, w.k) == ("0F1", 3)
        assert w.mobius == Mobius(F(1, 9), F(0), F(0), F(1))
        assert w.params == {"c": F(4, 3)}

    def test_harmonic_oscillator(self):
        w = solve_equivalence(parse_ode("y'' + y = 0"))
        assert (w.class_kind, w.k) == ("0F1", 2)
        assert w.mobius == Mobius(F(-1, 4), F(0), F(0), F(1))
        assert w.params == {"c": F(3, 2)}

    def test_pure_quartic_potential(self):
        w = solve_equivalence(parse_ode("y'' = x^2*y"))
        assert (w.class_kind, w.k) == ("0F1", 4)
        assert w.params == {"c": F(5, 4)}

    def test_legendre_instance(self):
        ode = parse_ode("(x^2 - x)*y'' + (2*x - 1)*y' + 1/4*y = 0")
        w = solve_equivalence(ode)
        assert w.class_kind == "2F1"
        assert w.mobius == Mobius.from_ints(1, 0, 0, 1)
        assert w.params == {"a": F(1, 2), "b": F(1, 2), "c": F(1)}

    def test_integer_difference_instance(self):
        ode = parse_ode("2*y/9 + (2*x - 1)*y' + (x^2 - x)*y'' = 0")
        w = solve_equivalence(ode)
        assert w.params == {"a": F(2, 3), "b": F(1, 3), "c": F(1)}

    def test_bessel_third(self):
        ode = parse_ode("x^2*y'' + x*y' + (x^2 - 1/9)*y = 0")
        w = solve_equivalence(ode)
        assert (w.class_kind, w.k) == ("0F1", 2)
        assert w.mobius == Mobius(F(-1, 4), F(0), F(0), F(1))
        assert w.params == {"c": F(4, 3)}

    def test_fractional_power_input(self):
        ode = transformed_seed_ode("0F1", {"c": F(3)},
                                   Mobius.from_ints(1, 0, 0, 1), F(3, 2))
        assert ode.is_fractional
        w = solve_equivalence(ode)
        assert w.k == F(3, 2)
        assert w.params == {"c": F(3)}

    def test_zero_equation(self):
        with pytest.raises(NoEquivalence) as info:
            solve_equivalence(parse_ode("y'' = 0"))
        assert info.value.profile.numerator_degree == -1

    def test_irrational_singular_positions(self):
        ode = parse_ode(
            "y'' + 3/4/(x^4 - 2*x^3 - x^2 + 2*x + 1)*y = 0")
        with pytest.raises(NoEquivalence) as info:
            solve_equivalence(ode)
        assert info.value.profile.has_irrational_points
        assert info.value.profile.denominator_signature == (2, 2)

    def test_complex_local_exponents_reported(self):
        ode = parse_ode("y'' + 3/4/(x^4 + 2*x^2 + 1)*y = 0")
        with pytest.raises(IrrationalExponentDifference):
            solve_equivalence(ode)

    def test_a_rejected_candidate_gives_way_to_the_next(self, monkeypatch):
        ode = parse_ode("y'' + y = 0")
        wrong = ("0F1", Mobius.from_ints(1, 0, 0, 1), {"c": F(7, 3)})
        with pytest.raises(WitnessRejected):
            EquivalenceWitness("0F1", 2, wrong[1], wrong[2], ode)
        real = equivalence._RESOLVERS["0F1"]
        tried = []

        def wrong_first(i0, pr):
            for cand in chain([wrong], real(i0, pr)):
                tried.append(cand)
                yield cand

        monkeypatch.setitem(equivalence._RESOLVERS, "0F1", wrong_first)
        w = solve_equivalence(ode)
        assert tried[0] == wrong and len(tried) == 2
        assert (w.class_kind, w.k) == ("0F1", 2)
        assert w.mobius == Mobius(F(-1, 4), F(0), F(0), F(1))
        assert w.params == {"c": F(3, 2)}

    def test_gaussian_witness_survives_gauge(self):
        base = LinearODE(rf([0]), rf([0, 1, 0, 0, 1]))
        gauged = LinearODE(base.A + 2 * rf([1], [0, 1]),
                           base.B + rf([-1], [0, 0, 1])
                           + rf([1], [0, 0, 1]))
        w = solve_equivalence(gauged)
        assert w.class_kind == "1F1" and w.k == 3


def _random_gauge(rng):
    pole = rng.randint(-3, 3)
    res = F(rng.randint(-4, 4), rng.randint(1, 3))
    const = F(rng.randint(-2, 2))
    return (RatFunc(Poly.const(res), Poly((F(-pole), F(1))))
            + RatFunc(Poly.const(const)))


class TestRoundTrips:
    def test_random_round_trips(self):
        rng = random.Random(1118)
        kinds = ("2F1", "1F1", "0F1")
        for trial in range(45):
            kind = kinds[trial % 3]
            names = PARAMETER_NAMES[kind]
            params = {n: F(rng.randint(-12, 12), rng.randint(1, 4))
                      for n in names}
            while True:
                a, b, c, d = (rng.randint(-6, 6) for _ in range(4))
                if a * d - b * c:
                    break
            m = Mobius.from_ints(a, b, c, d)
            k = rng.choice((1, 2, 3))
            ode = transformed_seed_ode(kind, params, m, k,
                                       _random_gauge(rng))
            w = solve_equivalence(ode)
            # soundness was asserted by the constructor; double-check the
            # invariant identity through an independent route
            i_in = to_normal_form(ode).I
            i_w = to_normal_form(transformed_seed_ode(
                w.class_kind, w.params, w.mobius, w.k,
                -w.gauge_log_derivative)).I
            assert i_w == i_in

    def test_round_trip_with_negative_power(self):
        ode = transformed_seed_ode("0F1", {"c": F(5, 3)},
                                   Mobius.from_ints(2, 0, 0, 1), -2)
        w = solve_equivalence(ode)
        i_in = to_normal_form(ode).I
        assert to_normal_form(transformed_seed_ode(
            w.class_kind, w.params, w.mobius, w.k,
            -w.gauge_log_derivative)).I == i_in
