import json
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from hyperode.classifier import (
    ClassCandidate,
    classify,
    expand_table1,
    profile,
)
from hyperode.cli import cmd_classify
from hyperode.exactalg import Poly, RatFunc
from hyperode.invariants import Mobius, transform_invariant


def rf(num, den):
    return RatFunc(Poly(tuple(Fr(c) for c in num)),
                   Poly(tuple(Fr(c) for c in den)))


# Expanded case inventories, frozen from a by-hand expansion of the
# star notation. Counts double-checked against the published totals.
EXPECTED_2F1 = {
    (2, (2, 2, 2)), (1, (2, 2, 2)), (1, (2, 2, 1)),
    (0, (2, 2, 2)), (0, (2, 2, 1)), (0, (2, 2, 0)), (0, (2, 1, 1)),
    (2, (2, 2)), (1, (2, 2)), (1, (2, 1)),
    (0, (2, 2)), (0, (2, 1)), (0, (2, 0)), (0, (1, 1)),
}
EXPECTED_1F1 = {
    (2, (4, 2)), (1, (4, 1)), (0, (4, 0)),
    (2, (6,)), (1, (6,)), (0, (6,)),
    (2, (4,)), (1, (4,)), (0, (4,)),
    (2, (2,)), (1, (1,)), (0, (0,)),
    (2, (0,)),
}
EXPECTED_0F1 = {
    (1, (3, 2)), (0, (3, 1)),
    (1, (5,)), (0, (5,)),
    (1, (3,)), (0, (3,)),
    (1, (2,)), (0, (1,)),
    (1, (0,)),
}


class TestTableExpansion:
    def test_counts(self):
        table = expand_table1()
        assert len(table["2F1"]) == 14
        assert len(table["1F1"]) == 13
        assert len(table["0F1"]) == 9

    def test_gauss_cases(self):
        assert set(expand_table1()["2F1"]) == EXPECTED_2F1

    def test_confluent_cases(self):
        assert set(expand_table1()["1F1"]) == EXPECTED_1F1

    def test_limit_cases(self):
        assert set(expand_table1()["0F1"]) == EXPECTED_0F1

    def test_format(self):
        # a case symbol (p, (q1, ...)) reaches users as [p, [q1, ...]]
        worked = ("y'' = ((1/3*x^2 - 3*x^4 - 8/3)/(x^5 - x))*y'"
                  " + (19/12/(x^6 - x^2))*y")
        payload, _ = cmd_classify(worked)
        assert json.dumps(payload["candidates"][0]["case"]) == \
            "[2, [2, 2, 2]]"
        payload, _ = cmd_classify("y'' + x*y = 0")
        assert [c["case"] for c in payload["candidates"]] == [[2, [2]],
                                                              [1, [2]]]


class TestProfile:
    def test_three_double_points(self):
        # reduced invariant of the running example at nu=1/2, mu=1/3
        i0 = rf([14, -5, -73], [0, 0, 72, 0, -144, 0, 72])
        pr = profile(i0)
        assert pr.numerator_degree == 2
        assert pr.denominator_signature == (2, 2, 2)
        assert pr.finite_points == ((Fr(-1), 2), (Fr(0), 2), (Fr(1), 2))
        assert pr.point_at_infinity_order == 4
        assert not pr.has_irrational_points

    def test_single_double_point(self):
        i0 = rf([-2, -1, -1], [0, 0, 9])
        pr = profile(i0)
        assert pr.numerator_degree == 2
        assert pr.denominator_signature == (2,)
        assert pr.finite_points == ((Fr(0), 2),)
        assert pr.point_at_infinity_order == 0

    def test_polynomial_invariant(self):
        pr = profile(RatFunc.x())
        assert pr.numerator_degree == 1
        assert pr.denominator_signature == ()
        assert pr.finite_points == ()
        assert pr.point_at_infinity_order == -1

    def test_zero_invariant(self):
        pr = profile(rf([0], [1]))
        assert pr.numerator_degree == -1
        assert pr.denominator_signature == ()

    def test_irrational_points_flagged(self):
        # double pole at each root of x^2 - 2
        den = (Poly((Fr(-2), Fr(0), Fr(1)))) ** 2
        pr = profile(RatFunc(Poly.const(Fr(1)), den))
        assert pr.has_irrational_points
        assert pr.denominator_signature == (2, 2)
        assert pr.finite_points == ()

    def test_mixed_rational_and_irrational(self):
        den = Poly((Fr(0), Fr(1))) * Poly((Fr(-2), Fr(0), Fr(1)))
        pr = profile(RatFunc(Poly.const(Fr(1)), den))
        assert pr.denominator_signature == (1, 1, 1)
        assert pr.finite_points == ((Fr(0), 1),)
        assert pr.has_irrational_points

    def test_scaling_invariance(self):
        i0 = rf([14, -5, -73], [0, 0, 72, 0, -144, 0, 72])
        scaled = i0 * RatFunc.const(Fr(7, 3))
        a, b = profile(i0), profile(scaled)
        assert a.denominator_signature == b.denominator_signature
        assert a.numerator_degree == b.numerator_degree
        assert a.finite_points == b.finite_points


class TestClassify:
    def test_full_gauss_profile(self):
        i0 = rf([14, -5, -73], [0, 0, 72, 0, -144, 0, 72])
        cands = classify(profile(i0))
        assert cands == [ClassCandidate("2F1", (2, (2, 2, 2)))]

    def test_confluent_profile(self):
        cands = classify(profile(rf([-2, -1, -1], [0, 0, 9])))
        assert [c.class_kind for c in cands] == ["1F1"]
        assert cands[0].matched_case == (2, (2,))

    def test_limit_profile(self):
        cands = classify(profile(RatFunc.x()))
        assert ClassCandidate("0F1", (1, (0,))) in cands
        assert cands[-1] == ClassCandidate("0F1", (1, (0,)))

    def test_degree_dropped_below_case(self):
        # image of infinity on a numerator root: single pole keeps its
        # order while the numerator degree falls below the case value
        i0 = rf([-1], [0, 0, -1, 3, -3, 1])   # -1/(x^2 (x-1)^3)
        cands = classify(profile(i0))
        assert ClassCandidate("0F1", (1, (3, 2))) in cands

    def test_zero_invariant_matches_nothing(self):
        assert classify(profile(rf([0], [1]))) == []

    def test_out_of_table(self):
        num = Poly((Fr(0), Fr(0), Fr(0), Fr(1)))
        den = Poly((Fr(-2), Fr(1))) ** 7
        assert classify(profile(RatFunc(num, den))) == []

    def test_underdetermined_double_point(self):
        # constant-over-x^2 invariant: single visible double point
        cands = classify(profile(rf([3], [0, 0, 4])))
        assert cands and cands[0].class_kind == "2F1"

    def test_candidate_order(self):
        # a profile matched by several classes reports them 2F1 first
        i0 = rf([1], [0, 0, 1])          # p=0, signature [2]
        kinds = [c.class_kind for c in classify(profile(i0))]
        assert kinds == sorted(kinds, key=("2F1", "1F1", "0F1").index)

    def test_irrational_points_still_classified(self):
        den = (Poly((Fr(-2), Fr(0), Fr(1)))) ** 2
        num = Poly((Fr(0), Fr(0), Fr(1)))
        pr = profile(RatFunc(num, den))
        assert pr.has_irrational_points
        cands = classify(pr)
        assert [c.class_kind for c in cands] == ["2F1"]


def seed_invariant_2F1(lam, mu, kap):
    x2 = rf([0, 0, 1], [1])
    xm12 = rf([1, -2, 1], [1])
    xxm1 = rf([0, -1, 1], [1])
    return (RatFunc.const(Fr(lam * lam - 1, 4)) / x2
            + RatFunc.const(Fr(mu * mu - 1, 4)) / xm12
            + RatFunc.const(Fr(1 + kap * kap - lam * lam - mu * mu, 4))
            / xxm1)


def seed_invariant_1F1(h, e):
    return rf([e, h, Fr(1, 4)], [0, 0, 1])


def seed_invariant_0F1(e):
    return rf([e, 1], [0, 0, 1])


small_rat = st.fractions(min_value=-4, max_value=4, max_denominator=6)
mobius_int = st.integers(min_value=-5, max_value=5)


def mobius_maps():
    quads = st.tuples(mobius_int, mobius_int, mobius_int, mobius_int)
    return (quads
            .filter(lambda q: q[0] * q[3] - q[1] * q[2] != 0)
            .map(lambda q: Mobius(Fr(q[0]), Fr(q[1]), Fr(q[2]), Fr(q[3]))))


class TestSeedContainment:
    """A seed invariant pushed through any fractional linear map must
    keep its own class among the candidates."""

    @settings(max_examples=170, deadline=None)
    @given(small_rat, small_rat, small_rat, mobius_maps())
    def test_gauss(self, lam, mu, kap, mob):
        i_seed = seed_invariant_2F1(lam, mu, kap)
        if i_seed.is_zero:
            return
        moved = transform_invariant(i_seed, mob)
        kinds = {c.class_kind for c in classify(profile(moved))}
        assert "2F1" in kinds

    @settings(max_examples=170, deadline=None)
    @given(small_rat, small_rat, mobius_maps())
    def test_confluent(self, h, e, mob):
        moved = transform_invariant(seed_invariant_1F1(h, e), mob)
        kinds = {c.class_kind for c in classify(profile(moved))}
        assert "1F1" in kinds

    @settings(max_examples=170, deadline=None)
    @given(small_rat, mobius_maps())
    def test_limit(self, e, mob):
        moved = transform_invariant(seed_invariant_0F1(e), mob)
        kinds = {c.class_kind for c in classify(profile(moved))}
        assert "0F1" in kinds


class TestIdentityTransformFixedPoint:
    @settings(max_examples=40, deadline=None)
    @given(small_rat, small_rat, small_rat)
    def test_profile_stable_under_identity(self, lam, mu, kap):
        i_seed = seed_invariant_2F1(lam, mu, kap)
        if i_seed.is_zero:
            return
        moved = transform_invariant(i_seed, Mobius.identity())
        assert moved == i_seed
        assert profile(moved) == profile(i_seed)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
