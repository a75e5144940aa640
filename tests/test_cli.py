"""Command line behavior: verbs, exit codes, JSON schema stability."""

import contextvars
import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hyperode
from hyperode import cli, equivalence
from hyperode.cli import (
    CorpusEntry,
    cmd_classify,
    cmd_corpus,
    cmd_solve,
    cmd_verify,
    load_corpus,
    main,
)
from hyperode.errors import CoefficientOverflow
from hyperode.exactalg import DEGREE_CAP, Poly, RatFunc
from hyperode.invariants import Mobius
from hyperode.odeio import parse_ode, print_solution, ratfunc_to_expr

from test_witness_digest import ode_text

WORKED_ODE = ("y'' = ((1/3*x^2 - 3*x^4 - 8/3)/(x^5 - x))*y'"
              " + (19/12/(x^6 - x^2))*y")
LEGENDRE_ODE = "y/4 + (2*x - 1)*y' + (x^2 - x)*y'' = 0"

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_corpus.json"


def _no_timing(payload):
    out = dict(payload)
    out.pop("timing_ms", None)
    return out


class TestSolve:
    def test_worked_example_witness_fields(self):
        payload, code = cmd_solve(WORKED_ODE)
        assert code == 0
        w = payload["witness"]
        assert w["class"] == "2F1"
        assert w["k"] == "2"
        assert w["mobius"] == ["2", "0", "1", "-1"]
        assert w["params"] == {"a": "1/4", "b": "-1/12", "c": "-1/3"}
        assert payload["solutions"]["integral_free"] is True
        assert payload["timing_ms"] < 2000.0

    def test_legendre_text_gives_legendre_pair(self):
        payload, code = cmd_solve(LEGENDRE_ODE)
        assert code == 0
        assert payload["witness"]["class"] == "2F1"
        assert payload["solutions"]["y1"] == "LegendreP(-1/2, 2*x - 1)"
        assert payload["solutions"]["y2"] == "LegendreQ(-1/2, 2*x - 1)"
        assert payload["solutions"]["integral_free"] is True

    def test_oscillatory_airy_is_zero_f_one(self):
        payload, code = cmd_solve("y'' + x*y = 0", verify=True)
        assert code == 0
        assert payload["witness"]["class"] == "0F1"
        assert "hypergeom([], [" in payload["solutions"]["y1"]
        assert payload["residuals"]["passes"] is True
        assert payload["residuals"]["y1"]["max_residual"] <= 1e-7

    def test_nonrational_coefficient_is_an_input_error(self):
        payload, code = cmd_solve("y'' + exp(x)*y = 0")
        assert code == 1
        assert payload["error"]["type"] == "invalid_input"

    def test_no_equivalence_exit_code(self):
        payload, code = cmd_solve("y'' = 0")
        assert code == 2
        assert payload["error"]["type"] == "no_equivalence"

    def test_classified_but_unresolved_is_no_equivalence(self):
        # the shifted Airy equation is classified as confluent, but no
        # candidate the resolvers read off becomes a witness
        payload, code = cmd_solve("y'' + (x-1)*y = 0")
        assert code == 2
        assert payload["error"] == {
            "type": "no_equivalence",
            "message": "no candidate assignment verified against the "
                       "reduced invariant"}

    def test_large_constant_coefficient_solves(self):
        # 7^1400 is under the coefficient cap; its square is not
        payload, code = cmd_solve("y'' + 7^(1400)*y = 0")
        assert code == 0
        assert payload["witness"]["class"] == "0F1"
        assert payload["witness"]["k"] == "2"

    def test_verify_flag_attaches_reports(self):
        payload, code = cmd_solve(WORKED_ODE, verify=True, n_points=6)
        assert code == 0
        for name in ("y1", "y2"):
            rep = payload["residuals"][name]
            assert rep["max_residual"] <= 1e-7
            assert len(rep["points"]) == 6

    def test_integral_member_is_skipped_not_failed(self):
        payload, code = cmd_solve("y'' = (3/4/x^2)*y", verify=True)
        assert code == 0
        assert payload["solutions"]["integral_free"] is False
        assert "skipped" in payload["residuals"]["y2"]
        assert payload["residuals"]["passes"] is True

    def test_member_refused_before_its_integral_is_skipped(self):
        # the gauge exp(Int(...)) of 1/(x^2 - 2) leaves Q(i), and each
        # member starts with the constant 10^400, beyond double range,
        # which the jet's walk meets before the integral
        ode = equivalence.transformed_seed_ode(
            "2F1", {"a": F(3), "b": F(5), "c": F(0)},
            Mobius(F(10) ** 400, F(0), F(0), F(1)), 1,
            RatFunc(Poly((F(1),)), Poly((F(-2), F(0), F(1)))))
        payload, code = cmd_solve(ode_text(ode), verify=True)
        assert code == 0
        for name in ("y1", "y2"):
            assert payload["solutions"][name].startswith("1" + "0" * 400)
        skipped = {"skipped": "contains an unevaluated integral"}
        assert payload["residuals"] == {"y1": skipped, "y2": skipped,
                                        "passes": True}

    def test_no_sample_points_is_no_verdict(self, capsys):
        # neither member holds an integral, so neither may be skipped
        code = main(["--json", "solve", "--verify", "--points", "0",
                     "y'' + x*y = 0"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["error"]["type"] == "verification_impossible"

    def test_deterministic_payload_without_timing(self):
        a, _ = cmd_solve(WORKED_ODE, verify=True)
        b, _ = cmd_solve(WORKED_ODE, verify=True)
        assert json.dumps(_no_timing(a), sort_keys=True) == \
            json.dumps(_no_timing(b), sort_keys=True)


A70_ODE = "y'' + (1 - 72*x)/(x*(1-x))*y' - 70/(x*(1-x))*y = 0"


class TestCancellingSeries:
    """Exact solutions whose series cancel in double precision."""

    @pytest.mark.parametrize("ode", [
        "y'' + 123456789012345678901234567890/98765432109876543210*x*y = 0",
        A70_ODE,
        "x*(1-x)*y'' + (7/3 - 51*x)*y' - 600*y = 0",
    ], ids=["scaled-airy", "a=70", "a=30"])
    def test_verify_passes(self, ode):
        payload, code = cmd_solve(ode, verify=True)
        assert code == 0
        assert payload["residuals"]["passes"] is True

    def test_moved_parameter_still_fails(self):
        # y1 of a = 70 is 2F1(70, 1; 1; x); move its first parameter
        payload, code = cmd_verify(A70_ODE, "hypergeom([701/10, 1], [1], x)")
        assert code == 2
        assert payload["passes"] is False


class TestClassify:
    def test_worked_example_candidates(self):
        payload, code = cmd_classify(WORKED_ODE)
        assert code == 0
        assert payload["k"] == "2"
        assert [c["class"] for c in payload["candidates"]] == ["2F1"]

    def test_trivial_invariant_note(self):
        payload, code = cmd_classify("y'' = 0")
        assert code == 0
        assert payload["candidates"] == []
        assert payload["note"] == "trivial invariant"

    def test_irrational_singularities_diagnostic(self):
        payload, code = cmd_classify("y'' = (1/(x^4 + 1))*y")
        assert code == 0
        assert payload["diagnostic"] == "IrrationalSingularities"

    def test_never_resolves(self):
        # candidates may exist even though resolution would fail
        payload, code = cmd_classify("y'' = ((x^2+1)^2/x^6)*y")
        assert code == 0
        assert "witness" not in payload

    def test_parse_error(self):
        payload, code = cmd_classify("y'' + + = 0")
        assert code == 1
        assert payload["error"]["type"] == "invalid_input"

    def test_corpus_matches_the_solve_reduction(self, monkeypatch):
        # classify and solve both reduce through reduce_ode, once each
        seen = []
        reduce_ode = equivalence.reduce_ode

        def recording(ode):
            seen.append(reduce_ode(ode))
            return seen[-1]

        monkeypatch.setattr(equivalence, "reduce_ode", recording)
        monkeypatch.setattr(cli, "reduce_ode", recording)
        for entry in load_corpus():
            seen.clear()
            payload, code = cmd_classify(entry.ode_text)
            assert code == 0 and len(seen) == 1, entry.id
            report, code = cmd_solve(entry.ode_text)
            assert len(seen) == 2, entry.id
            kinds = [c.class_kind for c in seen[1].candidates]
            assert payload["k"] == str(seen[1].k), entry.id
            assert [c["class"] for c in payload["candidates"]] == kinds
            if code == 0:
                assert report["witness"]["class"] in kinds, entry.id
                assert report["witness"]["k"] == payload["k"], entry.id


class TestVerify:
    def test_confirms_a_correct_solution(self):
        payload, code = cmd_verify(
            "y'' + y = 0",
            "C1*hypergeom([], [1/2], -x^2/4)"
            " + C2*x*hypergeom([], [3/2], -x^2/4)")
        assert code == 0
        assert payload["passes"] is True
        assert payload["residual_report"]["max_residual"] <= 1e-7

    def test_rejects_a_wrong_solution(self):
        payload, code = cmd_verify("y'' + y = 0",
                                   "hypergeom([], [1/2], -x^2/5)")
        assert code == 2
        assert payload["passes"] is False
        assert payload["residual_report"]["max_residual"] >= 1e-3

    def test_integral_solution_cannot_be_verified(self):
        payload, code = cmd_verify("y'' = 0", "Int(x, x)")
        assert code == 1
        assert payload["error"]["type"] == "verification_impossible"

    def test_number_past_the_cap_is_an_input_error(self):
        payload, code = cmd_verify("y'' = 0", str(2 ** 4096 + 1))
        assert code == 1
        assert payload["error"]["type"] == "invalid_input"

    def test_integral_over_another_variable_is_an_input_error(self):
        payload, code = cmd_verify("y'' = 0", "Int(1, t)")
        assert code == 1
        assert payload["error"]["type"] == "invalid_input"
        assert "'t'" in payload["error"]["message"]

    @pytest.mark.parametrize("solution", [
        "hypergeom([1/2, 1/3], [0], x)",
        "hypergeom([1/2], [0], x)",
        "hypergeom([], [0], x)",
        "x*hypergeom([], [-1], -x^2/4)",
    ])
    def test_undefined_series_cannot_be_verified(self, solution):
        # a lower parameter 0 (in y, or in y'' after two shifts by one)
        payload, code = cmd_verify("y'' + y = 0", solution)
        assert code == 1
        assert payload["error"]["type"] == "verification_impossible"

    @pytest.mark.parametrize("solution", ["3^(2584)*x", "(1/2)^(-4095)*x"])
    def test_constant_beyond_double_range_cannot_be_verified(self, solution):
        payload, code = cmd_verify("y'' = 0", solution)
        assert code == 1
        assert payload["error"]["type"] == "verification_impossible"
        assert "beyond double range" in payload["error"]["message"]

    def test_legendre_degree_whose_normalization_overflows(self):
        # Legendre's equation at degree 200: Gamma(201) in Q_200's
        # normalization is beyond double range, so the ratio comes from
        # lgamma; Q_200 is about 1e-70 at the points, and the relative
        # residual reads it at roundoff
        payload, code = cmd_solve(
            "x*(1-x)*y'' + (1-2*x)*y' + 40200*y = 0", verify=True)
        assert code == 0
        assert payload["witness"]["params"] == {
            "a": "201", "b": "-200", "c": "1"}
        res = payload["residuals"]
        assert res["passes"] is True
        assert res["y1"]["max_residual"] < 1e-12
        assert res["y2"]["max_residual"] < 1e-12

    @pytest.mark.parametrize("degree", ["-717/4", "-721/4"])
    def test_legendre_q_of_a_large_negative_degree_is_not_zero(self,
                                                               degree):
        # gamma(v + 1) underflows to zero here; Q_v must not vanish, or
        # every equation would pass it
        payload, code = cmd_verify("y'' = 0", "LegendreQ(%s, x)" % degree)
        assert code == 2
        assert payload["residual_report"]["max_residual"] > 0.5

    def test_legendre_function_of_a_constant_is_a_constant(self):
        # LegendreP(1/2, 1) = 1; its derivative rule has a pole at 1
        payload, code = cmd_verify("y'' = 0", "LegendreP(1/2, 1)")
        assert code == 0
        assert payload["residual_report"]["max_residual"] == 0.0

    def test_series_ending_before_its_lower_zero_verifies(self):
        # 1F1(-1; -1; x) = 1 + x; y' = 1F1(0; 0; x) = 1 and y'' = 0
        payload, code = cmd_verify("y'' = 0", "hypergeom([-1], [-1], x)")
        assert code == 0
        assert payload["residual_report"]["max_residual"] == 0.0

    def test_gauss_argument_outside_the_disc_gets_a_verdict(self):
        # -3x^2 - 5/2 leaves the disc |z| <= 0.8 at most sample points;
        # without Pfaff's z/(z-1) only 5 of 8 are admissible
        ode = ("y'' + (-67/3*x^4 - 869/45*x^2 - 35/36)/(x^5 + 2*x^3"
               " + 35/36*x)*y' + (200/3*x^2)/(x^4 + 2*x^2 + 35/36)*y = 0")
        member = "hypergeom([%s, -5/3], [7/10], -3*x^2 - 5/2)"
        payload, code = cmd_verify(ode, member % "-10")
        assert code == 0
        assert payload["passes"] is True
        payload, code = cmd_verify(ode, member % "-99/10")
        assert code == 2
        assert payload["passes"] is False

    def test_series_ended_by_b_keeps_its_value_outside_the_disc(self):
        # 2F1(1, -2; -3; -3x) = 1 - 2x + 3x^2; Pfaff's form differs from
        # it, so points with |3x| > 0.8 must not take that route
        payload, code = cmd_verify("y'' - 6/(3*x^2 - 2*x + 1)*y = 0",
                                   "hypergeom([1, -2], [-3], -3*x)")
        assert code == 0
        assert payload["passes"] is True

    def test_series_ending_before_its_lower_zero_can_fail(self):
        # 2F1(-2, 1; -2; x) = 1 + x + x^2, so y'' = 2 while 2*y'/(1+x) is not
        payload, code = cmd_verify("y'' = 2*y'/(1+x)",
                                   "hypergeom([-2, 1], [-2], x)")
        assert code == 2
        assert payload["passes"] is False


def _odd_prime_product(top):
    q = 1
    for p in range(3, top + 1, 2):
        if all(p % d for d in range(3, isqrt(p) + 1, 2)):
            q *= p
    return q


def _quadratic_with_smooth_discriminant(top):
    """x^2 - x + M with 1 - 4M divisible by every odd prime up to top.

    Modulo each of those primes the quadratic has a double root, so a
    root search that wants simple roots mod p must pass all of them.
    """
    q = _odd_prime_product(top)
    k = 1 if q % 4 == 3 else 3
    return "x^2 - x + %d" % ((1 + k * q) // 4)


class TestBoundedInput:
    @pytest.mark.parametrize("denominator, seconds", [
        # the product of the primes next to 10^18 and 3*10^18
        ("x^3 - 3000000000000000046000000000000000111", 1.0),
        # lcm(1, ..., 59), which has thousands of divisors
        ("x^3 - 9690712164777231700912800", 1.0),
        # a 4078-bit constant, just under the coefficient cap
        (_quadratic_with_smooth_discriminant(2879), 3.0),
        # 0 is a double root modulo each odd prime up to 2879, and each of
        # those primes must be passed at degree 63
        ("x^63 + x^2 + %d" % _odd_prime_product(2879), 1.0),
    ], ids=["two-large-primes", "many-divisors", "smooth-discriminant",
            "degree-63-double-root-mod-p"])
    def test_large_constant_in_a_denominator_ends_in_time(
            self, capsys, denominator, seconds):
        start = time.perf_counter()
        code = main(["--json", "solve", "y'' + 1/(%s)*y = 0" % denominator])
        elapsed = time.perf_counter() - start
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["error"]["type"] == "no_equivalence"
        assert elapsed < seconds

    @pytest.mark.parametrize("exponent", [10000, 100000])
    def test_huge_power_is_an_input_error(self, capsys, exponent):
        start = time.perf_counter()
        code = main(["--json", "solve", "y'' + 7^(%d)*y = 0" % exponent])
        elapsed = time.perf_counter() - start
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["error"]["type"] == "invalid_input"
        assert "cap of 4096 bits" in out["error"]["message"]
        assert elapsed < 1.0

    @pytest.mark.parametrize("solution", [
        "x + 7^(100000)", "(7*x)^(100000)", "x + (7+7*I)^(100000)"])
    def test_huge_power_in_a_solution_is_an_input_error(self, solution):
        start = time.perf_counter()
        payload, code = cmd_verify("y'' = 0", solution)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert payload["error"]["type"] == "invalid_input"

    def test_huge_literal_is_an_input_error(self):
        # longer than Python's int() accepts by default
        payload, code = cmd_solve("y'' + %s*y = 0" % ("7" * 5000))
        assert code == 1
        assert payload["error"]["type"] == "invalid_input"

    def test_zero_to_a_negative_power_is_an_input_error(self):
        payload, code = cmd_solve("y'' + 0^(-1)*y = 0")
        assert code == 1
        assert payload["error"]["type"] == "invalid_input"

    @pytest.mark.parametrize("solution", [
        "x/0", "x/(2-2)", "x*0^(-1)", "(0*x)^(-1)", "0^(-2)*x",
        "(0^(1/2)*x)^(-2)", "0^(-1/2)*x", "x + 0^(-1/3)", "(0*x)^(-1/2)"])
    def test_division_by_zero_in_a_solution_is_an_input_error(
            self, solution):
        payload, code = cmd_verify("y'' = 0", solution)
        assert code == 1
        assert payload["error"]["type"] == "invalid_input"
        assert "division by zero" in payload["error"]["message"]

    @pytest.mark.parametrize("solution", ["0^(1/2)*x", "x/(x-x)"])
    def test_zero_seen_only_at_the_points_is_no_verdict(self, solution):
        payload, code = cmd_verify("y'' = 0", solution)
        assert code == 1
        assert payload["error"]["type"] == "verification_impossible"

    @pytest.mark.parametrize("argv", [
        ["solve", "y'' + x^(1/0)*y = 0"],
        ["classify", "y'' + 2^(1/0)*y = 0"],
        ["verify", "y'' + x^(1/0)*y = 0", "x"],
        ["verify", "y'' = 0", "2^(1/0)"],
    ])
    def test_zero_exponent_denominator_is_an_input_error(self, capsys,
                                                         argv):
        code = main(["--json"] + argv)
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["error"]["type"] == "invalid_input"
        assert "zero denominator in an exponent" in out["error"]["message"]

    def test_overflow_while_solving_exits_one(self, monkeypatch):
        def overflow(ode):
            raise CoefficientOverflow(5000, 4096)
        monkeypatch.setattr(cli, "solve_equivalence", overflow)
        payload, code = cmd_solve("y'' + x*y = 0")
        assert code == 1
        assert payload["error"]["type"] == "coefficient_overflow"

    @pytest.mark.parametrize("depth", [250, 3000])
    @pytest.mark.parametrize("verb", ["solve", "verify"])
    def test_deep_nesting_is_a_parse_error(self, capsys, verb, depth):
        nested = "(" * depth + "x" + ")" * depth
        if verb == "solve":
            argv = ["--json", "solve", "y'' + %s*y = 0" % nested]
        else:
            argv = ["--json", "verify", "y'' = 0", nested]
        code = main(argv)
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["error"]["type"] == "invalid_input"
        assert "nested deeper" in out["error"]["message"]

    def test_long_unary_minus_chain_is_a_parse_error(self):
        payload, code = cmd_solve("y'' + x*%sx*y = 0" % ("-" * 3000))
        assert code == 1
        assert payload["error"]["type"] == "invalid_input"

    def test_overflow_while_assembling_exits_one(self):
        # the witness is found; substituting -x/9 into x^2001 overflows
        payload, code = cmd_solve("y'' + (-2000)/(x)*y' + (1/9)/(x)*y = 0")
        assert code == 1
        assert payload["error"]["type"] == "coefficient_overflow"

    @pytest.mark.parametrize("argv, code, kind", [
        (["verify", "y'' + 1/x^40*y' + 1/x^40*y = 0", "1"], 2, None),
        # the solver's own arithmetic refuses x^80 before any check
        (["solve", "--verify", "y'' + 1/x^40*y' + 1/x^40*y = 0"], 1,
         "degree_overflow"),
        (["--max-degree", "3", "verify", "y'' + 1/x^2*y' + 1/x^2*y = 0",
          "1"], 2, None),
        (["--max-degree", "3", "verify",
          "y'' + 1/(x^2 - 2)*y' + 1/(x^2 - 3)*y = 0", "1"], 2, None),
        (["--max-degree", "2", "solve", "--verify",
          "y'' + 1/x*y' + (x^2 - 1/9)/x^2*y = 0"], 0, None),
        # the lcm's coefficients pass double range: no verdict
        (["verify", "y'' + 1/(x - 10^200)*y' + 1/(x - 10^200 - 1)*y = 0",
          "1"], 1, "verification_impossible"),
    ], ids=["verify-pole-40", "solve-pole-40", "verify-cap-3-shared",
            "verify-cap-3-distinct", "solve-cap-2-bessel",
            "verify-lcm-past-double-range"])
    def test_singular_points_past_the_degree_cap(self, capsys, argv, code,
                                                 kind):
        # den A * den B may pass the cap when each denominator fits it
        assert main(["--json"] + argv) == code
        out = json.loads(capsys.readouterr().out)
        if kind:
            assert out["error"]["type"] == kind
        elif code == 0:
            assert out["residuals"]["passes"] is True
        else:
            assert out["passes"] is False
            assert len(out["residual_report"]["points"]) == 8

    @pytest.mark.parametrize("argv", [
        ["solve", "y'' + 3\u00b2*y = 0"],
        ["classify", "y'' + 3\u00b2*y = 0"],
        ["verify", "y'' + 3\u00b2*y = 0", "x"],
    ])
    def test_superscript_digit_is_a_parse_error(self, capsys, argv):
        code = main(argv)
        assert code == 1
        assert capsys.readouterr().out == (
            "error (invalid_input): unexpected character '\u00b2' "
            "(at offset 7)\n")
        code = main(["--json"] + argv)
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["error"]["type"] == "invalid_input"


_KIND_PARAMETERS = {"2F1": ("a", "b", "c"), "1F1": ("a", "c"), "0F1": ("c",)}
_HALF_INTEGERS = st.integers(-4000, 4000).map(lambda n: F(n, 2))


@st.composite
def _degenerate_models(draw):
    """A model with integer or half-integer parameters, pushed through a
    Mobius map with entries in [-6, 6] and a power k in 1..3."""
    kind = draw(st.sampled_from(sorted(_KIND_PARAMETERS)))
    params = {n: draw(_HALF_INTEGERS) for n in _KIND_PARAMETERS[kind]}
    entries = draw(st.tuples(*[st.integers(-6, 6)] * 4).filter(
        lambda m: m[0] * m[3] - m[1] * m[2]))
    return kind, params, entries, draw(st.integers(1, 3))


@settings(max_examples=150, deadline=None)
@given(_degenerate_models())
@example(("2F1", {"a": F(70), "b": F(1), "c": F(1)}, (1, 0, 0, 1), 1))
@example(("0F1", {"c": F(80)}, (1, 0, 0, 1), 1))
@example(("0F1", {"c": F(-2000)}, (-1, 0, 0, 9), 1))
def test_degenerate_models_never_raise(model):
    kind, params, entries, k = model
    ode = equivalence.transformed_seed_ode(
        kind, params, Mobius.from_ints(*entries), k)
    text = "y'' + (%s)*y' + (%s)*y = 0" % tuple(
        print_solution(ratfunc_to_expr(c)) for c in (ode.A, ode.B))
    assert parse_ode(text) == ode
    _, code = cmd_solve(text)
    assert code in (0, 1, 2)


_NUMBERS = st.sampled_from(["0", "1", "2", "1/3", "-1/3"])
_EXPONENTS = st.sampled_from(["2", "-1", "(-2)", "(1/2)", "(-1/3)", "0"])


def _operand(t):
    """t bare, parenthesized, or after a sign run, which puts a minus
    after an operator too."""
    return st.one_of(st.sampled_from(["(%s)" % t, t]),
                     st.sampled_from(["-", "+", "--", "-+"]).map(
                         lambda sign: sign + t))


def _solution_texts():
    """Solution texts over the grammar: numbers, x, I, the four operators,
    integer and fractional powers, parentheses, exp, the three series and
    both Legendre kinds. Operands are parenthesized, signed or bare at
    random, so precedence varies too."""
    def grow(sub):
        operand = sub.flatmap(_operand)
        return st.one_of(
            st.tuples(operand, st.sampled_from("+-*/"), operand).map(
                "".join),
            st.tuples(operand, _EXPONENTS).map("^".join),
            sub.map("exp(%s)".__mod__),
            st.tuples(_NUMBERS, _NUMBERS, _NUMBERS, sub).map(
                "hypergeom([%s, %s], [%s], %s)".__mod__),
            st.tuples(_NUMBERS, _NUMBERS, sub).map(
                "hypergeom([%s], [%s], %s)".__mod__),
            st.tuples(_NUMBERS, sub).map("hypergeom([], [%s], %s)".__mod__),
            st.tuples(st.sampled_from("PQ"), _NUMBERS, sub).map(
                "Legendre%s(%s, %s)".__mod__))
    return st.recursive(_NUMBERS | st.sampled_from(["x", "I"]), grow,
                        max_leaves=6)


@settings(max_examples=200, deadline=5000)
@given(st.sampled_from(["y'' = 0", "y'' + y = 0", "x*y'' + y' - x*y = 0"]),
       _solution_texts())
def test_verify_never_raises(ode_text, solution):
    _, code = cmd_verify(ode_text, solution)
    assert code in (0, 1, 2)


_ATOMS = st.sampled_from(
    ["0", "1", "2", "1/3", "x", "x^(1/2)", "x^(-1)", "(x-1)"])


def _expression_texts(leaves):
    """Texts over the leaves, + - * / ^, parentheses and sign runs."""
    def grow(sub):
        operand = sub.flatmap(_operand)
        return st.tuples(operand, st.sampled_from("+-*/^"), operand).map(
            "".join)
    return st.recursive(leaves, grow, max_leaves=5)


def _equation_texts():
    """Equations over the grammar: a linear form with coefficient texts,
    or two sides whose leaves include y, y' and y''."""
    coeff = _expression_texts(_ATOMS)
    linear = st.tuples(coeff, coeff, coeff).map(
        "(%s)*y'' + (%s)*y' + (%s)*y = 0".__mod__)
    side = _expression_texts(_ATOMS | st.sampled_from(["y", "y'", "y''"]))
    free = st.tuples(side, side).map(" = ".join)
    return linear | free


@settings(max_examples=300, deadline=2000)
@given(_equation_texts())
def test_solve_never_raises(ode_text):
    _, code = cmd_solve(ode_text)
    assert code in (0, 1, 2)


def test_module_entry_point_runs_the_cli():
    src = pathlib.Path(hyperode.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-m", "hyperode", "--json", "solve", "y'' + x*y = 0"],
        capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["witness"]["class"] == "0F1"


class TestHumanOutput:
    """The renderers behind main() without --json."""

    def test_classify(self, capsys):
        assert main(["classify", "y'' + x*y = 0"]) == 0
        assert capsys.readouterr().out == (
            "k = 3\n"
            "numerator degree: 1\n"
            "pole multiplicities: [2]\n"
            "order at infinity: 1\n"
            "candidates: 1F1, 0F1\n")

    def test_verify(self, capsys):
        assert main(["verify", "y'' = 0", "x"]) == 0
        assert capsys.readouterr().out == (
            "max residual: 0.000e+00 over 8 points\n"
            "verdict: pass\n")

    def test_solve_with_a_skipped_member(self, capsys):
        # the corpus entry euler-three-quarters: y2 is an integral
        assert main(["solve", "--verify", "y'' = (3/4/x^2)*y"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:7] == [
            "class: 2F1 with k = 1",
            "argument: x",
            "parameters: a = 1, b = -1, c = -1",
            "gauge: (x - 1)/(x^(1/2))",
            "y1 = (x - 1)*x^(3/2)*hypergeom([1, 3], [3], x)",
            "y2 = (x - 1)*x^(3/2)*hypergeom([1, 3], [3], x)"
            "*Int(1/(x^3*(x - 1)^2*hypergeom([1, 3], [3], x)^2), x)",
            "integral free: False",
        ]
        assert lines[7].startswith("residual y1: max ")
        assert lines[7].endswith(" over 8 points")
        assert lines[8:10] == [
            "residual y2: skipped (contains an unevaluated integral)",
            "verification: pass",
        ]
        assert lines[10].startswith("timing: ")
        assert len(lines) == 11

    def test_corpus_row_with_the_wrong_class(self, capsys, tmp_path):
        p = tmp_path / "corpus.jsonl"
        p.write_text(json.dumps(
            {"id": "bogus", "ode_text": "y'' + y = 0",
             "expected_class": "2F1"}) + "\n")
        assert main(["corpus", str(p)]) == 2
        assert capsys.readouterr().out == (
            "bogus                      FAIL  0F1  expected 2F1\n"
            "passed 0 of 1 entries; solved 0 of 1 marked solvable\n")


class TestCorpus:
    def test_bundled_entries_all_parse(self):
        entries = load_corpus()
        assert len(entries) == 20
        for entry in entries:
            parse_ode(entry.ode_text)

    def test_bundled_corpus_passes(self):
        payload, code = cmd_corpus()
        assert code == 0
        assert payload["total"] == 20
        assert payload["passed"] == 20
        rate = payload["solve_rate"]
        assert rate["solved"] == rate["marked_solvable"] == 18

    def test_entries_are_sorted_by_id(self):
        payload, _ = cmd_corpus()
        ids = [row["id"] for row in payload["entries"]]
        assert ids == sorted(ids)

    def test_class_mismatch_is_a_fail_with_both_classes(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        p.write_text(json.dumps(
            {"id": "bogus", "ode_text": "y'' + y = 0",
             "expected_class": "2F1"}) + "\n")
        payload, code = cmd_corpus(str(p))
        assert code == 2
        row = payload["entries"][0]
        assert row["status"] == "FAIL"
        assert row["expected_class"] == "2F1"
        assert row["got_class"] == "0F1"

    def test_empty_file_summarizes_zero_entries(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        p.write_text("")
        payload, code = cmd_corpus(str(p))
        assert code == 0
        assert payload["total"] == 0

    def test_unreadable_file_is_an_input_error(self, tmp_path):
        payload, code = cmd_corpus(str(tmp_path / "missing.jsonl"))
        assert code == 1
        assert payload["error"]["type"] == "invalid_corpus"

    @pytest.mark.parametrize("text, message", [
        ('{"id": "a", "ode_text": "y\'\' = 0"}\n[1, 2]\n',
         "line 2: a corpus row must be a JSON object"),
        ('"str"\n', "line 1: a corpus row must be a JSON object"),
        ('{"id": "x", "ode_text": 5}\n',
         "line 1: 'ode_text' must be a string"),
        ('{"id": "b", "ode_text": "y\'\' = 0"}\n\n'
         '{"id": 1, "ode_text": "y\'\' = 0"}\n',
         "line 3: 'id' must be a string"),
        ("[" * 100000 + "]" * 100000 + "\n",
         "line 1: maximum recursion depth exceeded"),
    ], ids=["list", "string", "numeric-ode-text", "mixed-ids", "deep"])
    def test_malformed_row_is_refused_naming_its_line(self, tmp_path, text,
                                                      message):
        p = tmp_path / "corpus.jsonl"
        p.write_text(text)
        payload, code = cmd_corpus(str(p))
        assert code == 1
        assert payload["error"]["type"] == "invalid_corpus"
        assert payload["error"]["message"].startswith(message)

    def test_each_failing_row_says_why(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        p.write_text("".join(json.dumps(row) + "\n" for row in [
            {"id": "witness", "ode_text": "y'' + x*y = 0"},
            {"id": "error", "ode_text": "not an equation"},
            {"id": "marked", "ode_text": "y'' = 0", "expected_class": "2F1"},
        ]))
        payload, code = cmd_corpus(str(p))
        assert code == 2
        assert payload["passed"] == 0
        assert payload["entries"] == [
            {"id": "error", "expected_class": None, "status": "FAIL",
             "note": "unknown symbol 'not' in an ODE (at offset 0)"},
            {"id": "marked", "expected_class": "2F1", "status": "FAIL",
             "note": "the reduced invariant matches no model singularity "
                     "case"},
            {"id": "witness", "expected_class": None, "status": "FAIL",
             "got_class": "0F1", "note": "unexpected witness"},
        ]

    def test_entry_parser_keeps_optional_fields(self):
        entry = CorpusEntry.from_json({"id": "a", "ode_text": "y'' = 0"})
        assert entry.expected_class is None
        assert entry.expected_integral_free is None

    def test_golden_solve_payloads(self):
        # schema stability gate: solve output for every bundled entry,
        # timing excluded, must match the recorded snapshot exactly
        golden = json.loads(GOLDEN.read_text())
        assert set(golden) == {e.id for e in load_corpus()}
        for entry in load_corpus():
            payload, code = cmd_solve(entry.ode_text)
            assert golden[entry.id]["exit_code"] == code, entry.id
            assert golden[entry.id]["payload"] == _no_timing(payload), \
                entry.id


class TestMain:
    def test_json_flag_emits_parseable_json(self, capsys):
        code = main(["--json", "solve", LEGENDRE_ODE])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["witness"]["class"] == "2F1"

    def test_human_output_mentions_class_and_pair(self, capsys):
        code = main(["solve", LEGENDRE_ODE, "--verify"])
        text = capsys.readouterr().out
        assert code == 0
        assert "class: 2F1" in text
        assert "LegendreQ(-1/2, 2*x - 1)" in text
        assert "verification: pass" in text

    def test_exit_codes_surface(self, capsys):
        assert main(["solve", "y'' = 0"]) == 2
        assert main(["solve", "not an equation"]) == 1
        capsys.readouterr()

    def test_max_degree_override(self, capsys):
        assert main(["--max-degree", "4", "solve", WORKED_ODE]) == 1
        # the cap held for that one command only
        assert DEGREE_CAP.get() == 64
        assert main(["solve", WORKED_ODE]) == 0
        capsys.readouterr()

    def test_a_cap_set_in_one_context_is_not_seen_in_another(self):
        def set_and_read(cap):
            DEGREE_CAP.set(cap)
            return DEGREE_CAP.get()

        assert contextvars.copy_context().run(set_and_read, 4) == 4
        assert contextvars.copy_context().run(DEGREE_CAP.get) == 64
        assert DEGREE_CAP.get() == 64

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_nonpositive_max_degree_is_an_input_error(self, capsys, cap):
        code = main(["--json", "--max-degree", cap, "solve",
                     "y'' + x*y = 0"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["error"]["type"] == "invalid_input"
        assert DEGREE_CAP.get() == 64

    def test_corpus_verb_prints_summary(self, capsys):
        code = main(["corpus"])
        text = capsys.readouterr().out
        assert code == 0
        assert "passed 20 of 20 entries" in text
