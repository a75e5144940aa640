"""Checks of the benchmark's own machinery, on small input pools.

    python3 -m pytest perfbench -q

They cover the seeded generator, the traced-run wiring (every span fires
on each workload whose end-to-end numbers README.md says it moves, and
stays silent where it says it must), exact repetition of the counts, and
the metric names BENCHMARK.json declares.
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from hyperode import cli, equivalence, exactalg  # noqa: E402

SMALL = {
    "corpus-verify": workloads.CorpusVerify(),
    "seeds-solve": workloads.SeedsSolve(seeds=8),
    "verify-given": workloads.VerifyGiven(seeds=3),
}

EXACT_KERNEL = ["exactalg.poly_mul", "exactalg.poly_divmod",
                "exactalg.poly_gcd", "exactalg.ratfunc_new",
                "exactalg.compose", "exactalg.factor_roots"]
SEARCH = ["invariants.normal_form", "invariants.power_min",
          "invariants.transform", "classifier.profile",
          "classifier.classify", "equivalence.solve", "equivalence.resolve",
          "equivalence.witness", "equivalence.gauge"]
ORACLE = ["numverify.check", "numverify.series_evals",
          "numverify.series_terms"]

MUST_FIRE = {
    "seeds-solve": EXACT_KERNEL + SEARCH,
    "corpus-verify": SEARCH + ORACLE + [
        "solutions.assemble", "odeio.parse", "odeio.render", "cli.command"],
    "verify-given": ORACLE + ["odeio.differentiate", "odeio.parse",
                              "cli.command"],
}
MUST_STAY_SILENT = {
    "seeds-solve": ORACLE + ["odeio.differentiate", "cli.command"],
    "verify-given": ["equivalence.solve", "equivalence.resolve",
                     "equivalence.witness", "classifier.classify"],
}


def _fired(trace, name):
    return trace.calls[name] + trace.counts[name]


def _traced_pass(wl, cases):
    with tracer.Trace() as trace:
        loop = run.closed_loop(wl, cases, 0)
    return trace, loop


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


def test_inputs_are_seeded_text():
    for wl in SMALL.values():
        first = wl.cases(3)
        assert first == wl.cases(3)
        assert first != wl.cases(4)
        assert all(isinstance(t, str) for c in first for t in c.texts)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_spans_fire_where_expected(name):
    wl = SMALL[name]
    cases = wl.cases(5)
    trace, loop = _traced_pass(wl, cases)
    fired = {s for s in MUST_FIRE[name] if _fired(trace, s)}
    assert fired == set(MUST_FIRE[name])
    for span in MUST_STAY_SILENT.get(name, ()):
        assert _fired(trace, span) == 0, span
    assert run.Grading().add(wl, cases, loop.outcomes).wrong == 0


def test_counts_repeat_exactly():
    wl = SMALL["seeds-solve"]
    cases = wl.cases(9)
    counts = []
    for _ in range(2):
        trace, loop = _traced_pass(wl, cases)
        counts.append({k: v for k, (v, unit) in
                       trace.metrics(loop.calls, 1.0).items()
                       if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["equivalence.witness_builds_per_solve"] > 1


def test_closed_loop_calls_every_case_equally_often():
    wl = SMALL["seeds-solve"]
    cases = wl.cases(2)[:4]
    loop = run.closed_loop(wl, cases, 1e-9)
    assert loop.passes == 1
    assert [len(r) for r in loop.ref] == [1] * len(cases)
    assert sum(loop.outcomes.values()) == loop.calls == len(cases)


def test_control_on_an_undefined_series_expects_an_evaluation_error():
    ode = "y'' + (1)*y' + (1)*y = 0"
    undefined = workloads.odeio.parse_solution("hypergeom([], [-1/10], x)")
    moved = workloads.shift_first_parameter(undefined)
    assert workloads.has_undefined_series(moved)
    assert workloads.VerifyGiven._control("c", ode, moved).expect == 1
    defined = workloads.odeio.parse_solution("hypergeom([1/3], [1/2], x)")
    moved = workloads.shift_first_parameter(defined)
    assert not workloads.has_undefined_series(moved)
    assert workloads.VerifyGiven._control("c", ode, moved).expect == 2


def test_traceback_is_wrong_unless_an_evaluation_error_is_expected():
    wl = workloads.VerifyGiven()
    rec = wl.crash_record(ZeroDivisionError("Fraction(1, 0)"))
    for expect, wrong in ((1, False), (0, True), (2, True)):
        v = wl.verdict(workloads.Case("c", ("", ""), expect), rec)
        assert not v.matched and v.wrong is wrong
    v = SMALL["seeds-solve"].verdict(workloads.Case("c", ("",), "witness"),
                                     rec)
    assert not v.matched and v.wrong


def test_a_rare_false_pass_is_a_miss_and_many_make_a_run_incorrect():
    wl = workloads.VerifyGiven()
    cases = [workloads.Case("c%d" % i, ("", ""), 2) for i in range(200)]
    v = wl.verdict(cases[0], (0,))
    assert not v.matched and not v.wrong and v.false_pass
    member = workloads.Case("m", ("", ""), 1)
    assert wl.verdict(member, (0,)).wrong
    outcomes = Counter({(0, (0,)): 1})
    outcomes.update({(i, (2,)): 1 for i in range(1, 200)})
    g = run.Grading().add(wl, cases, outcomes)
    assert (g.failed, g.false_passes, g.correct) == (1, 1, True)
    outcomes.update({(i, (0,)): 1 for i in range(1, 4)})
    g = run.Grading().add(wl, cases, outcomes)
    assert g.false_passes == 4 and not g.correct


def test_wrappers_cover_every_binding_and_come_off():
    mul = exactalg.Poly.__mul__
    solve = equivalence.solve_equivalence
    resolvers = dict(equivalence._RESOLVERS)
    with tracer.Trace():
        assert exactalg.Poly.__mul__ is not mul
        assert exactalg.Poly.__rmul__ is exactalg.Poly.__mul__
        assert cli.solve_equivalence is equivalence.solve_equivalence
        assert cli.solve_equivalence is not solve
        assert all(equivalence._RESOLVERS[k] is not f
                   for k, f in resolvers.items())
    assert exactalg.Poly.__mul__ is mul and exactalg.Poly.__rmul__ is mul
    assert cli.solve_equivalence is solve
    assert equivalence.solve_equivalence is solve
    assert equivalence._RESOLVERS == resolvers


def test_metric_names_match_benchmark_json():
    wl = SMALL["corpus-verify"]
    cases = wl.cases(1)
    metrics, _, g = run.end_to_end(wl, cases, 0)
    assert all(value > 0 for value, _, _ in metrics.values())
    assert list(metrics) == _declared("end_to_end")
    assert g.wrong == 0
    trace, loop = _traced_pass(wl, cases)
    assert list(trace.metrics(loop.calls, 1.0)) == _declared("per_layer")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "%s/run.py" % HERE.name, "--workload",
         "seeds-solve", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
