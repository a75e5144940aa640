"""Command line behavior: verbs, exit codes, JSON schema stability."""

import json
import pathlib

import pytest

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
from hyperode.exactalg import degree_cap, set_degree_cap
from hyperode.odeio import parse_ode

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

    def test_deterministic_payload_without_timing(self):
        a, _ = cmd_solve(WORKED_ODE, verify=True)
        b, _ = cmd_solve(WORKED_ODE, verify=True)
        assert json.dumps(_no_timing(a), sort_keys=True) == \
            json.dumps(_no_timing(b), sort_keys=True)


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
        before = degree_cap()
        try:
            code = main(["--max-degree", "4", "solve", WORKED_ODE])
            assert code == 1
        finally:
            set_degree_cap(before)
        capsys.readouterr()

    def test_corpus_verb_prints_summary(self, capsys):
        code = main(["corpus"])
        text = capsys.readouterr().out
        assert code == 0
        assert "passed 20 of 20 entries" in text
