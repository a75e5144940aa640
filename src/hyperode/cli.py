"""Command line driver.

Four verbs: solve runs the full pipeline and prints the witness with
its solution pair, classify stops after the singularity fingerprint,
verify measures residuals of a caller-supplied solution, and corpus
replays a file of equations against recorded expectations. Every verb
supports --json for machine-readable output; the human format carries
the same information.

Exit codes are uniform: 0 for success, 1 for input or evaluation
errors, 2 when the answer is negative (no equivalence found, residual
gate failed, corpus expectations missed).
"""

import contextvars
import json
import sys
import time

from .equivalence import reduce_ode, solve_equivalence
from .errors import (
    CoefficientOverflow,
    DegreeOverflow,
    IrrationalExponentDifference,
    NoEquivalence,
    ParseError,
    SamplingFailed,
    UnsupportedEquation,
    UnsupportedParameterField,
)
from .exactalg import COEFF_BITS, DEGREE_CAP
from .numverify import residual_check
from .odeio import format_exact, has_integral, parse_ode, parse_solution, \
    print_solution, ratfunc_to_expr
from .solutions import assemble
from .values import Value, setfield

RESIDUAL_GATE = 1e-7

_NO_WITNESS = (NoEquivalence, IrrationalExponentDifference,
               UnsupportedParameterField)
_BAD_INPUT = (ParseError, UnsupportedEquation, DegreeOverflow,
              CoefficientOverflow)


class CorpusEntry(Value):
    """One recorded equation with the outcome the suite expects."""

    __slots__ = ("id", "ode_text", "expected_class", "expected_integral_free")

    def __init__(self, id, ode_text, expected_class=None,
                 expected_integral_free=None):
        setfield(self, "id", id)
        setfield(self, "ode_text", ode_text)
        setfield(self, "expected_class", expected_class)
        setfield(self, "expected_integral_free", expected_integral_free)

    @classmethod
    def from_json(cls, data):
        return cls(
            id=data["id"],
            ode_text=data["ode_text"],
            expected_class=data.get("expected_class"),
            expected_integral_free=data.get("expected_integral_free"),
        )


def _error_payload(kind, exc):
    return {"error": {"type": kind, "message": str(exc)}}


def _witness_json(w):
    return {
        "class": w.class_kind,
        "k": str(w.k),
        "mobius": [format_exact(v) for v in
                   (w.mobius.a, w.mobius.b, w.mobius.c, w.mobius.d)],
        "params": {name: format_exact(w.params[name])
                   for name in sorted(w.params)},
        "argument": print_solution(ratfunc_to_expr(w.argument)),
        "gauge": print_solution(w.gauge),
    }


def _residuals_json(ode, pair, n_points):
    out = {}
    worst = 0.0
    for name, s in (("y1", pair.y1), ("y2", pair.y2)):
        if has_integral(s):
            out[name] = {"skipped": "contains an unevaluated integral"}
            continue
        rep = residual_check(ode, s, n_points)
        out[name] = rep.to_json()
        worst = max(worst, rep.max_residual)
    out["passes"] = worst <= RESIDUAL_GATE
    return out


def cmd_solve(ode_text, verify=False, n_points=8):
    """Run the pipeline on one equation.

    Returns (payload, exit_code). The payload holds the witness, the
    solutions, the residuals under ``verify`` and the timing on success,
    and a structured diagnostic otherwise.
    """
    start = time.perf_counter()
    try:
        ode = parse_ode(ode_text)
    except _BAD_INPUT as e:
        return _error_payload("invalid_input", e), 1
    try:
        w = solve_equivalence(ode)
        pair = assemble(w)
    except _NO_WITNESS as e:
        return _error_payload("no_equivalence", e), 2
    except DegreeOverflow as e:
        return _error_payload("degree_overflow", e), 1
    except CoefficientOverflow as e:
        return _error_payload("coefficient_overflow", e), 1
    residuals = None
    if verify:
        try:
            residuals = _residuals_json(ode, pair, n_points)
        except SamplingFailed as e:
            return _error_payload("sampling_failed", e), 1
        except ValueError as e:
            return _error_payload("verification_impossible", e), 1
    payload = {
        "witness": _witness_json(w),
        "solutions": pair.to_json(),
        "timing_ms": (time.perf_counter() - start) * 1000.0,
    }
    code = 0
    if residuals is not None:
        payload["residuals"] = residuals
        if not residuals["passes"]:
            code = 2
    return payload, code


def _profile_json(pr):
    return {
        "numerator_degree": pr.numerator_degree,
        "pole_multiplicities": list(pr.denominator_signature),
        "finite_points": [[format_exact(loc), m]
                          for loc, m in pr.finite_points],
        "infinity_order": pr.point_at_infinity_order,
        "irrational_points": pr.has_irrational_points,
    }


def cmd_classify(ode_text):
    """Fingerprint one equation without attempting resolution."""
    try:
        red = reduce_ode(parse_ode(ode_text))
    except _BAD_INPUT as e:
        return _error_payload("invalid_input", e), 1
    pr = red.profile
    payload = {
        "k": str(red.k),
        "profile": _profile_json(pr),
        "candidates": [
            {"class": c.class_kind,
             "case": [c.matched_case[0], list(c.matched_case[1])]}
            for c in red.candidates
        ],
    }
    if red.i0.num.is_zero:
        payload["note"] = "trivial invariant"
    if pr.has_irrational_points:
        payload["diagnostic"] = "IrrationalSingularities"
    return payload, 0


def cmd_verify(ode_text, solution_text, n_points=8):
    """Residual-check a caller-supplied solution against an equation."""
    try:
        ode = parse_ode(ode_text)
        s = parse_solution(solution_text)
    except _BAD_INPUT as e:
        return _error_payload("invalid_input", e), 1
    try:
        rep = residual_check(ode, s, n_points)
    except (SamplingFailed, ValueError) as e:
        return _error_payload("verification_impossible", e), 1
    payload = {
        "residual_report": rep.to_json(),
        "passes": rep.max_residual <= RESIDUAL_GATE,
    }
    return payload, 0 if payload["passes"] else 2


def _run_entry(entry, verify):
    report, code = cmd_solve(entry.ode_text, verify=verify)
    row = {"id": entry.id, "expected_class": entry.expected_class}
    if entry.expected_class is None:
        if code == 2:
            row["status"] = "PASS"
            row["note"] = "no equivalence, as recorded"
        elif code == 0:
            row["status"] = "FAIL"
            row["got_class"] = report["witness"]["class"]
            row["note"] = "unexpected witness"
        else:
            row["status"] = "FAIL"
            row["note"] = report["error"]["message"]
        return row
    if code != 0:
        row["status"] = "FAIL"
        row["note"] = report.get("error", {}).get("message", "solve failed")
        return row
    got = report["witness"]["class"]
    row["got_class"] = got
    ok = got == entry.expected_class
    if entry.expected_integral_free is not None:
        got_free = report["solutions"]["integral_free"]
        row["integral_free"] = got_free
        ok = ok and got_free == entry.expected_integral_free
    if verify and report.get("residuals") is not None:
        row["residuals_pass"] = report["residuals"]["passes"]
        ok = ok and report["residuals"]["passes"]
    row["status"] = "PASS" if ok else "FAIL"
    return row


def bundled_corpus_path():
    # imported here: importlib.resources loads typing, which only the
    # corpus verb needs to pay for
    from importlib import resources
    return resources.files("hyperode") / "data" / "corpus.jsonl"


def load_corpus(path=None):
    """Parse a corpus file into entries, sorted by id."""
    if path is None:
        text = bundled_corpus_path().read_text(encoding="utf-8")
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    entries = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            entries.append(_corpus_entry(line))
        except (ValueError, RecursionError) as e:
            raise ValueError("line %d: %s" % (number, e)) from None
    return sorted(entries, key=lambda e: e.id)


def _corpus_entry(line):
    """The entry of one corpus line: a JSON object whose id and
    ode_text are strings."""
    row = json.loads(line)
    if not isinstance(row, dict):
        raise ValueError("a corpus row must be a JSON object")
    for key in ("id", "ode_text"):
        if not isinstance(row.get(key), str):
            raise ValueError("%r must be a string" % key)
    return CorpusEntry.from_json(row)


def cmd_corpus(path=None, verify=False):
    """Replay a corpus file against its recorded expectations."""
    try:
        entries = load_corpus(path)
    except (OSError, ValueError) as e:
        return _error_payload("invalid_corpus", e), 1
    rows = [_run_entry(entry, verify) for entry in entries]
    marked = [e for e in entries if e.expected_class is not None]
    solved = sum(1 for r in rows
                 if r["expected_class"] is not None and "got_class" in r
                 and r["got_class"] == r["expected_class"])
    passed = sum(1 for r in rows if r["status"] == "PASS")
    payload = {
        "entries": rows,
        "total": len(rows),
        "passed": passed,
        "solve_rate": {
            "solved": solved,
            "marked_solvable": len(marked),
        },
    }
    return payload, 0 if passed == len(rows) else 2


def _human_solve(payload):
    w = payload["witness"]
    sol = payload["solutions"]
    lines = [
        "class: %s with k = %s" % (w["class"], w["k"]),
        "argument: %s" % w["argument"],
        "parameters: %s" % ", ".join(
            "%s = %s" % (n, v) for n, v in w["params"].items()),
        "gauge: %s" % w["gauge"],
        "y1 = %s" % sol["y1"],
        "y2 = %s" % sol["y2"],
        "integral free: %s" % sol["integral_free"],
    ]
    if payload.get("residuals") is not None:
        res = payload["residuals"]
        for name in ("y1", "y2"):
            if "skipped" in res[name]:
                lines.append("residual %s: skipped (%s)"
                             % (name, res[name]["skipped"]))
            else:
                lines.append("residual %s: max %.3e over %d points"
                             % (name, res[name]["max_residual"],
                                len(res[name]["points"])))
        lines.append("verification: %s"
                     % ("pass" if res["passes"] else "FAIL"))
    lines.append("timing: %.1f ms" % payload["timing_ms"])
    return lines


def _human_classify(payload):
    pr = payload["profile"]
    lines = [
        "k = %s" % payload["k"],
        "numerator degree: %d" % pr["numerator_degree"],
        "pole multiplicities: %s" % (pr["pole_multiplicities"],),
        "order at infinity: %d" % pr["infinity_order"],
        "candidates: %s" % (", ".join(c["class"]
                                      for c in payload["candidates"])
                            or "none"),
    ]
    if "note" in payload:
        lines.append("note: %s" % payload["note"])
    if "diagnostic" in payload:
        lines.append("diagnostic: %s" % payload["diagnostic"])
    return lines


def _human_verify(payload):
    rep = payload["residual_report"]
    return [
        "max residual: %.3e over %d points" % (rep["max_residual"],
                                               len(rep["points"])),
        "verdict: %s" % ("pass" if payload["passes"] else "FAIL"),
    ]


def _human_corpus(payload):
    lines = []
    for row in payload["entries"]:
        bits = ["%-26s %s" % (row["id"], row["status"])]
        if "got_class" in row:
            bits.append(row["got_class"])
        if (row["status"] == "FAIL" and row["expected_class"] is not None
                and row.get("got_class") != row["expected_class"]):
            bits.append("expected %s" % row["expected_class"])
        if "note" in row:
            bits.append(row["note"])
        lines.append("  ".join(bits))
    rate = payload["solve_rate"]
    lines.append("passed %d of %d entries; solved %d of %d marked solvable"
                 % (payload["passed"], payload["total"],
                    rate["solved"], rate["marked_solvable"]))
    return lines


def build_parser():
    # imported here: argparse loads gettext, and library callers of the
    # verbs never parse arguments
    import argparse

    parser = argparse.ArgumentParser(
        prog="hyperode",
        description="Exact hypergeometric solutions of second-order "
                    "linear ODEs with rational coefficients.")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    parser.add_argument(
        "--max-degree", type=int, metavar="N",
        help="override the intermediate degree guardrail; N must be at "
             "least 1. Intermediate integers are also capped at %d bits, "
             "so an equation coefficient longer than about %d bits fails "
             "once the normal form squares it"
             % (COEFF_BITS, COEFF_BITS // 2))
    sub = parser.add_subparsers(dest="verb", required=True)

    p_solve = sub.add_parser("solve", help="find a witness and solutions")
    p_solve.add_argument("ode", help="equation text, e.g. \"y'' + x*y = 0\"")
    p_solve.add_argument("--verify", action="store_true",
                         help="run the numeric residual oracle")
    p_solve.add_argument("--points", type=int, default=8,
                         help="sample points for --verify (default 8)")

    p_classify = sub.add_parser(
        "classify", help="profile and candidate classes only")
    p_classify.add_argument("ode")

    p_verify = sub.add_parser(
        "verify", help="residual-check a given solution expression")
    p_verify.add_argument("ode")
    p_verify.add_argument("solution")
    p_verify.add_argument("--points", type=int, default=8)

    p_corpus = sub.add_parser(
        "corpus", help="replay a corpus file (default: bundled)")
    p_corpus.add_argument("path", nargs="?", default=None)
    p_corpus.add_argument("--verify", action="store_true",
                          help="also residual-check every solved entry")
    return parser


_RENDER = {
    "solve": _human_solve,
    "classify": _human_classify,
    "verify": _human_verify,
    "corpus": _human_corpus,
}


def _run(args):
    if args.max_degree is not None:
        if args.max_degree < 1:
            return _error_payload(
                "invalid_input", "degree cap must be positive"), 1
        DEGREE_CAP.set(args.max_degree)
    if args.verb == "solve":
        return cmd_solve(args.ode, verify=args.verify, n_points=args.points)
    if args.verb == "classify":
        return cmd_classify(args.ode)
    if args.verb == "verify":
        return cmd_verify(args.ode, args.solution, n_points=args.points)
    return cmd_corpus(args.path, verify=args.verify)


def main(argv=None):
    args = build_parser().parse_args(argv)
    # a copied context scopes --max-degree to this one command
    payload, code = contextvars.copy_context().run(_run, args)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif "error" in payload:
        print("error (%s): %s" % (payload["error"]["type"],
                                  payload["error"]["message"]))
    else:
        print("\n".join(_RENDER[args.verb](payload)))
    return code


if __name__ == "__main__":
    sys.exit(main())
