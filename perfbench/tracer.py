"""Per-layer trace of hyperode, recorded from outside the package.

While a Trace is installed, every function it names is replaced, at each
binding callers look it up through, by a wrapper: module globals, the
package's re-exports, class attributes (``Poly.__rmul__`` beside
``Poly.__mul__``) and module-level dispatch tables such as
``equivalence._RESOLVERS``. Leaving the ``with`` block puts the originals
back, so an untraced run never meets a wrapper and nothing under ``src/``
is edited.

A span wrapper pushes a frame on a stack, times the call and adds the
call's duration to its parent's frame. A span's self time is its duration
minus what its traced children took. A counter wrapper only counts, so
its time stays in the enclosing span.
"""

import functools
import sys
from collections import Counter
from time import perf_counter

from hyperode import (
    classifier,
    cli,
    equivalence,
    exactalg,
    invariants,
    numverify,
    odeio,
    solutions,
)

from workloads import node_count

# span name -> the functions it times
SPANS = {
    "exactalg.poly_mul": (exactalg.Poly.__mul__,),
    "exactalg.poly_divmod": (exactalg.Poly.__divmod__,),
    "exactalg.poly_gcd": (exactalg.poly_gcd,),
    "exactalg.ratfunc_new": (exactalg.RatFunc.__init__,),
    "exactalg.compose": (exactalg.RatFunc.compose,),
    "exactalg.factor_roots": (exactalg.factor_rational_roots,),
    "invariants.normal_form": (invariants.to_normal_form,),
    "invariants.power_min": (invariants.shifted_invariant,
                             invariants.minimize_power_exponents,
                             invariants.invariant_from_shifted),
    "invariants.transform": (invariants.transform_invariant,),
    "classifier.profile": (classifier.profile,),
    "classifier.classify": (classifier.classify,),
    "equivalence.solve": (equivalence.solve_equivalence,),
    "equivalence.resolve": (equivalence.resolve_2F1,
                            equivalence.resolve_1F1,
                            equivalence.resolve_0F1),
    "equivalence.witness": (equivalence.EquivalenceWitness.__init__,),
    "equivalence.gauge": (equivalence.exp_integral_expr,),
    "solutions.assemble": (solutions.assemble,),
    "numverify.check": (numverify.residual_check,),
    "odeio.parse": (odeio.parse_ode, odeio.parse_solution),
    "odeio.render": (odeio.print_solution, odeio.format_exact),
    "cli.command": (cli.cmd_solve, cli.cmd_verify),
}


def _hyperode_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "hyperode" or name.startswith("hyperode.")]


def _bindings(fn):
    """Every (container, key) through which hyperode code reaches fn."""
    seen = set()
    for mod in _hyperode_modules():
        for key, val in vars(mod).items():
            if key.startswith("__"):
                continue
            if val is fn:
                found = [(mod, key)]
            elif isinstance(val, dict):
                found = [(val, k) for k, v in val.items() if v is fn]
            elif isinstance(val, type) and \
                    val.__module__.startswith("hyperode"):
                found = [(val, k) for k, v in vars(val).items() if v is fn]
            else:
                continue
            for container, k in found:
                if (id(container), k) not in seen:
                    seen.add((id(container), k))
                    yield container, k


def _get(container, key):
    if isinstance(container, dict):
        return container[key]
    return vars(container)[key]


def _set(container, key, value):
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


class Trace:
    """Span self times and exact counts, gathered while installed."""

    def __init__(self):
        self.stack = []
        self.self_s = Counter()
        self.calls = Counter()
        self.returned = Counter()
        self.raised = Counter()
        self.counts = Counter()
        self.d2_ratios = []
        self._undo = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        stack, self_s, calls = self.stack, self.self_s, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[name, type(exc).__name__] += 1
                raise
            finally:
                dt = perf_counter() - t0
                self_s[name] += dt - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += dt
            self.returned[name] += 1
            if name == "classifier.classify":
                self.counts["classifier.candidates"] += len(result)
            return result

        return wrapper

    def _count(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_yields(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counts[name] += 1
                yield item

        return wrapper

    def _differentiate(self, fn):
        """Count outermost calls; size y'' against y on back-to-back calls.

        Recursive calls inside differentiate_expr pass straight through.
        When a call differentiates the previous call's result, the pair
        is (y, y''); counting their nodes is charged to no span.
        """
        depth = [0]
        last = [None, None]

        @functools.wraps(fn)
        def wrapper(e):
            if depth[0]:
                return fn(e)
            depth[0] += 1
            try:
                out = fn(e)
            finally:
                depth[0] -= 1
            self.counts["odeio.differentiate"] += 1
            if last[1] is not None and e is last[1]:
                t0 = perf_counter()
                self.d2_ratios.append(node_count(out) / node_count(last[0]))
                if self.stack:
                    self.stack[-1] += perf_counter() - t0
                last[:] = [None, None]
            else:
                last[:] = [e, out]
            return out

        return wrapper

    # -- installation -----------------------------------------------------

    def _wrap(self, fn, wrapper):
        for container, key in list(_bindings(fn)):
            self._undo.append((container, key, _get(container, key)))
            _set(container, key, wrapper)

    def __enter__(self):
        for name, fns in SPANS.items():
            for fn in fns:
                self._wrap(fn, self._span(name, fn))
        self._wrap(numverify.eval_pfq,
                   self._count("numverify.series_evals", numverify.eval_pfq))
        self._wrap(numverify.pfq_terms,
                   self._count_yields("numverify.series_terms",
                                      numverify.pfq_terms))
        self._wrap(odeio.differentiate_expr,
                   self._differentiate(odeio.differentiate_expr))
        return self

    def __exit__(self, *exc_info):
        while self._undo:
            container, key, original = self._undo.pop()
            _set(container, key, original)
        return False

    # -- metrics ----------------------------------------------------------

    def metrics(self, inputs, overhead_ratio, speed=1.0):
        """Per-layer metrics over ``inputs`` traced inputs.

        Returns {name: (value, unit)}. ``_ms`` is self time per input,
        multiplied by ``speed`` (reference over wall time of the traced
        calls); ``_calls`` is an exact count per input; the numverify
        series counts are per residual check.
        """
        checks = self.calls["numverify.check"]
        builds = self.calls["equivalence.witness"]
        solved = self.returned["equivalence.solve"]

        def ms(span):
            return 1000.0 * speed * self.self_s[span] / inputs, "ms"

        def per_input(n):
            return n / inputs, "count"

        def ratio(a, b):
            return (a / b if b else 0.0), "ratio"

        out = {}
        for key in ("poly_mul", "poly_divmod", "poly_gcd", "ratfunc_new",
                    "compose", "factor_roots"):
            out["exactalg.%s_calls" % key] = \
                per_input(self.calls["exactalg." + key])
            out["exactalg.%s_ms" % key] = ms("exactalg." + key)
        out.update({
            "invariants.normal_form_ms": ms("invariants.normal_form"),
            "invariants.power_min_ms": ms("invariants.power_min"),
            "invariants.transform_calls":
                per_input(self.calls["invariants.transform"]),
            "classifier.profile_ms": ms("classifier.profile"),
            "classifier.classify_ms": ms("classifier.classify"),
            "classifier.candidates":
                per_input(self.counts["classifier.candidates"]),
            "equivalence.solve_ms": ms("equivalence.solve"),
            "equivalence.resolve_ms": ms("equivalence.resolve"),
            "equivalence.witness_builds": per_input(builds),
            "equivalence.witness_builds_per_solve":
                (builds / solved if solved else 0.0, "count"),
            "equivalence.witness_ms": ms("equivalence.witness"),
            "equivalence.witness_yield": ratio(solved, builds),
            "equivalence.gauge_ms": ms("equivalence.gauge"),
            "solutions.assemble_ms": ms("solutions.assemble"),
            "numverify.check_ms": ms("numverify.check"),
            "numverify.check_calls": per_input(checks),
            "numverify.series_evals":
                (self.counts["numverify.series_evals"] / checks
                 if checks else 0.0, "count"),
            "numverify.series_terms":
                (self.counts["numverify.series_terms"] / checks
                 if checks else 0.0, "count"),
            "numverify.sampling_failures":
                per_input(self.raised["numverify.check", "SamplingFailed"]),
            "odeio.parse_ms": ms("odeio.parse"),
            "odeio.render_ms": ms("odeio.render"),
            "odeio.differentiate_calls":
                per_input(self.counts["odeio.differentiate"]),
            "odeio.d2_size_ratio":
                (sum(self.d2_ratios) / len(self.d2_ratios)
                 if self.d2_ratios else 0.0, "ratio"),
            "cli.self_ms": ms("cli.command"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        })
        return out
