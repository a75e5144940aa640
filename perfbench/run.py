"""hyperode benchmark: one workload, one closed-loop client, no threads.

    python3 perfbench/run.py --workload seeds-solve --seed 7 --seconds 25 --trace 0

Run from the root of a checkout; hyperode is imported from ``src/``. The
workload's inputs are built from the seed before timing starts. With
``--trace 0`` the run measures the end-to-end metrics; with ``--trace 1``
it runs the inputs untraced and then traced, and reports the per-layer
metrics. End-to-end times are given at reference speed: each call's wall
time is scaled by the time a fixed stdlib probe takes beside it (see
``reference_s``). ``--workload all`` runs every workload, each in its own child
process, and sums their results. The report goes to stdout; its last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. See README.md in this directory.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
COLD_STARTS = 11


def _fail(message):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def _import_hyperode():
    if not (SRC / "hyperode" / "__init__.py").is_file():
        _fail("no hyperode sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import hyperode
    if Path(hyperode.__file__).resolve().parent != SRC / "hyperode":
        _fail("imported hyperode from %s, not %s" % (hyperode.__file__, SRC))


PROBE_S = 0.0005


def probe():
    """Fixed pure-Python work on stdlib fractions, no hyperode code.

    It runs the interpreter the way hyperode does (small rationals,
    tuples, dicts, str) for about half a millisecond, so a host that
    slows hyperode down slows it by about as much.
    """
    a = [Fraction(i + 1, 7 + i) for i in range(10)]
    b = [Fraction(3 * i - 5, 2 * i + 3) for i in range(10)]
    out = [Fraction(0)] * 19
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return {(i, x.denominator % 97): (x, str(x)) for i, x in enumerate(out)}


def probe_s():
    t0 = perf_counter()
    probe()
    return perf_counter() - t0


def reference_s(wall, probe_before, probe_after):
    """Wall seconds at reference speed, at which the probe takes PROBE_S.

    The host this benchmark was written on runs in phases, from seconds
    to minutes long, that change the speed of all Python code by up to
    2x. A call and the probes run just before and after it share the
    phase, so the ratio of their times does not.
    """
    return wall * 2.0 * PROBE_S / (probe_before + probe_after)


@dataclass
class Loop:
    """What one closed-loop measurement saw.

    ``ref`` and ``wall`` hold, for each case, every call's time in
    reference and in wall seconds. ``outcomes`` counts calls per
    distinct (case index, outcome record).
    """

    ref: list
    wall: list
    outcomes: Counter = field(default_factory=Counter)
    passes: int = 0
    elapsed: float = 0.0

    @property
    def calls(self):
        return self.passes * len(self.ref)

    @property
    def throughput(self):
        """Inputs per reference second, at each input's median call."""
        return len(self.ref) / sum(statistics.median(r) for r in self.ref)

    def per_pass(self, stat, times=None):
        """Median over passes of ``stat`` of each pass's call times.

        Each pass holds every input once, so a pass's quantiles weigh the
        inputs as a single pass does, and the median over passes keeps a
        quantile that falls between two inputs from jumping between them.
        """
        times = self.ref if times is None else times
        return statistics.median(stat([r[j] for r in times])
                                 for j in range(self.passes))


def closed_loop(wl, cases, seconds):
    """Call hyperode on the cases in whole passes for about ``seconds``.

    Every pass is finished, so each case is called equally often. After
    the first, another pass starts only when it is expected to end nearer
    to ``seconds`` than stopping would, so a run lasts ``seconds`` give
    or take half a pass. A sample runs from the call into hyperode until
    it returns; the probe runs between calls, outside the samples.
    """
    loop = Loop(ref=[[] for _ in cases], wall=[[] for _ in cases])
    start = perf_counter()
    before = probe_s()
    while True:
        for i, case in enumerate(cases):
            t0 = perf_counter()
            try:
                out = wl.call(case)
            except Exception as exc:
                dt = perf_counter() - t0
                traceback.print_exc()
                rec = wl.crash_record(exc)
            else:
                dt = perf_counter() - t0
                rec = wl.record(out)
            after = probe_s()
            loop.ref[i].append(reference_s(dt, before, after))
            loop.wall[i].append(dt)
            loop.outcomes[i, rec] += 1
            before = after
        loop.passes += 1
        loop.elapsed = perf_counter() - start
        if loop.elapsed * (1 + 0.5 / loop.passes) >= seconds:
            return loop


FALSE_PASS_SHARE = 0.01


@dataclass
class Grading:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    false_passes: int = 0
    misses: dict = field(default_factory=dict)

    def add(self, wl, cases, outcomes):
        """Grade each distinct outcome once, counting every call."""
        for (i, rec), calls in outcomes.items():
            v = wl.verdict(cases[i], rec)
            self.attempted += calls
            if not v.matched:
                self.failed += calls
                self.wrong += calls * v.wrong
                self.false_passes += calls * v.false_pass
                label = "%s%s: %s" % (cases[i].name,
                                      " [WRONG]" if v.wrong else "", v.note)
                self.misses[label] = self.misses.get(label, 0) + calls
        return self

    @property
    def correct(self):
        """No wrong call, and false PASSes on at most FALSE_PASS_SHARE of
        the calls: a rare control close enough to a solution to pass the
        oracle's gate is a counted miss, an oracle that passes controls
        wholesale is incorrect."""
        return (self.wrong == 0
                and self.false_passes <= FALSE_PASS_SHARE * self.attempted)


def cold_start(wl):
    """Median time of fresh interpreters that import hyperode and complete
    the workload's cold-start input, in reference and in wall seconds.

    One unmeasured launch goes first. Each launch is scaled by the median
    of a few probes run in this process just before it and just after.
    """
    code = "import sys\nsys.path.insert(0, %r)\n%s\n" % (str(SRC),
                                                      wl.cold_start)
    cmd = [sys.executable, "-I", "-c", code, *wl.cold_case().texts]
    ref, wall = [], []
    for i in range(COLD_STARTS + 1):
        before = statistics.median(probe_s() for _ in range(5))
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        elapsed = perf_counter() - t0
        after = statistics.median(probe_s() for _ in range(5))
        if proc.returncode != 0:
            _fail("cold start of %s failed:\n%s" % (wl.name, proc.stderr))
        if i:
            ref.append(reference_s(elapsed, before, after))
            wall.append(elapsed)
    return statistics.median(ref), statistics.median(wall)


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def environment(args):
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _warm_up(wl, cases):
    """Fill lazy tables before timing; any failure shows in the loop."""
    for _ in range(20):
        probe()
    for case in cases[:3]:
        try:
            wl.call(case)
        except Exception:
            pass


def p90(values):
    return statistics.quantiles(values, n=10)[8]


def end_to_end(wl, cases, seconds):
    """Plain run: end-to-end metrics, run facts and grading."""
    setup_s, setup_wall_s = cold_start(wl)
    _warm_up(wl, cases)
    loop = closed_loop(wl, cases, seconds)
    g = Grading().add(wl, cases, loop.outcomes)
    n = "%dx%d" % (len(cases), loop.passes)
    metrics = {
        "throughput_per_s": (loop.throughput, "1/s", n),
        "latency_p50_ms": (1000.0 * loop.per_pass(statistics.median),
                           "ms", n),
        "latency_p90_ms": (1000.0 * loop.per_pass(p90), "ms", n),
        "setup_s": (setup_s, "s", "%d" % COLD_STARTS),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB", "1"),
    }
    info = {"cases": len(cases), "passes": loop.passes, "calls": loop.calls,
            "elapsed_s": loop.elapsed,
            "wall_throughput_per_s": len(cases) / sum(
                statistics.median(r) for r in loop.wall),
            "wall_latency_p50_ms": 1000.0 * loop.per_pass(statistics.median,
                                                          loop.wall),
            "wall_latency_p90_ms": 1000.0 * loop.per_pass(p90, loop.wall),
            "wall_setup_s": setup_wall_s}
    return metrics, info, g


def traced(wl, cases, seconds):
    """Traced run: untraced passes, then traced passes, half the time each."""
    import tracer
    _warm_up(wl, cases)
    plain = closed_loop(wl, cases, seconds / 2)
    with tracer.Trace() as trace:
        seen = closed_loop(wl, cases, seconds / 2)
    g = Grading().add(wl, cases, plain.outcomes + seen.outcomes)
    speed = sum(map(sum, seen.ref)) / sum(map(sum, seen.wall))
    layer = trace.metrics(seen.calls, seen.throughput / plain.throughput,
                          speed)
    n = "%dx%d" % (len(cases), seen.passes)
    metrics = {name: (value, unit, n)
               for name, (value, unit) in layer.items()}
    info = {"cases": len(cases), "passes": seen.passes, "calls": seen.calls,
            "untraced_passes": plain.passes}
    return metrics, info, g


def report(args, metrics, info, g):
    print("hyperode benchmark: workload %s, seed %d, trace %d"
          % (args.workload, args.seed, args.trace))
    print("environment: %s" % json.dumps(environment(args), sort_keys=True))
    print("run: %s" % json.dumps(info, sort_keys=True))
    rows = list(metrics.items())
    rows.append(("error_rate", (g.failed / g.attempted, "ratio",
                                "%d" % g.attempted)))
    width = max(len(name) for name, _ in rows)
    for name, (value, unit, n) in rows:
        print("  %-*s %14.6g %-6s n=%s" % (width, name, value, unit, n))
    print("outcomes: %d attempted, %d failed, %d wrong, %d false PASS"
          % (g.attempted, g.failed, g.wrong, g.false_passes))
    for label, hits in sorted(g.misses.items()):
        print("  miss x%d %s" % (hits, label))
    return {
        "correct": g.correct,
        "attempted": g.attempted,
        "failed": g.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }


def run_all(args, names):
    """Each workload in a child process of its own, results summed."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            _fail("workload %s exited with %d" % (name, proc.returncode))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"]["%s/%s" % (name, metric)] = value
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_hyperode()
    from workloads import WORKLOADS
    if args.workload == "all":
        result = run_all(args, list(WORKLOADS))
    elif args.workload in WORKLOADS:
        wl = WORKLOADS[args.workload]
        cases = wl.cases(args.seed)
        measure = traced if args.trace else end_to_end
        result = report(args, *measure(wl, cases, args.seconds))
    else:
        _fail("unknown workload %r; choose from %s or all"
              % (args.workload, ", ".join(WORKLOADS)))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
