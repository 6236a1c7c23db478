"""Seeded, layered benchmark for soapfilm.

    python3 perfbench/run.py --workload branches --seed 1 --trace 0
    python3 perfbench/run.py                 # every workload, one table
    python3 perfbench/run.py --trace 1       # every workload, traced run

Load shape: a closed loop with one client. One process runs one op at a
time, in passes. Each pass draws a fresh op list from (--seed, pass index)
before it is timed, so no input repeats, and every op's result is checked
against an independent reference after the last pass, outside the timed
region. A run makes a fixed number of passes, --seconds over the workload's
nominal pass time, so a seed always runs the same ops and meets the same
failures; --seconds must equal run_seconds of BENCHMARK.json.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a separate traced
pass (see spans.py), plus the tracing overhead. The library is imported
from the checkout's own src/ directory; the run fails if it is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 5
# Each op slot's latency is its fastest pass. Every pass gives the slot a
# fresh input from the same band, so no input repeats. Load from outside the
# benchmark only ever slows an op, and on a shared host it comes in spells of
# a second to minutes, so the fastest of several passes is the least
# disturbed reading.
MIN_PASSES = 3
SETUP_CODE = "import soapfilm; soapfilm.critical_constants()"
IMPORT_CODE = (
    "import time; t = time.perf_counter(); import soapfilm; "
    "print(time.perf_counter() - t)"
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_library():
    """Import soapfilm from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "soapfilm", "__init__.py")):
        fail(f"no soapfilm package under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import soapfilm

    if os.path.dirname(os.path.dirname(os.path.abspath(soapfilm.__file__))) != SRC:
        fail(f"imported soapfilm from {soapfilm.__file__}, not from {SRC}")
    # lazy set-up is paid here, as setup_s measures it, not by the first op
    soapfilm.critical_constants()
    return soapfilm


# -- measurement helpers -----------------------------------------------------

def tail(latencies):
    """(value, percentile, n): the highest percentile with >= 10 samples beyond it.

    With ten or fewer samples no such percentile exists and the maximum is
    returned, labelled as the 100th percentile.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def timed_child(argv, env):
    """Wall seconds of a child interpreter run to exit, and its stdout/stderr."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env, check=False)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        fail(f"child {argv[1:]} exited {proc.returncode}: {proc.stderr.decode()[-300:]}")
    return elapsed, proc.stdout.decode(), proc.stderr.decode()


def setup_seconds(env):
    """Wall seconds of a fresh interpreter that imports soapfilm and caches h*."""
    return timed_child([sys.executable, "-c", SETUP_CODE], env)[0]


def run_pass(workload, ops):
    """One pass over an op list: (wall seconds, per-op ns, results)."""
    from workloads import OpError

    gc.collect()
    latencies, results = [], []
    t0 = time.perf_counter()
    for op in ops:
        start = time.perf_counter_ns()
        try:
            result = workload.run(op)
        except Exception as exc:  # a failing op is data: counted, not fatal
            result = OpError(type(exc).__name__, str(exc))
        latencies.append(time.perf_counter_ns() - start)
        results.append(result)
    return time.perf_counter() - t0, latencies, results


class Outcome:
    """Checked ops so far. `unexpected` counts failures outside the input
    regions where the workload documents a defect of the library
    (Workload.known_defect); any such failure makes the run incorrect."""

    def __init__(self):
        self.attempted = self.failed = self.unexpected = 0
        self.reasons = Counter()

    def check(self, workload, ops, results):
        self.attempted += len(ops)
        for op, reason in zip(ops, workload.check_ops(ops, results)):
            if reason is not None:
                known = workload.known_defect(op)
                self.failed += 1
                self.unexpected += not known
                self.reasons[(reason, known)] += 1


def run_passes(workload, passes, before):
    """`passes` passes, each with fresh inputs; every op is checked after the
    last pass, outside the timed region.

    before(index) runs ahead of pass `index`, outside its timing, on all cores.
    Returns (best, outcome): each op slot's fastest latency in ns and the
    checks of every op.
    """
    best, all_ops, all_results = None, [], []
    cpus = sorted(os.sched_getaffinity(0))
    for index in range(passes):
        os.sched_setaffinity(0, cpus)
        before(index)
        # Take turns on the cores: on a shared host one core can stay slow for
        # minutes, and a slot's fastest pass should not depend on where the
        # scheduler happened to keep the process.
        os.sched_setaffinity(0, {cpus[index % len(cpus)]})
        ops = workload.ops_for(index)
        _, latencies, results = run_pass(workload, ops)
        all_ops += ops
        all_results += results
        best = latencies if best is None else [min(a, b) for a, b in zip(best, latencies)]
    os.sched_setaffinity(0, cpus)
    outcome = Outcome()
    outcome.check(workload, all_ops, all_results)
    return best, outcome


def pass_count(workload, seconds):
    """Passes that fill `seconds` at the workload's nominal pass time.

    The count depends on nothing measured, so a seed always runs the same
    ops and meets the same failures, however fast the host is that day.
    """
    return max(MIN_PASSES, round(seconds / workload.PASS_SECONDS))


# -- the two kinds of run ----------------------------------------------------

def end_to_end(workload, seconds, env):
    passes = pass_count(workload, seconds)
    # set-up probes spread over the run, so one slow spell of the host
    # cannot carry their median
    probes = Counter(i * passes // SETUP_PROBES for i in range(SETUP_PROBES))
    setups = []

    def probe(index):
        setups.extend(setup_seconds(env) for _ in range(probes[index]))

    per_slot, outcome = run_passes(workload, passes, probe)
    setup = statistics.median(setups)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed = outcome.attempted, outcome.failed

    metrics = {
        "wall_s": (sum(per_slot) / 1e9, "s"),
        "op_p50_ms": (statistics.median(per_slot) / 1e6, "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss, "MB"),
        "ok_frac": (1.0 - failed / attempted, "fraction"),
    }
    notes = {
        "wall_s": f"sum over {len(per_slot)} op slots of each slot's fastest of "
                  f"{passes} passes, each pass with fresh inputs",
        "ok_frac": f"fail_frac = {failed}/{attempted} = {failed / attempted:.6g}",
        "setup_s": f"median of {SETUP_PROBES} fresh interpreters",
    }
    return metrics, notes, outcome


def layer_metrics(workload, env):
    from spans import Tracer
    from workloads import Cli, clear_library_caches
    from soapfilm import energetics, extremals

    # The traced pass runs pass 0's inputs, so its counts repeat on one seed;
    # the untraced pass runs pass 1's, so neither pass replays the other.
    outcome = Outcome()
    untraced_ops = workload.ops_for(1)
    untraced, untraced_latencies, untraced_results = run_pass(workload, untraced_ops)
    outcome.check(workload, untraced_ops, untraced_results)
    tail_value, tail_pct, tail_n = tail(untraced_latencies)
    ops = workload.ops_for(0)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _, results = run_pass(workload, ops)
        tracer.phase = "check"
        outcome.check(workload, ops, results)
    finally:
        tracer.uninstall()

    def cold_ms(fn, reps, before=lambda: None):
        times = []
        for _ in range(reps):
            clear_library_caches()
            before()
            t0 = time.perf_counter()
            fn()
            times.append((time.perf_counter() - t0) * 1e3)
        return statistics.median(times)

    crit_ms = cold_ms(extremals.critical_constants, 5)
    gold_ms = cold_ms(energetics.goldschmidt_constant, 3, extremals.critical_constants)

    py = sys.executable
    interp = statistics.median(timed_child([py, "-c", "pass"], env)[0] for _ in range(3))
    imports = statistics.median(
        float(timed_child([py, "-c", IMPORT_CODE], env)[1]) for _ in range(3))
    linalg = []
    for _ in range(3):
        stderr = timed_child([py, "-X", "importtime", "-c", "import soapfilm"], env)[2]
        cumulative = 0.0
        for line in stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "scipy.linalg":
                cumulative = float(parts[1]) / 1e3
        linalg.append(cumulative)
    main_ms = statistics.median(untraced_latencies) / 1e6 if isinstance(workload, Cli) else 0.0

    layers = tracer.layer_totals("op")
    checks = tracer.layer_totals("check")

    def get(name, key):
        return float(layers.get(name, {}).get(key, 0.0))

    def ratio(a, b):
        return a / b if b else 0.0

    counts = tracer.deterministic_counts("op")
    shoots = counts["spectrum.shoot.calls"]
    iterations = counts["direct_min.iterations"]
    forces = get("energetics.force", "calls")
    dense_s = get("spectrum.dense_eigenvalues", "s") + float(
        checks.get("spectrum.dense_eigenvalues", {}).get("s", 0.0))
    m = {
        "rootfind.calls": (counts["rootfind.calls"], "count"),
        "rootfind.evals": (counts["rootfind.evals"], "count"),
        "rootfind.self_ms": (get("rootfind", "self_s") * 1e3, "ms"),
        "rootfind.max_iter_errors": (get("rootfind", "error:MaxIterationsError"), "count"),
        "extremals.solve_branches.calls": (counts["extremals.solve_branches.calls"], "count"),
        "extremals.solve_branches.ms": (get("extremals.solve_branches", "s") * 1e3, "ms"),
        "extremals.phi.calls": (counts["extremals.phi.calls"], "count"),
        "extremals.critical_constants.ms": (crit_ms, "ms"),
        "energetics.force.self_ms": (get("energetics.force", "self_s") * 1e3, "ms"),
        "energetics.solves_per_force": (ratio(tracer.count_children(
            "op", "extremals.solve_branches", "energetics.force"), forces), "solves/force"),
        "energetics.goldschmidt_constant.ms": (gold_ms, "ms"),
        "spectrum.eigenvalues.ms": (get("spectrum.eigenvalues", "s") * 1e3, "ms"),
        "spectrum.shoot.calls": (shoots, "count"),
        "spectrum.shoot.us_per_sweep": (ratio(get("spectrum.shoot", "s") * 1e6, shoots), "us"),
        "spectrum.shoot.refine_share": (ratio(tracer.count_under(
            "op", "spectrum.shoot", "rootfind"), shoots), "fraction"),
        "spectrum.dense_eigenvalues.ms": (dense_s * 1e3, "ms"),
        "spectrum.negative_direction.ms": (get("spectrum.negative_direction", "s") * 1e3, "ms"),
        "variation.third_variation.ms": (get("variation.third_variation", "s") * 1e3, "ms"),
        "direct_min.minimize.self_ms": (get("direct_min.minimize", "self_s") * 1e3, "ms"),
        "direct_min.iterations": (iterations, "count"),
        "direct_min.us_per_iter": (ratio(get("direct_min.minimize", "self_s") * 1e6,
                                         iterations), "us"),
        "direct_min.iteration_limits": (counts["direct_min.iteration_limits"], "count"),
        "cli.interp_ms": (interp * 1e3, "ms"),
        "cli.import_ms": (imports * 1e3, "ms"),
        "cli.import_scipy_linalg_ms": (statistics.median(linalg), "ms"),
        "cli.main_ms": (main_ms, "ms"),
        "trace.overhead_s": (traced - untraced, "s"),
        "op_tail_ms": (tail_value / 1e6, "ms"),
    }
    notes = {
        "trace.overhead_s": f"traced pass {traced:.4f} s - untraced pass {untraced:.4f} s",
        "cli.main_ms": "median op of one untraced pass of the cli workload",
        "op_tail_ms": f"p{tail_pct:.1f} of the {tail_n} ops of one untraced pass",
    }
    return m, notes, outcome


# -- command line --------------------------------------------------------------

def run_one(args):
    load_library()
    from workloads import WORKLOADS, child_env

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    env = child_env()
    # a directory of the checkout, because the benchmark writes nowhere else
    with tempfile.TemporaryDirectory(dir=ROOT) as scratch:
        workload = WORKLOADS[args.workload](args.seed, scratch)
        if args.trace:
            metrics, notes, outcome = layer_metrics(workload, env)
        else:
            metrics, notes, outcome = end_to_end(workload, args.seconds, env)

    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{workload.name:9s} {name:36s} {value:14.6f} {unit}{note}")
    for (reason, known), count in sorted(outcome.reasons.items()):
        where = "known defect region" if known else "UNEXPECTED"
        print(f"{workload.name:9s} failed check: {count} ops: {reason} ({where})")
    result = {
        "correct": outcome.unexpected == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


def run_all(args):
    """Every workload in its own fresh process, then one table."""
    load_library()
    from workloads import WORKLOADS

    status = 0
    rows = []
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, check=False)
        lines = proc.stdout.decode().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            print(line)
        status |= 0 if result["correct"] else 1
        rows.append((name, result))
    print()
    for name, result in rows:
        print(f"{name:9s} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} fail_frac={result['failed'] / result['attempted']:.6g}")
    return status


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        run_seconds = json.load(fh)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    # fixed by BENCHMARK.json, so two commits always run for the same time
    parser.add_argument("--seconds", type=int, choices=(run_seconds,), default=run_seconds,
                        help="must equal run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload is None:
        sys.exit(run_all(args))
    run_one(args)


if __name__ == "__main__":
    main()
