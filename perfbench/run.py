"""Benchmark of the multimatch package: one workload per run, closed loop.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim_fcfm --seed 1 --seconds 20 --trace 0

A run imports the package and builds the models once as a warm-up, runs the
workload's task list once as a warm-up, then runs it back to back until
``--seconds`` have passed (at least ``MIN_PASSES`` times), one task after
another in one thread.  Between passes it times ``SETUPS`` more set-ups,
spread over the run.  Every timed operation (a set-up, or one slice of a
task) sits between two runs of a fixed calibration loop, and its time is
expressed in reference seconds: its time divided by the mean of the two
calibration times, times ``CALIBRATION_REF_S``.  ``setup_s`` is the median
over the set-ups, ``wall_s`` the sum over the operations of their medians
over the passes.  Every task's output is checked after its timer stops; a
failed check or an exception counts as a failed operation.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate, the per-step drivers run
afterwards, and the last line holds the per-layer metrics; the spans are
written to ``.perfbench_out/`` at exit.  The line before the last one is a
record of the run's conditions, its seeded-output digests and its rates.
See README.md in this directory for the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import traceback
from bisect import bisect_right
from dataclasses import fields, is_dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import drivers
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUPS = 12  # timed set-ups, spread over the passes; the first set-up is a warm-up
CALIBRATION_STEPS = 6_000
# The calibration loop's time on an unloaded 2-core Xeon (Sapphire Rapids) KVM
# guest with CPython 3.11; timings are reported in seconds of that speed.
CALIBRATION_REF_S = 0.004
WARMUP_PASSES = 1
MIN_PASSES = 3  # untraced passes; traced runs need 2 of each kind
LAYERS = ("graphs", "measures", "policies", "chain", "stationary", "detailed", "drift", "cli", "bench")


def canon(x):
    """JSON-ready form that does not depend on set order or hash seeds."""
    if is_dataclass(x):
        return [type(x).__name__, {f.name: canon(getattr(x, f.name)) for f in fields(x)}]
    if isinstance(x, dict):
        return sorted(([canon(k), canon(v)] for k, v in x.items()), key=repr)
    if isinstance(x, (set, frozenset)):
        return sorted((canon(v) for v in x), key=repr)
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, (float, Fraction)):
        return repr(x)
    return x


def calibration_s() -> float:
    """Time of a fixed computation like the package's: random draws, bisect, tuples, dicts, Fractions.

    A shared host's speed swings by up to 2x within a minute, and a task's raw
    time with it.  The calibration loop runs right before and after every
    timed operation and slows with it, so the ratio of the two times stays
    put.  It is the benchmark's own code: a change to the package cannot
    move it.  The garbage collector is off while it runs, so it never pays
    for the package's garbage.
    """
    gc.disable()
    t0 = perf_counter()
    rng = random.Random(12345)
    cum = (0.2, 0.45, 0.7, 1.0)
    counts: dict[tuple, int] = {}
    word: tuple = ()
    acc = Fraction(0)
    for i in range(CALIBRATION_STEPS):
        v = bisect_right(cum, rng.random())
        word = (word + (v,))[-6:]
        counts[word] = counts.get(word, 0) + 1
        if i % 16 == 0:
            acc += Fraction(v + 1, len(word) + 2)
    dt = perf_counter() - t0
    gc.enable()
    return dt


class Timer:
    """Times operations, each between two calibration runs (the one after is shared with the next)."""

    def __init__(self):
        self.before = calibration_s()

    def time(self, fn):
        """``(fn's return value or None, exception or None, raw s, reference s)``."""
        value = error = None
        t0 = perf_counter()
        try:
            value = fn()
        except Exception as exc:
            error = exc
        dt = perf_counter() - t0
        after = calibration_s()
        ref = dt / ((self.before + after) / 2) * CALIBRATION_REF_S
        self.before = after
        return value, error, dt, ref


class Pass:
    """Outcome of one run of the task list."""

    def __init__(self):
        self.op_s: dict[tuple[int, int], float] = {}  # (task, operation) -> raw s
        self.op_ref_s: dict[tuple[int, int], float] = {}  # (task, operation) -> reference s
        self.units: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digest = hashlib.sha256()
        self.pinned_digest = hashlib.sha256()


def run_pass(tasks, tracer) -> Pass:
    result = Pass()
    timer = Timer()
    for task_id, task in enumerate(tasks):
        tracer.task_id = task_id
        steps = task.run(tracer)

        def step():
            with tracer.span("bench." + task.name):
                return next(steps)

        # bare yields end operations; the first value yielded is the output
        for op in itertools.count():
            out, error, result.op_s[task_id, op], result.op_ref_s[task_id, op] = timer.time(step)
            if out is not None or error is not None:  # a crash is a failed operation, not a crashed run
                break
        steps.close()
        result.units.append(0 if out is None else out["units"])
        result.attempted += 1
        if error is not None:
            result.failed += 1
            result.failures.append(f"{task.name}: {''.join(traceback.format_exception_only(error)).strip()}")
            continue
        problems = task.check(out)
        result.failed += bool(problems)
        result.failures += problems
        text = json.dumps([task.name, canon({k: v for k, v in out.items() if k != "units"})])
        result.digest.update(text.encode())
        if not task.seeded:
            result.pinned_digest.update(text.encode())
    return result


def task_times(passes, tasks, field="op_ref_s") -> list[float]:
    """Per task: the sum over its operations of their medians over the passes."""
    times = [0.0] * len(tasks)
    for key in passes[0].op_s:
        times[key[0]] += statistics.median(getattr(p, field)[key] for p in passes if key in p.op_s)
    return times


def wall_and_rates(passes, tasks) -> tuple[float, dict[str, float]]:
    """Reference wall time of one pass, and the throughput rates over it."""
    times = task_times(passes, tasks)
    rates = {}
    for kind, name in (("sim", "sim_steps_per_s"), ("exact", "exact_states_per_s")):
        idx = [i for i, t in enumerate(tasks) if t.kind == kind]
        if idx:
            rates[name] = sum(passes[-1].units[i] for i in idx) / sum(times[i] for i in idx)
    return sum(times), rates


def conditions(args) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "warmup_passes": WARMUP_PASSES,
        "setups": SETUPS,
    }


def layer_metrics(totals, counters, selfs, overhead_s, traced_rates) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, 0 where the workload never exercises the layer."""

    def ns(name):
        return totals.get(name, (0, 0))[0]

    def per(name, scale=1.0):
        calls = counters.get(name) or totals.get(name, (0, 0))[1]
        return ns(name) / calls * scale if calls else 0.0

    m: dict[str, tuple[float, str]] = {}
    arrivals = per("chain.draw_arrivals")
    m["chain.arrivals_ns_per_step"] = (arrivals, "ns")
    for p in ("fcfm",) + workloads.SIM_POLICIES:
        engine, sim = per("chain.engine." + p), per("chain.simulate." + p)
        m["chain.engine_ns_per_step." + p] = (engine, "ns")
        m["chain.simulate_ns_per_step." + p] = (sim, "ns")
        m["chain.bookkeeping_share." + p] = (1 - (arrivals + engine) / sim if sim else 0.0, "ratio")
    for c in ("steps", "overflow_steps", "distinct_words", "states"):
        m["chain." + c] = (counters.get("chain." + c, 0), "count")
    m["chain.enumerate_states_s"] = (ns("chain.enumerate_states") / 1e9, "s")
    m["chain.kernel_row_us"] = (per("chain.kernel_row", 1e-3), "us")
    m["chain.kernel_rows"] = (counters.get("chain.kernel_row", 0), "count")
    m["chain.predecessors_us"] = (per("chain.predecessors", 1e-3), "us")
    m["chain.predecessors"] = (counters.get("chain.predecessors", 0), "count")
    m["chain.stability_slope_s"] = (ns("chain.stability_slope") / 1e9, "s")
    for k in drivers.DECISION_KINDS:
        m["policies.decide_us." + k] = (per("policies.decide." + k, 1e-3), "us")
        m["policies.decision_law_us." + k] = (per("policies.decision_law." + k, 1e-3), "us")
    arrived = counters.get("policies.arrivals", 0)
    m["policies.match_ratio"] = (counters.get("policies.matches", 0) / arrived if arrived else 0.0, "ratio")
    for n in workloads.CYCLE_SIZES:
        m[f"stationary.alpha_s.c{n}"] = (ns(f"stationary.alpha.c{n}") / 1e9, "s")
    m["stationary.alpha_s"] = (sum(ns(f"stationary.alpha.c{n}") for n in workloads.CYCLE_SIZES) / 1e9, "s")
    m["stationary.pi_us"] = (per("stationary.pi", 1e-3), "us")
    m["stationary.balance_residual_s"] = (ns("stationary.balance_residual") / 1e9, "s")
    m["stationary.balance_states"] = (counters.get("stationary.balance_states", 0), "count")
    m["stationary.solve_finite_chain_s"] = (ns("stationary.solve_finite_chain") / 1e9, "s")
    m["detailed.local_balance_s"] = (ns("detailed.verify_local_balance_empirical") / 1e9, "s")
    m["detailed.pairs_tested"] = (counters.get("detailed.pairs_tested", 0), "count")
    m["detailed.match_partners_ns_per_step"] = (per("detailed.fcfm_match_partners"), "ns")
    m["detailed.excursions_s"] = (ns("detailed.analyze_excursions") / 1e9, "s")
    m["detailed.excursions"] = (counters.get("detailed.excursions", 0), "count")
    m["detailed.alpha_inverse_from_blocks_s"] = (ns("detailed.alpha_inverse_from_blocks") / 1e9, "s")
    m["detailed.blocks"] = (counters.get("detailed.blocks", 0), "count")
    m["drift.exact_drift_us"] = (per("drift.exact_drift", 1e-3), "us")
    m["drift.quadratic_identity_us"] = (per("drift.verify_quadratic_identity", 1e-3), "us")
    m["drift.linear_chain_us"] = (per("drift.verify_linear_chain", 1e-3), "us")
    m["drift.identity_checks"] = (counters.get("drift.identity_checks", 0), "count")
    m["drift.ppartite_bound_s"] = (ns("drift.verify_ppartite_bound") / 1e9, "s")
    m["drift.ppartite_states"] = (counters.get("drift.ppartite_states", 0), "count")
    m["graphs.independent_sets_s"] = (ns("graphs.independent_sets") / 1e9, "s")
    m["graphs.independent_sets"] = (counters.get("graphs.independent_sets", 0), "count")
    m["measures.ncond_check_s"] = (ns("measures.ncond_check") / 1e9, "s")
    m["graphs.derived_s"] = (per("graphs.derived", 1e-9), "s")
    m["measures.extend_measure_us"] = (per("measures.extend_measure", 1e-3), "us")
    for cmd, _ in workloads.CLI_COMMANDS:
        m["cli.cmd_s." + cmd] = (ns("cli." + cmd) / 1e9, "s")
    m["cli.bytes_written"] = (counters.get("cli.bytes_written", 0), "bytes")
    m["trace.overhead_s"] = (overhead_s, "s")
    for layer in LAYERS:
        m["self_s." + layer] = (selfs.get(layer, 0) / 1e9, "s")
    m["sim_steps_per_s"] = (traced_rates.get("sim_steps_per_s", 0.0), "1/s")
    m["exact_states_per_s"] = (traced_rates.get("exact_states_per_s", 0.0), "1/s")
    return m


def traced_layer_metrics(traced, tracers, driver_tracer, tasks, untraced_wall_s):
    """Per-layer metrics from the traced passes (span totals at their minimum) plus the drivers."""
    per_pass = [spans.totals(t.spans) for t in tracers]
    totals = {
        name: (min(t.get(name, (0, 0))[0] for t in per_pass), per_pass[-1].get(name, (0, 0))[1])
        for name in {n for t in per_pass for n in t}
    }
    for name, (ns, n) in spans.totals(driver_tracer.spans).items():
        old = totals.get(name, (0, 0))
        totals[name] = (old[0] + ns, old[1] + n)
    counters = dict(tracers[-1].counters)
    for name, n in driver_tracer.counters.items():
        counters[name] = counters.get(name, 0) + n
    self_per_pass = [spans.self_times(t.spans) for t in tracers]
    selfs = {layer: min(s.get(layer, 0) for s in self_per_pass) for layer in LAYERS}
    traced_wall_s, traced_rates = wall_and_rates(traced, tasks)
    return layer_metrics(totals, counters, selfs, traced_wall_s - untraced_wall_s, traced_rates)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "multimatch" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"error: no multimatch sources under {ROOT}/src or no fixtures", file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))

    def timed_setup():
        ctx, error, dt, ref = Timer().time(lambda: workloads.setup(ROOT, args.workload, args.seed))
        if error is not None:
            raise error
        gc.collect()  # free the replaced module copies, so peak memory does not grow with set-ups
        return ctx, (dt, ref)

    ctx, _ = timed_setup()  # the warm-up: first imports of numpy and the package
    if not Path(ctx.pkg.chain.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: multimatch imported from {ctx.pkg.chain.__file__}, not {ROOT}/src", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench_out"
    scratch = out_dir / f"cli-{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    setup_times: list[tuple[float, float]] = []  # (raw s, reference s)
    try:
        tasks = workloads.build_tasks(ctx, args.workload, args.seed, scratch, HERE / "data")
        warm = [run_pass(tasks, spans.Tracer(False)) for _ in range(WARMUP_PASSES)]
        untraced, traced, traced_spans = [], [], []
        start = perf_counter()
        while (
            len(untraced) < (2 if args.trace else MIN_PASSES)
            or len(traced) < (2 if args.trace else 0)
            or perf_counter() - start < args.seconds
        ):
            untraced.append(run_pass(tasks, spans.Tracer(False)))
            if args.trace:
                tracer = spans.Tracer(True)
                traced.append(run_pass(tasks, tracer))
                traced_spans.append(tracer)
            else:
                # set-ups spread over the run sample the machine's state as the passes
                # do; a fixed number keeps peak memory independent of the pass count
                due = SETUPS * (perf_counter() - start) / args.seconds
                while len(setup_times) < min(due, SETUPS):
                    setup_times.append(timed_setup()[1])
        while not args.trace and len(setup_times) < SETUPS:
            setup_times.append(timed_setup()[1])
        driver_tracer = spans.Tracer(True)
        driver_failures: list[list[str]] = []
        if args.trace:
            driver_failures = [driver(ctx, driver_tracer, args.seed) for driver in drivers.DRIVERS[args.workload]]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    passes = warm + untraced + traced
    attempted = sum(p.attempted for p in passes) + len(driver_failures) + 1
    failed = sum(p.failed for p in passes) + sum(bool(errs) for errs in driver_failures)
    failures = [f for p in passes for f in p.failures] + [f for errs in driver_failures for f in errs]
    # one more operation: every pass of the run must reproduce the same seeded outputs
    if len({(p.digest.hexdigest(), p.pinned_digest.hexdigest()) for p in passes}) > 1:
        failed += 1
        failures.append("seeded outputs differ between passes of one run")
    wall_s, wall_rates = wall_and_rates(untraced, tasks)
    raw_task_s = task_times(untraced, tasks, "op_s")

    record = {
        "conditions": conditions(args),
        "digest": passes[0].digest.hexdigest(),
        "pinned_digest": passes[0].pinned_digest.hexdigest(),
        "setup_raw_s": [raw for raw, _ in setup_times],
        "setup_ref_s": [ref for _, ref in setup_times],
        "wall_raw_s": sum(raw_task_s),
        "task_raw_s": dict(zip((t.name for t in tasks), raw_task_s)),
        "task_ref_s": dict(zip((t.name for t in tasks), task_times(untraced, tasks))),
        "pass_raw_s": [sum(p.op_s.values()) for p in untraced],
        "pass_ref_s": [sum(p.op_ref_s.values()) for p in untraced],
        "traced_pass_ref_s": [sum(p.op_ref_s.values()) for p in traced],
        "rates": wall_rates,
        "failures": failures[:20],
    }
    for msg in failures[:20]:
        print("check failed:", msg, file=sys.stderr)

    if args.trace:
        layer = traced_layer_metrics(traced, traced_spans, driver_tracer, tasks, wall_s)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(
            json.dumps(
                {
                    "record": record,
                    "span_fields": ["name", "start_ns", "end_ns", "parent", "task"],
                    "tasks": [t.name for t in tasks],
                    "passes": [t.spans for t in traced_spans],
                    "drivers": driver_tracer.spans,
                    "metrics": metrics,
                }
            )
        )
        record["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(ref for _, ref in setup_times), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
            "ops_ok_frac": {"value": 1 - failed / attempted, "unit": "ratio"},
        }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
