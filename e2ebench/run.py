#!/usr/bin/env python3
"""End-to-end benchmark of torcob, speed-corrected.

    python3 e2ebench/run.py --workload integrate|membership|cli \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root (torcob is imported from ``src/``).  The run
builds its inputs from the seed, sets up several times, then measures whole
rounds of ops for at least ``--seconds`` seconds (and at least the workload's
minimum number of rounds) in this single process, checks every answer
outside the timers, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
one round runs untraced and then traced, and the metrics are the per-layer
counts and times of the traced set-up and round plus the tracing overhead.
Details go to stderr and to ``e2ebench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import timing  # noqa: E402  (the benchmark's own modules live beside this file)

WORKLOADS = {"integrate": "wl_integrate", "membership": "wl_membership", "cli": "wl_cli"}
SETUP_REPS = 3
TRACE_ROUNDS = 1
TAIL_BEYOND = 10
END_TO_END = [
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]
TRACE_METRICS = [
    ("trace.spans", "count"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.overhead_raw_pct", "%"),
]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# -- set-up ------------------------------------------------------------------------


class SetupSteps:
    """Runs set-up steps one at a time, each bracketed by reference runs."""

    def __init__(self, tracer=None):
        self.tracer = tracer  # when tracing, no readings inside a step (see timing)
        self.corrected = 0.0
        self.wall = 0.0
        self.factors = {}

    def __call__(self, name, fn):
        op_id = f"setup:{name}"
        if self.tracer is not None:
            self.tracer.op = op_id
        result, timed = timing.run_timed(fn, sample=self.tracer is None)
        if isinstance(result, Exception):
            raise result
        self.corrected += timed.corrected
        self.wall += timed.wall
        self.factors[op_id] = timed.factor
        return result


def import_torcob():
    """Import torcob afresh from src/, so that each set-up pays for it."""
    for name in [n for n in sys.modules if n == "torcob" or n.startswith("torcob.")]:
        del sys.modules[name]
    importlib.import_module("torcob.cli")


def set_up(workload, seed, tracer=None):
    """(ops, set-up record) for one complete set-up."""
    steps = SetupSteps(tracer)
    steps("import", import_torcob)
    if tracer is not None:
        tracer.install()
    try:
        ops = workload.setup(seed, steps)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return ops, steps


# -- timed rounds --------------------------------------------------------------------


class Round:
    """Results of running and checking ops."""

    def __init__(self):
        self.timings = []
        self.ops = []  # (label, corrected ms, wall ms, reference readings ms)
        self.failed = 0
        self.wrong = 0
        self.reported = set()

    def record(self, op, result, timed):
        self.timings.append(timed)
        self.ops.append((op.label, timed.corrected * 1e3, timed.wall * 1e3,
                         [x * 1e3 for x in timed.readings]))
        verdict = _verdict(op, result)
        if verdict is not None:
            self.failed += 1
            if verdict == "wrong answer":
                self.wrong += 1
            if op.label not in self.reported:
                self.reported.add(op.label)
                log(f"FAILED {op.label}: {verdict}")


def _verdict(op, result):
    """None when the answer checks out, else why the op failed."""
    if isinstance(result, Exception):
        return f"{type(result).__name__}: {result}"
    try:
        ok = op.check(result)
    except Exception as exc:  # a malformed answer the checker cannot read
        return f"unreadable answer ({type(exc).__name__}: {exc})"
    return None if ok else "wrong answer"


def run_rounds(ops, rounds, results, seconds=0.0, on_op=None):
    """At least ``rounds`` whole rounds, more while under ``seconds``.

    ``on_op`` hears the index of each op before it runs and None after; a
    traced run has one, and takes no reference readings inside an op, which
    would land inside its spans.
    """
    t0 = time.perf_counter()
    done = 0
    while done < rounds or time.perf_counter() - t0 < seconds:
        for i, op in enumerate(ops):
            if on_op is not None:
                on_op(i)
            result, timed = timing.run_timed(op.run, sample=on_op is None)
            if on_op is not None:
                on_op(None)
            results.record(op, result, timed)
        done += 1
    return done


def tail_percentile(n):
    """Highest whole percentile with at least TAIL_BEYOND of n ops beyond it."""
    for p in range(99, 0, -1):
        if n - math.ceil(p * n / 100) >= TAIL_BEYOND:
            return p
    raise ValueError(f"{n} ops leave no tail of {TAIL_BEYOND}")


def nearest_rank(sorted_values, p):
    return sorted_values[math.ceil(p * len(sorted_values) / 100) - 1]


def latency_metrics(times, pct):
    times = sorted(times)
    return statistics.median(times) * 1e3, nearest_rank(times, pct) * 1e3


# -- modes ---------------------------------------------------------------------------


def timed_run(workload, args):
    setups = []
    for _ in range(SETUP_REPS):
        ops = None  # the previous set-up goes before the next is built
        gc.collect()
        ops, steps = set_up(workload, args.seed)
        setups.append(steps)
    gc.collect()
    gc.freeze()
    results = Round()
    rounds = run_rounds(ops, workload.MIN_ROUNDS, results, args.seconds)
    pct = tail_percentile(workload.MIN_ROUNDS * len(ops))
    corrected = [t.corrected for t in results.timings]
    wall = [t.wall for t in results.timings]
    attempted = len(results.timings)
    p50, tail = latency_metrics(corrected, pct)
    raw_p50, raw_tail = latency_metrics(wall, pct)
    values = {
        "ops_per_s": (attempted - results.failed) / sum(corrected),
        "latency_p50_ms": p50,
        "latency_tail_ms": tail,
        "setup_s": statistics.median(s.corrected for s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    detail = {
        "rounds": rounds,
        "ops_per_round": len(ops),
        "tail_percentile": pct,
        "raw": {
            "ops_per_s": (attempted - results.failed) / sum(wall),
            "latency_p50_ms": raw_p50,
            "latency_tail_ms": raw_tail,
            "setup_s": statistics.median(s.wall for s in setups),
        },
        "setup_s_each": [s.corrected for s in setups],
        "reference_ms_median": statistics.median(
            r for t in results.timings for r in t.readings) * 1e3,
    }
    return results, metrics, detail


def traced_run(workload, args):
    import spans

    tracer = spans.Tracer()
    gc.collect()
    ops, steps = set_up(workload, args.seed, tracer)
    gc.collect()
    gc.freeze()
    # both rounds are checked; the traced one is what the counts describe
    results = Round()
    run_rounds(ops, TRACE_ROUNDS, results, on_op=lambda i: None)
    plain = list(results.timings)

    def on_op(i):
        tracer.op = i

    tracer.install()
    try:
        run_rounds(ops, TRACE_ROUNDS, results, on_op=on_op)
    finally:
        tracer.uninstall()
    traced = results.timings[len(plain):]
    factors = dict(steps.factors)
    factors.update(enumerate(t.factor for t in traced))  # op i ran i-th
    untraced_s = sum(t.corrected for t in plain)
    traced_s = sum(t.corrected for t in traced)
    untraced_raw = sum(t.wall for t in plain)
    traced_raw = sum(t.wall for t in traced)
    values = tracer.metrics(factors)
    values.update({
        "trace.spans": len(tracer.spans),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_pct": 100 * (traced_s - untraced_s) / untraced_s,
        "trace.overhead_raw_pct": 100 * (traced_raw - untraced_raw) / untraced_raw,
    })
    metrics = {name: (values[name], unit) for name, unit in per_layer_metrics()}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.tsv.gz")
    tracer.write(path)
    detail = {
        "spans_file": os.path.relpath(path, ROOT),
        "raw": {"untraced_s": untraced_raw, "traced_s": traced_raw},
        "setup_s": steps.corrected,
    }
    return results, metrics, detail


def per_layer_metrics():
    """(name, unit) of every metric a traced run prints."""
    import spans

    return spans.metric_names() + TRACE_METRICS


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "torcob", "__init__.py")):
        log(f"torcob sources not found under {SRC}; run from a torcob checkout")
        return 2
    sys.path.insert(0, SRC)
    workload = importlib.import_module(WORKLOADS[args.workload])
    run = traced_run if args.trace else timed_run
    results, metrics, detail = run(workload, args)
    kernels = sys.modules["torcob.kernels"]
    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "backend": kernels.BACKEND,
        "python": platform.python_version(),
    })
    log(json.dumps(detail))
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "metrics": metrics, "ops": results.ops}, fh)
    print(json.dumps({
        "correct": results.wrong == 0,
        "attempted": len(results.timings),
        "failed": results.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
