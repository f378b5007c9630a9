#!/usr/bin/env python3
"""Time whole rounds, or set-ups, of an e2ebench workload on two trees in one process.

    python3 benchmarks/ab_rounds.py PARENT_DIR CHANGE_DIR --workload W \\
        [--rounds N] [--seed S] [--setup]

Each DIR is a checkout holding ``src/torcob``.  The script loads each tree's
``torcob`` in turn (dropping every ``torcob*`` module from ``sys.modules``
in between), builds that tree's ops with the workload's own ``setup`` from
``e2ebench/`` beside this script, and checks every answer once.  It then
runs N rounds per tree, whole rounds alternating between the trees: the
first half of the pairs runs the parent first (ABAB...), the second half
the change first (BABA...).  Before each round the tree's modules are put
back into ``sys.modules``, since torcob imports some modules inside
functions, and garbage is collected outside the timer; a round is timed by
``time.thread_time()``, so other processes on the machine do not count.

With ``--setup`` the script times set-ups instead of rounds: each one drops
the ``torcob*`` modules and times a fresh ``import torcob.cli`` plus the
workload's ``setup(seed, step)`` by ``time.thread_time()``, as
``e2ebench/run.py``'s ``setup_s`` covers them, N per tree in the same
alternating order, after each tree's ops have been checked once.

Prints one JSON object: the median round (or set-up) per tree (ms) and the
median and quartiles of the per-pair ratio change / parent.  Passing one
tree twice gives an A/A run, the noise floor of the ratio.  Nothing under
``e2ebench/`` is changed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
E2E = os.path.join(os.path.dirname(HERE), "e2ebench")
WORKLOADS = {"integrate": "wl_integrate", "membership": "wl_membership", "cli": "wl_cli"}


def _torcob_modules():
    return {n: m for n, m in sys.modules.items() if n == "torcob" or n.startswith("torcob.")}


def fresh_setup(tree, workload, seed):
    """(ops, torcob modules, seconds): a fresh ``import torcob.cli`` from one
    tree and the workload's set-up, timed together by thread time."""
    for name in _torcob_modules():
        del sys.modules[name]
    src = os.path.join(os.path.abspath(tree), "src")
    if not os.path.isdir(os.path.join(src, "torcob")):
        sys.exit(f"ab_rounds: no src/torcob under {tree}")
    sys.path.insert(0, src)
    gc.collect()
    try:
        t0 = time.thread_time()
        importlib.import_module("torcob.cli")
        ops = workload.setup(seed, lambda name, fn: fn())
        seconds = time.thread_time() - t0
        modules = _torcob_modules()
    finally:
        sys.path.remove(src)
    return ops, modules, seconds


def load(tree, workload, seed):
    """(ops, torcob modules) of one tree, every answer checked once."""
    ops, modules, _ = fresh_setup(tree, workload, seed)
    for op in ops:
        if not op.check(op.run()):
            sys.exit(f"ab_rounds: wrong answer from {tree}: {op.label}")
    return ops, modules


def timed_round(ops, modules):
    sys.modules.update(modules)
    gc.collect()
    t0 = time.thread_time()
    for op in ops:
        op.run()
    return time.thread_time() - t0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--rounds", type=int, default=40, help="rounds per tree (default 40)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--setup", action="store_true",
                    help="time a fresh import plus the workload's set-up instead of rounds")
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("--rounds must be at least 2")

    sys.path.insert(0, E2E)
    workload = importlib.import_module(WORKLOADS[args.workload])
    dirs = (args.parent, args.change)
    if args.setup:
        for tree in dirs:
            load(tree, workload, args.seed)

        def timed(side):
            return fresh_setup(dirs[side], workload, args.seed)[2]
    else:
        trees = [load(tree, workload, args.seed) for tree in dirs]
        gc.collect()
        gc.freeze()

        def timed(side):
            return timed_round(*trees[side])

    times = ([], [])
    for i in range(args.rounds):
        for side in ((0, 1) if 2 * i < args.rounds else (1, 0)):
            times[side].append(timed(side))
    ratios = [c / p for p, c in zip(*times)]
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    key = "median_setup_ms" if args.setup else "median_round_ms"
    print(json.dumps({
        "workload": args.workload,
        "mode": "setup" if args.setup else "rounds",
        "seed": args.seed,
        "rounds": args.rounds,
        "parent": {"dir": args.parent, key: statistics.median(times[0]) * 1e3},
        "change": {"dir": args.change, key: statistics.median(times[1]) * 1e3},
        "ratio": {"median": statistics.median(ratios), "q1": q1, "q3": q3},
    }))


if __name__ == "__main__":
    main()
