#!/usr/bin/env python3
"""Time the exact convolution kernel, ``torcob.kernels.convolve``, the
exact division built on it, ``TruncSeries.divide_exact``, product
membership, ``TorusContext.ideal_membership_product``, and the bivariate
formal group law ``F``.

The kernel (truncated sparse convolution) is the hot inner loop of every
series multiplication, Euler-class product and exact division.  The tables
hold integer numerators on packed m-keys, as ``TruncSeries`` passes them
(its terms over one shared denominator).  The division row divides
membership-sized Chern-power multiples, and as many near-multiples, by
c(chi)^2 with chi = (1, 1, 1) at rank 3, truncation 8 and ``Dc = 3``.  The
membership row tests, in the same ring, three two-factor multiples whose
factors take no short cut; its time is the best warm pass, and it reports
apart the first pass, which also fills the context's cache of Chern-power
products, and the exact divisions (``divide_exact`` calls) each call runs.  The F row builds F = e(l(u) + l(v)) of the universal law at
truncation 20 with ``Dc = 6``, its exponential built beforehand.  The law
rows time, on a fresh universal context at truncation D = 8, 16 and 24 with
``Dc = D``, the exponential ``exp`` (its Lagrange inversion, the partition
sum of ``coeff.inverse_powers``, and the check e(l(u)) = u) and the
integration weights ``weight_factors(D - 1)``.  The
``is_class`` rows run the edge congruence test of ``gkm``: on the universal
flag varieties Fl(6) and Fl(7) (every edge character e_a - e_b) for the
classes x1^3 and x1*x2, where the first call also builds the graph's edge
tests, and on the point classes of the six P^1 characters of the
``integrate`` benchmark whose edge takes neither short cut (truncation 2,
``Dc = 1``, both fixed points, 50 passes).  The expansion rows run the
universal ``gkm forget`` of 1 + m1*h^2 on P^3, P^4 and P^5 in the basis
1, h, ..., h^n, in the library at the command line's defaults (truncation
2n + 2, ``Dc = 6``), and report the linear systems the t-degree lifting
solves.  The powers rows build c(1, 1, 1)^d for d = 2, 3 and 4 on a fresh
context at rank 3, truncation 8 and ``Dc = 3``, its Chern class built
beforehand, and report the ``mul_acc`` calls and coefficient products of one
build: a square forms each unordered pair of t-entries once.

The reach rows run whole commands, each in a child process with a
wall-clock limit: ``flag kernel x1`` and ``flag kernel x1+...+x6`` at rank
6, ``gkm integrate`` of the class 1 on ``gkm gen pn --n 9`` and
``--n 12`` with ``--coeff-deg n`` (the graph made beforehand, untimed, and
read from stdin), ``flag nf`` of x4^60 at rank 4, x3^3000 at rank 3 and
x1 at rank 24, ``flag kernel`` of x6^16 and x6^20 at rank 6 (every part
reduced, far above the top degree 15), ``flag nf`` of x6^12 at rank 6
and of the staircase monomial x1^2*x2^2*x3^2*x4^2*x5^2 at rank 22, two
``false`` ``flag kernel`` answers at rank 6, each an ideal part ((x1+...+x6)^3,
or (x1+...+x6)(x1^2+...+x6^2)) plus the staircase monomial
x1^5*x2^4*x3^3*x4^2, the universal ``gkm forget`` of 1 + m1*h^2 in the
basis 1, h, ..., h^n on P^6 and P^11 at the command line's defaults (the
graph made beforehand and read from stdin), and ``flag nf`` of x12^13 at
rank 24, whose wall h_13(x1..x12) is refused (exit 2).  Each prints one
JSON object: the wall time of the child, its peak RSS (``VmHWM``, read by
the child), its exit status and the one expected, and the SHA-256 of its
stdout; a command that outlives ``REACH_LIMIT`` seconds is killed and
recorded as a timeout, and the run goes on.  ``--src DIR`` picks the source
tree the children import, so one copy of this script measures two trees.
Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_kernels.py
    PYTHONPATH=src python benchmarks/bench_kernels.py --reach [--src DIR]
"""

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

from torcob.coeff import GradedCoeff
from torcob.errors import NotDivisible
from torcob.fgl import build
from torcob import kernels
from torcob.kernels import convolve, pack, unpack
from torcob.series import TruncSeries
from torcob.torus import TorusContext


def rand_table(rng, nvars, maxdeg, nterms, mterms):
    out = {}
    for _ in range(nterms):
        exps = [0] * nvars
        for _ in range(rng.randint(0, maxdeg)):
            exps[rng.randrange(nvars)] += 1
        coeff = {}
        for _ in range(mterms):
            m = [rng.randint(0, 2) for _ in range(rng.randint(0, 3))]
            while m and m[-1] == 0:
                m.pop()
            coeff[pack(m)] = rng.randint(-9, 9) * rng.randint(1, 7)
        coeff = {k: v for k, v in coeff.items() if v}
        if coeff:
            out[tuple(exps)] = coeff
    return out


def timeit(fn, *args, repeat=5):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def workload_series_mul(rng):
    """Two dense-ish degree-6 series in three variables, capped product."""
    a = rand_table(rng, 3, 6, 70, 3)
    b = rand_table(rng, 3, 6, 70, 3)
    return (a, b, 6)


def workload_polynomial_mul(rng):
    """Uncapped product of sparse higher-degree tables (coinvariant style)."""
    a = rand_table(rng, 4, 8, 40, 2)
    b = rand_table(rng, 4, 8, 40, 2)
    return (a, b, None)


def workload_euler_chain(rng):
    """Chained products imitating an Euler-class denominator build."""
    tables = [rand_table(rng, 3, 2, 8, 2) for _ in range(6)]

    def chain():
        acc = tables[0]
        for t in tables[1:]:
            acc = convolve(acc, t, 12)
        return acc

    return chain


def workload_chern_division(rng):
    """Divide Chern-power multiples and perturbed ones by c(1, 1, 1)^2."""
    T = TorusContext(3, build(3, 8))
    g = T.chern_power((1, 1, 1), 2)
    dividends = []
    for i in range(20):
        terms = rand_table(rng, 3, 4, 8, 4)
        coeffs = {t: GradedCoeff({unpack(m): Fraction(x) for m, x in c.items()}) for t, c in terms.items()}
        f = TruncSeries(T.vars, coeffs, 6) * g
        if i % 2:
            f = f + T.var(0) ** 3
        dividends.append(f)

    def divide_all():
        for f in dividends:
            try:
                f.divide_exact(g)
            except NotDivisible:
                pass

    return divide_all


MEMBERSHIP_FACTORS = (
    [((2, 1, 1), 2), ((1, 0, 1), 1)],
    [((1, 0, 1), 1), ((2, 1, 1), 1)],
    [((1, 1, 0), 1), ((2, 1, 1), 1)],
)


def workload_membership(rng):
    """Product membership of multiples of c(chi_1)^(d_1) * c(chi_2)^(d_2)."""
    T = TorusContext(3, build(3, 8))
    cases = []
    for factors in MEMBERSHIP_FACTORS:
        terms = rand_table(rng, 3, 2, 6, 3)
        f = TruncSeries(
            T.vars,
            {t: GradedCoeff({unpack(m): Fraction(x) for m, x in c.items()}) for t, c in terms.items()},
            T.D,
        )
        for chi, d in factors:
            f = f * T.chern_power(chi, d)
        cases.append((factors, f))

    def test_all():
        for factors, f in cases:
            if T.ideal_membership_product(factors, f) != (True, True):
                raise AssertionError(f"a multiple of {factors} was refused")

    first = timeit(test_all, repeat=1)  # also fills the Chern-product cache
    divisions = []
    divide = TruncSeries.divide_exact

    def counted(f, g):
        divisions.append(g)
        return divide(f, g)

    TruncSeries.divide_exact = counted  # for one counted warm pass
    try:
        test_all()
    finally:
        TruncSeries.divide_exact = divide
    return test_all, first, len(divisions) / len(cases)


def workload_chern_power(d):
    """(best of 7, mul_acc calls, coefficient products): c(1, 1, 1)^d on a
    fresh context at rank 3, truncation 8, Dc = 3, its Chern class built first."""
    chi = (1, 1, 1)

    def fresh():
        T = TorusContext(3, build(3, 8))
        T.character_series(chi)
        return T

    best = float("inf")
    for _ in range(7):
        T = fresh()
        t0 = time.perf_counter()
        T.chern_power(chi, d)
        best = min(best, time.perf_counter() - t0)
    counts = [0, 0]
    real = kernels.mul_acc

    def counting(out, a_items, b):
        counts[0] += 1
        counts[1] += len(a_items) * len(b)
        return real(out, a_items, b)

    T = fresh()
    kernels.mul_acc = counting  # for one counted build
    try:
        T.chern_power(chi, d)
    finally:
        kernels.mul_acc = real
    return best, *counts


def workload_bivariate_law():
    """F of the universal law at truncation 20, Dc = 6, from a fresh context per run."""

    def build_F():
        ctx = build(6, 20)
        ctx.exp  # built on first read, outside the F row's subject
        t0 = time.perf_counter()
        ctx.F
        return time.perf_counter() - t0

    return build_F


def workload_law(D):
    """(exp, weights): best of 3 of the universal law's exponential (its
    Lagrange inversion and the check e(l(u)) = u) and of ``weight_factors(D - 1)``,
    each on a fresh context at truncation D with ``Dc = D``."""
    exp = timeit(lambda: build(D, D).exp, repeat=3)
    weights = timeit(lambda: build(D, D).weight_factors(D - 1), repeat=3)
    return exp, weights


def workload_flag_is_class(n, exps):
    """(first, best of 3): is_class of x^exps on the universal flag variety Fl(n)."""
    from torcob import gkm

    g = gkm.flag_graph(n)
    T = TorusContext(n, build(g.dim, g.dim + 1))
    alpha = gkm.constant_class(T, g, 1)
    for k, e in enumerate(exps):
        for _ in range(e):
            alpha = alpha * gkm.flag_tautological(T, g, k + 1)
    first = timeit(gkm.is_class, T, g, alpha, repeat=1)
    return first, timeit(gkm.is_class, T, g, alpha, repeat=3)


P1_OTHER_CHARS = [(1, 1), (2, 3), (-1, 2), (1, 1, 1), (2, 3, 5), (0, 2, -1)]


def workload_p1_point_edges():
    """is_class of both point classes on each P^1 whose character takes no short cut."""
    from torcob import gkm

    cases = []
    for chi in P1_OTHER_CHARS:
        g = gkm.p1_graph(chi)
        T = TorusContext(len(chi), build(1, 2))
        for v in g.vertices:
            cases.append((T, g, gkm.pushforward_point(T, g, v, T.one())))

    def check_all():
        for _ in range(50):
            for T, g, alpha in cases:
                if not gkm.is_class(T, g, alpha):
                    raise AssertionError("a point class was refused")

    check_all()  # fills the Chern-class caches
    return check_all


def workload_expansion(n):
    """(best of 3, systems solved): forget of 1 + m1*h^2 on universal P^n in 1, h, ..., h^n."""
    from torcob import gkm

    g = gkm.pn_graph(n)
    T = TorusContext(n, build(6, 2 * n + 2))
    h = gkm.pn_hyperplane(T, g)
    basis = [gkm.constant_class(T, g, 1)]
    for _ in range(n):
        basis.append(basis[-1] * h)
    alpha = basis[0] + basis[2].mul_coeff(GradedCoeff.generator(1))
    systems = []
    solve = gkm.solve

    def counted(rows, rhs, ncols):
        systems.append(ncols)
        return solve(rows, rhs, ncols)

    gkm.solve = counted  # for one counted call
    try:
        coords = [str(c) for c in gkm.tensor_with_L(T, g, basis, alpha)]
    finally:
        gkm.solve = solve
    if coords != ["1", "0", "m1"] + ["0"] * (n - 2):
        raise AssertionError(f"forget on P^{n} gave {coords}")
    return timeit(gkm.tensor_with_L, T, g, basis, alpha, repeat=3), len(systems)


def timing_rows():
    rng = random.Random(2024)
    rows = []
    for name, make in [
        ("series mul (3 vars, deg 6)", workload_series_mul),
        ("polynomial mul (uncapped)", workload_polynomial_mul),
    ]:
        rows.append((name, timeit(convolve, *make(rng))))
    rows.append(("euler chain (6 factors)", timeit(workload_euler_chain(rng))))
    rows.append(("divide_exact by c(1,1,1)^2 (x20)", timeit(workload_chern_division(rng))))
    test_all, first, per_call = workload_membership(rng)
    rows.append((
        "membership of 3 products (x3)", timeit(test_all),
        f"first pass {first * 1e3:.1f}ms, {per_call:.2f} divide_exact/call",
    ))
    for d in (2, 3, 4):
        best, calls, products = workload_chern_power(d)
        rows.append((f"chern_power((1,1,1), {d})", best,
                     f"{calls} mul_acc calls, {products} coefficient products"))
    build_F = workload_bivariate_law()
    rows.append(("F at D = 20, Dc = 6", min(build_F() for _ in range(3))))
    for D in (8, 16, 24):
        exp, weights = workload_law(D)
        rows.append((f"law exp at D = Dc = {D}", exp))
        rows.append((f"law weight_factors({D - 1}), Dc = {D}", weights))
    for n in (6, 7):
        for label, exps in (("x1^3", (3,)), ("x1*x2", (1, 1))):
            first, best = workload_flag_is_class(n, exps)
            rows.append((f"is_class Fl({n}) {label}", best, f"first call {first * 1e3:.1f}ms"))
    rows.append(("is_class p1 point classes (x50)", timeit(workload_p1_point_edges())))
    for n in (3, 4, 5):
        best, systems = workload_expansion(n)
        rows.append((f"forget 1 + m1*h^2 on P^{n}", best, f"{systems} systems solved"))

    print(f"{'workload':34s} {'time':>10s}")
    for name, t, *note in rows:
        print(f"{name:34s} {t * 1e3:9.2f}ms", *note)


REACH_LIMIT = 30.0  # seconds of wall time per reach row

# The child: the command line's main, then its own peak RSS (KiB) as the last
# stderr line.  That is VmHWM, the peak of the child's own address space:
# getrusage's ru_maxrss keeps the parent's peak across fork and exec.
CHILD = """import sys
from torcob.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
with open("/proc/self/status") as status:
    print(next(l.split()[1] for l in status if l.startswith("VmHWM:")), file=sys.stderr)
sys.exit(code)
"""


def run_child(src, argv, stdin_text=""):
    """(seconds, max RSS in KiB or None, exit status or None, stdout): one command in a child."""
    env = dict(os.environ, PYTHONPATH=src)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD, *argv], env=env,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(stdin_text.encode(), timeout=REACH_LIMIT)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        return time.perf_counter() - t0, None, None, out
    seconds = time.perf_counter() - t0
    last = err.decode().splitlines()[-1:]
    rss = int(last[0]) if last and last[0].isdigit() else None
    return seconds, rss, proc.returncode, out


def _pn_forget(src, n):
    """(argv, graph text): universal forget of 1 + m1*h^2 on P^n in 1, h, ..., h^n."""
    _, _, code, graph = run_child(src, ["gkm", "gen", "pn", "--n", str(n)])
    if code != 0:
        raise RuntimeError(f"gkm gen pn --n {n} exited {code}")
    vertices = json.loads(graph)["vertices"]
    # h is c(e_v) at the vertex v, with e_0 = 0 (``gkm.pn_hyperplane``)
    hyper = {v: "0" if v == "0" else f"chern({','.join(str(int(k == int(v) - 1)) for k in range(n))})"
             for v in vertices}
    basis = [{v: "1" if k == 0 else "0" if h == "0" else f"{h}^{k}" for v, h in hyper.items()}
             for k in range(n + 1)]
    cls = {v: "1" if h == "0" else f"1 + m1*{h}^2" for v, h in hyper.items()}
    return ["gkm", "forget", "--class", json.dumps(cls), "--basis", json.dumps(basis)], graph.decode()


def reach_rows(src):
    """Yield one JSON-ready dict per reach command, run in a child under ``src``."""
    jobs = [
        ("flag kernel x1 --rank 6", ["flag", "kernel", "x1", "--rank", "6"], "", 0),
        ("flag kernel x1+...+x6 --rank 6",
         ["flag", "kernel", "+".join(f"x{k}" for k in range(1, 7)), "--rank", "6"], "", 0),
    ]
    for n in (9, 12):
        _, _, code, graph = run_child(src, ["gkm", "gen", "pn", "--n", str(n)])
        if code != 0:
            raise RuntimeError(f"gkm gen pn --n {n} exited {code}")
        cls = json.dumps({v: "1" for v in json.loads(graph)["vertices"]})
        argv = ["gkm", "integrate", "--class", cls, "--coeff-deg", str(n)]
        jobs.append((f"gkm integrate 1 on pn({n})", argv, graph.decode(), 0))
    for expr, rank in (("x4^60", 4), ("x3^3000", 3), ("x1", 24)):
        jobs.append((f"flag nf {expr} --rank {rank}", ["flag", "nf", expr, "--rank", str(rank)], "", 0))
    for expr in ("x6^16", "x6^20"):
        jobs.append((f"flag kernel {expr} --rank 6", ["flag", "kernel", expr, "--rank", "6"], "", 0))
    for expr, rank in (("x6^12", 6), ("x1^2*x2^2*x3^2*x4^2*x5^2", 22)):
        jobs.append((f"flag nf {expr} --rank {rank}", ["flag", "nf", expr, "--rank", str(rank)], "", 0))
    e1 = "(" + "+".join(f"x{k}" for k in range(1, 7)) + ")"
    p2 = "(" + "+".join(f"x{k}^2" for k in range(1, 7)) + ")"
    for label, ideal in (("e1^3", f"{e1}^3"), ("e1*p2", f"{e1}*{p2}")):
        expr = f"{ideal} + x1^5*x2^4*x3^3*x4^2"
        jobs.append((f"flag kernel {label} + x1^5*x2^4*x3^3*x4^2 --rank 6",
                     ["flag", "kernel", expr, "--rank", "6"], "", 0))
    for n in (6, 11):
        argv, graph = _pn_forget(src, n)
        jobs.append((f"gkm forget 1 + m1*h^2 on pn({n})", argv, graph, 0))
    jobs.append(("flag nf x12^13 --rank 24", ["flag", "nf", "x12^13", "--rank", "24"], "", 2))
    for name, argv, stdin_text, expect in jobs:
        seconds, rss, code, out = run_child(src, argv, stdin_text)
        yield {
            "row": name,
            "seconds": round(seconds, 4),
            "max_rss_mib": None if rss is None else round(rss / 1024, 1),
            "exit": code,
            "expected_exit": expect,
            "timed_out": code is None,
            "stdout_sha256": hashlib.sha256(out).hexdigest(),
        }


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reach", action="store_true", help="run only the reach rows")
    parser.add_argument("--src", default=os.path.join(here, os.pardir, "src"),
                        help="source tree the reach rows import (default: this repository's)")
    args = parser.parse_args()
    if not args.reach:
        timing_rows()
    for row in reach_rows(os.path.abspath(args.src)):
        print(json.dumps(row), flush=True)

if __name__ == "__main__":
    main()
