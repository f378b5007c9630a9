#!/usr/bin/env python3
"""Time the exact convolution kernel, ``torcob.kernels.convolve``.

The kernel (truncated sparse convolution) is the hot inner loop of every
series multiplication, Euler-class product and exact division.  The tables
hold integer numerators, as ``TruncSeries`` passes them (its terms over one
shared denominator).  Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_kernels.py
"""

import random
import time

from torcob.kernels import convolve


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
            coeff[tuple(m)] = rng.randint(-9, 9) * rng.randint(1, 7)
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


def main():
    rng = random.Random(2024)
    rows = []
    for name, make in [
        ("series mul (3 vars, deg 6)", workload_series_mul),
        ("polynomial mul (uncapped)", workload_polynomial_mul),
    ]:
        rows.append((name, timeit(convolve, *make(rng))))
    rows.append(("euler chain (6 factors)", timeit(workload_euler_chain(rng))))

    print(f"{'workload':34s} {'convolve':>10s}")
    for name, t in rows:
        print(f"{name:34s} {t * 1e3:9.2f}ms")


if __name__ == "__main__":
    main()
