"""Workload ``integrate``: Bott residue integration.

Each op is one ``gkm.integrate`` call, class check included, on a fixed list
of jobs.  Every job runs at the truncation ``gkm.required_guarantee`` asks
for, in a context built during set-up.  The point-class vertices and the
flag(2) tautological class come from a fixed stream, so every seed does the
same work; the seed shuffles the job order and picks the multiplicative
parameter and the rational point of the checks.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import oracle
from ops import Op

MIN_ROUNDS = 4
CONFIG_SEED = 7

# The primitive characters of the acceptance battery's P^1 criterion.
P1_CHARS = [
    (1,), (-1,),
    (1, 0), (0, 1), (1, -1), (1, 1), (2, 3), (-1, 2),
    (1, 0, 0), (1, 1, 1), (1, -1, 0), (2, 3, 5), (0, 2, -1),
]
BETAS = [Fraction(2, 5), Fraction(-2, 5), Fraction(3, 5), Fraction(-3, 5)]
# The multiplicative top-degree monomial on flag(3): x1^2 x2.
FLAG3_MULT_MONOMIAL = (2, 1, 0)


def job_list(seed):
    """(label, graph kind, graph arg, law, Dc, class, expected) for one round.

    A class is "one", ("point", vertex), ("h", k) or ("x", exponents);
    an expected value is an oracle polynomial in the m_i, or a thunk giving
    one (residue sums at the seeded point, computed when first checked).
    """
    cfg = random.Random(CONFIG_SEED)
    rng = random.Random(seed)
    jobs = []
    for chi in P1_CHARS:
        v = cfg.choice(["0", "inf"])
        jobs.append((f"p1{chi} [P1]", "p1", chi, None, 1, "one", oracle.m(1, 2)))
        jobs.append((f"p1{chi} point@{v}", "p1", chi, None, 1, ("point", v), oracle.const(1)))
    # on pn(3) only classes of degree <= 2: a degree-3 class needs a context
    # at truncation 15, which alone would double the set-up time
    for n, top in ((2, 3), (3, 2)):
        jobs.append((f"pn({n}) [P{n}]", "pn", n, None, n, "one", oracle.m(n, n + 1)))
        for k in range(1, top + 1):
            # (n - k + 1) m_(n-k), with [P^0] = 1 and 0 above the top degree
            want = {} if k > n else oracle.const(1) if k == n else oracle.m(n - k, n - k + 1)
            jobs.append((f"pn({n}) h^{k}", "pn", n, None, n, ("h", k), want))
    v = str(cfg.randrange(3))
    jobs.append((f"pn(2) point@{v}", "pn", 2, None, 2, ("point", v), oracle.const(1)))

    point = _generic_point(rng, 3)
    beta = rng.choice(BETAS)
    k = cfg.randrange(2)
    exps2 = (1, 0) if k == 0 else (0, 1)
    jobs.append(("flag(2) [Fl2]", "flag", 2, None, 1, "one", oracle.m(1, 2)))
    jobs.append((f"flag(2) x{k + 1}", "flag", 2, None, 1, ("x", exps2),
                 _ab(2, exps2, point[:2])))
    v2 = cfg.choice(["12", "21"])
    jobs.append((f"flag(2) point@{v2}", "flag", 2, None, 1, ("point", v2), oracle.const(1)))

    jobs.append(("flag(3) additive [Fl3]", "flag", 3, "additive", 0, "one",
                 _ab(3, (0, 0, 0), point)))
    for exps in _top_monomials(3, 3):
        jobs.append((f"flag(3) additive x^{exps}", "flag", 3, "additive", 0, ("x", exps),
                     _ab(3, exps, point)))
    mult = ("multiplicative", beta)
    jobs.append((f"flag(3) multiplicative:{beta} [Fl3]", "flag", 3, mult, 0, "one",
                 _ab(3, (0, 0, 0), point, beta)))
    # a top-degree class integrates to the same rational under every law
    jobs.append((f"flag(3) multiplicative:{beta} x^{FLAG3_MULT_MONOMIAL}", "flag", 3, mult,
                 0, ("x", FLAG3_MULT_MONOMIAL), _ab(3, FLAG3_MULT_MONOMIAL, point)))
    rng.shuffle(jobs)
    return jobs


def _top_monomials(n, deg):
    out = []
    for combo in itertools.combinations_with_replacement(range(n), deg):
        exps = [0] * n
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return out


def _generic_point(rng, n):
    """Distinct nonzero rationals away from the multiplicative poles 1/beta."""
    poles = {1 / b for b in BETAS}
    values = set()
    while len(values) < n:
        q = Fraction(rng.randint(-40, 40), rng.randint(1, 13))
        if q and q not in poles:
            values.add(q)
    return tuple(sorted(values))


def _ab(n, exps, point, beta=None):
    def value():
        total = oracle.flag_residue_sum(n, exps, point, beta)
        if beta is not None and total != beta ** (n * (n - 1) // 2):
            raise AssertionError(f"residue sum {total} is not beta^dim")
        return oracle.const(total)

    return value


def setup(seed, step):
    """Build contexts, classes and warm caches; return the ops of one round."""
    from torcob import gkm
    from torcob.fgl import build
    from torcob.torus import TorusContext

    jobs = step("inputs", lambda: job_list(seed))

    def graph(kind, arg):
        return gkm.p1_graph(arg) if kind == "p1" else gkm.generate(kind, n=arg)

    def make_class(T, g, kind, cls):
        if cls == "one":
            return gkm.constant_class(T, g, 1)
        if cls[0] == "point":
            return gkm.pushforward_point(T, g, cls[1], T.one())
        if cls[0] == "h":
            h = gkm.pn_hyperplane(T, g)
            out = h
            for _ in range(cls[1] - 1):
                out = out * h
            return out
        out = gkm.constant_class(T, g, 1)
        for k, e in enumerate(cls[1]):
            for _ in range(e):
                out = out * gkm.flag_tautological(T, g, k + 1)
        return out

    def truncations():
        # the demand of required_guarantee, read off each class in a context
        # just deep enough to hold it (every class here has degree <= 3)
        probes = {}
        out = []
        for label, kind, arg, law, dc, cls, want in jobs:
            g = graph(kind, arg)
            key = (g.rank, law, dc)
            if key not in probes:
                probes[key] = TorusContext(g.rank, build(dc, 4, law))
            out.append(gkm.required_guarantee(g, make_class(probes[key], g, kind, cls)))
        return out

    needs = step("truncations", truncations)

    def contexts():
        out = {}
        for (label, kind, arg, law, dc, cls, want), need in zip(jobs, needs):
            key = (graph(kind, arg).rank, need, law, dc)
            if key not in out:
                out[key] = TorusContext(key[0], build(dc, need, law))
        return out

    ctxs = step("contexts", contexts)

    def classes():
        out = []
        for (label, kind, arg, law, dc, cls, want), need in zip(jobs, needs):
            g = graph(kind, arg)
            T = ctxs[(g.rank, need, law, dc)]
            out.append((T, g, make_class(T, g, kind, cls)))
        return out

    built = step("classes", classes)

    def warm_up():
        # fill the lazily built Chern, transform and unit-inverse caches
        for T, g, alpha in built:
            for v in g.vertices:
                gkm.euler_class(T, g, v)
            gkm.is_class(T, g, alpha)

    step("warm-up", warm_up)

    ops = []
    for (label, kind, arg, law, dc, cls, want), (T, g, alpha) in zip(jobs, built):
        ops.append(Op(label, _runner(gkm, T, g, alpha), _checker(want)))
    return ops


def _runner(gkm, T, g, alpha):
    return lambda: gkm.integrate(T, g, alpha)


def lazard_value(coeff) -> dict:
    """An oracle polynomial from a GradedCoeff's exponent table."""
    out = {}
    for exps, q in coeff.terms.items():
        mon = tuple(sorted((f"m{p + 1}", e) for p, e in enumerate(exps) if e))
        out[mon] = Fraction(q)
    return out


def _checker(want):
    cache = []

    def check(result):
        if not cache:
            cache.append(want() if callable(want) else want)
        return lazard_value(result) == cache[0]

    return check
