"""Workload ``membership``: Chern-class division.

Each op is one ``TorusContext.ideal_membership_product`` call on a seeded
instance in the style of the acceptance battery's ideal criterion: a random
homogeneous element of S(T) at rank 2 or 3, one or two characters with
multiplicities up to 3, and every third instance built as a multiple of the
whole product (every other third, with two characters, of the first factor
only).  The characters cover the axis, e_a - e_b and adapted-coordinate
division paths.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from ops import Op

MIN_ROUNDS = 1
INSTANCES = 90
CONFIG_SEED = 9
COEFF_DEGREE = 3
TRUNCATION = 8

CHARS = {
    2: [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (1, -2)],
    3: [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, -1), (1, 1, 1),
        (2, 1, 1)],
}


def extends_to_basis(a, b) -> bool:
    """A pair of characters extends to a lattice basis: 2x2 minors have gcd 1."""
    g = 0
    for i, j in itertools.combinations(range(len(a)), 2):
        g = math.gcd(g, a[i] * b[j] - a[j] * b[i])
    return g == 1


def m_monomials(weight, top):
    """Exponent tuples (trailing zeros trimmed) of m-monomials of a weight."""
    out = []
    for exps in itertools.product(*(range(weight // i + 1) for i in range(1, top + 1))):
        if sum((i + 1) * e for i, e in enumerate(exps)) == weight:
            exps = list(exps)
            while exps and exps[-1] == 0:
                exps.pop()
            out.append(tuple(exps))
    return out


def random_terms(cfg, rng, rank, j, maxdeg):
    """{t-exponents: {m-exponents: q}}: one term of cohomological degree j in
    each t-degree from max(j, 0) to maxdeg; the seeded stream draws only the
    coefficients."""
    terms = {}
    for e in range(max(j, 0), maxdeg + 1):
        t = [0] * rank
        for _ in range(e):
            t[cfg.randrange(rank)] += 1
        mon = cfg.choice(m_monomials(e - j, COEFF_DEGREE))
        terms[tuple(t)] = {mon: Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)))}
    return terms


def instances(seed):
    """(rank, factors, kind, terms) per instance; kind 0 is a full multiple.

    The ranks, characters, multiplicities and the terms' exponents come from
    a fixed stream, so every seed runs the same mix of division paths and
    sizes; the seed draws the coefficients.
    """
    cfg = random.Random(CONFIG_SEED)
    rng = random.Random(seed)
    out = []
    for i in range(INSTANCES):
        rank = cfg.choice((2, 3))
        while True:
            s = cfg.choice((1, 2, 2))
            chis = cfg.sample(CHARS[rank], s)
            if s == 1 or extends_to_basis(*chis):
                break
        ds = [cfg.randint(1, 3)] if s == 1 else [cfg.randint(1, 2) for _ in chis]
        kind = i % 3
        if kind == 0:
            terms = random_terms(cfg, rng, rank, cfg.choice((0, 1)), 2)
        elif kind == 1 and s == 2:
            terms = random_terms(cfg, rng, rank, 0, 2)
        else:
            terms = random_terms(cfg, rng, rank, cfg.choice((0, 1, 2)), 4)
        out.append((rank, list(zip(chis, ds)), kind, terms))
    return out


def setup(seed, step):
    from torcob.coeff import GradedCoeff
    from torcob.fgl import build
    from torcob.series import TruncSeries
    from torcob.torus import TorusContext

    specs = step("inputs", lambda: instances(seed))

    def contexts():
        law = build(COEFF_DEGREE, TRUNCATION)
        return {r: TorusContext(r, law) for r in CHARS}

    ctxs = step("contexts", contexts)

    def elements():
        out = []
        for rank, factors, kind, terms in specs:
            T = ctxs[rank]
            f = TruncSeries(T.vars, {t: GradedCoeff(dict(c)) for t, c in terms.items()}, T.D)
            if kind == 0:
                multiplied = factors
            elif kind == 1 and len(factors) == 2:
                multiplied = factors[:1]
            else:
                multiplied = []
            for chi, d in multiplied:
                f = f * T.character_series(chi) ** d
            out.append(f)
        return out

    elems = step("elements", elements)

    def warm_up():
        # Chern classes, adapted coordinates and unit inverses of every factor
        seen = set()
        for rank, factors, kind, terms in specs:
            T = ctxs[rank]
            for chi, d in factors:
                if (rank, chi, d) not in seen:
                    seen.add((rank, chi, d))
                    T.divide_by_chern(T.character_series(chi) ** d, chi, d)

    step("warm-up", warm_up)

    ops = []
    for (rank, factors, kind, terms), f in zip(specs, elems):
        label = f"rank {rank} {factors} {'multiple' if kind == 0 else 'random'}"
        ops.append(Op(label, _runner(ctxs[rank], factors, f), _checker(kind == 0)))
    return ops


def _runner(T, factors, f):
    return lambda: T.ideal_membership_product(factors, f)


def _checker(is_multiple):
    def check(result):
        in_product, in_intersection = result
        return in_product == in_intersection and (in_product or not is_multiple)

    return check
