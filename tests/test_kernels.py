"""The exact product kernel against a naive dense product."""

import random
from fractions import Fraction

from torcob.coeff import GradedCoeff
from torcob.kernels import convolve, madd, mdiv


def _trim(exps):
    exps = list(exps)
    while exps and exps[-1] == 0:
        exps.pop()
    return tuple(exps)


def _add(a, b):
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    return tuple(x + y for x, y in zip(a, b))


def dense_coeff_product(ca, cb):
    out = {}
    for ma, qa in ca.items():
        for mb, qb in cb.items():
            m = _trim(_add(ma, mb))
            out[m] = out.get(m, Fraction(0)) + qa * qb
    return {m: q for m, q in out.items() if q}


def dense_product(a, b, cap):
    out = {}
    for ta, ca in a.items():
        for tb, cb in b.items():
            t = _add(ta, tb)
            if cap is not None and sum(t) > cap:
                continue
            tgt = out.setdefault(t, {})
            for m, q in dense_coeff_product(ca, cb).items():
                tgt[m] = tgt.get(m, Fraction(0)) + q
    out = {t: {m: q for m, q in c.items() if q} for t, c in out.items()}
    return {t: c for t, c in out.items() if c}


def rand_coeff(rng):
    c = {}
    for _ in range(rng.randint(1, 3)):
        m = _trim(rng.randint(0, 2) for _ in range(rng.randint(0, 3)))
        c[m] = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
    return {m: q for m, q in c.items() if q}


def rand_table(rng, nvars=2, maxdeg=3):
    out = {}
    for _ in range(rng.randint(1, 5)):
        t = tuple(rng.randint(0, maxdeg) for _ in range(nvars))
        c = rand_coeff(rng)
        if c:
            out[t] = c
    return out


def test_convolve_matches_dense_product():
    one, m1 = (), (1,)
    # (t1 + t2)(t1 - t2): the t1*t2 terms cancel; (1 + m1)(1 - m1): the m1 terms cancel
    a = {(1, 0): {one: Fraction(1)}, (0, 1): {one: Fraction(1)}}
    b = {(1, 0): {one: Fraction(1)}, (0, 1): {one: Fraction(-1)}}
    assert convolve(a, b, None) == {(2, 0): {one: 1}, (0, 2): {one: -1}}
    c = {(0, 0): {one: Fraction(1), m1: Fraction(1)}}
    d = {(0, 0): {one: Fraction(1), m1: Fraction(-1)}}
    assert convolve(c, d, None) == {(0, 0): {one: 1, (2,): -1}}
    assert convolve(a, b, 1) == {}

    rng = random.Random(6)
    for _ in range(300):
        a, b = rand_table(rng), rand_table(rng)
        cap = rng.choice([None, 0, 2, 3, 4])
        got = convolve(a, b, cap)
        assert got == dense_product(a, b, cap)
        for c in got.values():
            assert c and all(q for q in c.values())
            assert all(not m or m[-1] for m in c)  # monomial products stay trimmed
        ca, cb = rand_coeff(rng), rand_coeff(rng)
        prod = GradedCoeff(ca) * GradedCoeff(cb)
        assert prod.terms == dense_coeff_product(ca, cb)
        assert all(not m or m[-1] for m in prod.terms)


def test_convolve_accumulates_into_out():
    one, m1 = (), (1,)
    a = {(1, 0): {one: Fraction(1)}}
    b = {(0, 1): {m1: Fraction(2)}, (1, 0): {one: Fraction(-1)}}
    # out holds -a*b at t1*t2, so that entry cancels and is removed
    out = {(1, 1): {m1: Fraction(-2)}, (0, 3): {one: Fraction(5)}}
    got = convolve(a, b, None, out=out)
    assert got is out
    assert out == {(0, 3): {one: 5}, (2, 0): {one: -1}}
    assert convolve(a, b, 1, out=out) is out and out == {(0, 3): {one: 5}, (2, 0): {one: -1}}

    rng = random.Random(13)
    for _ in range(200):
        a, b, c = rand_table(rng), rand_table(rng), rand_table(rng)
        cap = rng.choice([None, 2, 4])
        want = dense_product(a, b, cap)
        for t, cc in c.items():
            tgt = want.setdefault(t, {})
            for mm, q in cc.items():
                tgt[mm] = tgt.get(mm, Fraction(0)) + q
        want = {t: {mm: q for mm, q in cc.items() if q} for t, cc in want.items()}
        out = {t: dict(cc) for t, cc in c.items()}
        assert convolve(a, b, cap, out=out) == {t: cc for t, cc in want.items() if cc}
        neg = {t: {mm: -q for mm, q in cc.items()} for t, cc in dense_product(a, b, cap).items()}
        assert convolve(a, b, cap, out=neg) == {}


def test_mdiv_inverts_madd():
    assert mdiv((2, 1), (1,)) == (1, 1)
    assert mdiv((1, 1), (1, 1)) == ()  # trailing zeros are trimmed
    assert mdiv((3, 1), (1, 1)) == (2,)
    assert mdiv((), ()) == ()
    assert mdiv((0, 2), ()) == (0, 2)
    assert mdiv((1,), (2,)) is None
    assert mdiv((1,), (0, 1)) is None  # m2 does not divide m1
    assert mdiv((), (1,)) is None
    rng = random.Random(14)
    for _ in range(300):
        a = _trim(rng.randint(0, 2) for _ in range(rng.randint(0, 3)))
        b = _trim(rng.randint(0, 2) for _ in range(rng.randint(0, 3)))
        assert mdiv(madd(a, b), b) == a
        divides = len(b) <= len(a) and all(x <= y for x, y in zip(b, a))
        assert (mdiv(a, b) is not None) == divides
