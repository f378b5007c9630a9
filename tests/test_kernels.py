"""The exact product kernel against a naive dense product, and its packed m-keys
against the exponent tuples they encode."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from torcob.coeff import GradedCoeff
from torcob.errors import TooLarge
from torcob.kernels import (
    MAX_EXP,
    MAX_GENERATORS,
    W,
    above_generator,
    convolve,
    mdiv,
    mul_acc,
    pack,
    unpack,
)


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


def madd(a, b):
    """Product of two trimmed m-monomials as exponent tuples."""
    return _trim(_add(a, b))


def mdiv_tuple(a, b):
    """Quotient a / b of trimmed m-monomials as exponent tuples, None when b does not divide a."""
    n = max(len(a), len(b))
    q = [x - y for x, y in zip(a + (0,) * (n - len(a)), b + (0,) * (n - len(b)))]
    return None if any(x < 0 for x in q) else _trim(q)


def packed(c):
    return {pack(m): q for m, q in c.items()}


def packed_table(a):
    return {t: packed(c) for t, c in a.items()}


def dense_coeff_product(ca, cb):
    out = {}
    for ma, qa in ca.items():
        for mb, qb in cb.items():
            m = madd(ma, mb)
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
    one, m1 = pack(()), pack((1,))
    # (t1 + t2)(t1 - t2): the t1*t2 terms cancel; (1 + m1)(1 - m1): the m1 terms cancel
    a = {(1, 0): {one: Fraction(1)}, (0, 1): {one: Fraction(1)}}
    b = {(1, 0): {one: Fraction(1)}, (0, 1): {one: Fraction(-1)}}
    assert convolve(a, b, None) == {(2, 0): {one: 1}, (0, 2): {one: -1}}
    c = {(0, 0): {one: Fraction(1), m1: Fraction(1)}}
    d = {(0, 0): {one: Fraction(1), m1: Fraction(-1)}}
    assert convolve(c, d, None) == {(0, 0): {one: 1, pack((2,)): -1}}
    assert convolve(a, b, 1) == {}

    rng = random.Random(6)
    for _ in range(300):
        a, b = rand_table(rng), rand_table(rng)
        cap = rng.choice([None, 0, 2, 3, 4])
        pa = packed_table(a)
        got = convolve(pa, packed_table(b), cap)
        assert got == packed_table(dense_product(a, b, cap))
        square = convolve(pa, pa, cap)  # the same table twice: each unordered pair once
        assert square == packed_table(dense_product(a, a, cap))
        for c in (*got.values(), *square.values()):
            assert c and all(q for q in c.values())
        ca, cb = rand_coeff(rng), rand_coeff(rng)
        prod = GradedCoeff(ca) * GradedCoeff(cb)
        assert prod.terms == dense_coeff_product(ca, cb)
        assert all(not m or m[-1] for m in prod.terms)  # unpacked monomials are trimmed


def test_convolve_accumulates_into_out():
    one, m1 = pack(()), pack((1,))
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
        pa = packed_table(a)
        for x, px in ((b, packed_table(b)), (a, pa)):  # a product, then a square
            want = dense_product(a, x, cap)
            for t, cc in c.items():
                tgt = want.setdefault(t, {})
                for mm, q in cc.items():
                    tgt[mm] = tgt.get(mm, Fraction(0)) + q
            want = {t: {mm: q for mm, q in cc.items() if q} for t, cc in want.items()}
            out = packed_table(c)
            assert convolve(pa, px, cap, out=out) == packed_table({t: cc for t, cc in want.items() if cc})
            neg = {t: {mm: -q for mm, q in cc.items()} for t, cc in dense_product(a, x, cap).items()}
            assert convolve(pa, px, cap, out=packed_table(neg)) == {}


def test_mdiv_inverts_madd():
    def div(a, b):
        q = mdiv(pack(a), pack(b))
        return None if q is None else unpack(q)

    assert div((2, 1), (1,)) == (1, 1)
    assert div((1, 1), (1, 1)) == ()  # trailing zeros are trimmed
    assert div((3, 1), (1, 1)) == (2,)
    assert div((), ()) == ()
    assert div((0, 2), ()) == (0, 2)
    assert div((1,), (2,)) is None
    assert div((1,), (0, 1)) is None  # m2 does not divide m1
    assert div((), (1,)) is None
    rng = random.Random(14)
    for _ in range(300):
        a = _trim(rng.randint(0, 2) for _ in range(rng.randint(0, 3)))
        b = _trim(rng.randint(0, 2) for _ in range(rng.randint(0, 3)))
        assert div(madd(a, b), b) == a
        divides = len(b) <= len(a) and all(x <= y for x, y in zip(b, a))
        assert (div(a, b) is not None) == divides


# -- the packed m-keys ------------------------------------------------------------------

# trimmed exponent tuples with room for a product: every exponent at most MAX_EXP // 2
monomials = st.lists(st.integers(0, MAX_EXP // 2), max_size=6).map(_trim)


@given(monomials)
@example(())  # the key 0
@example((MAX_EXP,))  # the highest field is generator 1, at MAX_EXP
@example((0, 0, 3, MAX_EXP))
@example((0, 0, 1))  # the least key that uses generator 3
def test_unpack_inverts_pack(m):
    assert unpack(pack(m)) == m
    assert pack(m + (0, 0)) == pack(m)  # trailing zeros do not change the key
    # the bound admits every generator up to the last one m uses and refuses below it
    top = len(m)
    assert not above_generator([{pack(m): 1}], top)
    assert not above_generator([{}, {pack(m): 1, 0: 2}], top + 1)
    if top:
        assert above_generator([{}, {0: 1, pack(m): 1}], top - 1)


@given(monomials, monomials)
def test_key_sum_is_the_monomial_product(a, b):
    assert pack(a) + pack(b) == pack(madd(a, b))
    assert mul_acc({}, [(pack(a), 2)], {pack(b): 3}) == {pack(madd(a, b)): 6}


@given(monomials, monomials)
def test_mdiv_agrees_with_the_tuple_quotient(a, b):
    q = mdiv(pack(a), pack(b))
    want = mdiv_tuple(a, b)
    assert (q is None) == (want is None)
    if want is not None:
        assert unpack(q) == want


@given(monomials, monomials, monomials)
def test_key_order_is_a_monomial_order(a, b, c):
    ka, kb, kc = pack(a), pack(b), pack(c)
    if ka < kb:
        assert ka + kc < kb + kc
    assert (ka == kb) == (a == b)
    assert 0 <= ka  # 1 is the least monomial
    # lexicographic with the highest generator most significant
    n = max(len(a), len(b))
    rev = lambda m: tuple(reversed(m + (0,) * (n - len(m))))  # noqa: E731
    assert (ka < kb) == (rev(a) < rev(b))


@pytest.mark.parametrize("i", [0, 1, 5])
def test_exponent_at_the_field_limit(i):
    top = 2 ** (W - 1) - 1
    assert MAX_EXP == top
    m = (0,) * i + (top,)
    assert unpack(pack(m)) == m
    with pytest.raises(TooLarge):
        pack((0,) * i + (top + 1,))
    # m_(i+1)^top times m_(i+1) carries into the guard bit, never into m_(i+2)
    one = pack((0,) * i + (1,))
    with pytest.raises(TooLarge):
        mul_acc({}, [(pack(m), 1)], {one: 1})
    with pytest.raises(TooLarge):
        GradedCoeff.monomial(m) * GradedCoeff.monomial((0,) * i + (1,))
    half = GradedCoeff.monomial((0,) * i + (2 ** (W - 2),))
    assert (half * GradedCoeff.monomial((0,) * i + (2 ** (W - 2) - 1,))).terms == {m: 1}
    with pytest.raises(TooLarge):
        half * half


def test_a_square_above_the_exponent_limit_is_refused():
    half = 2 ** (W - 2)  # twice half is MAX_EXP + 1
    one = pack(())
    table = {(0,): {pack((half,)): 1}}
    with pytest.raises(TooLarge):  # the pair of the one entry with itself
        convolve(table, table, None)
    # the cap drops both pairs of an entry with itself, so only the doubled
    # pair of the two entries passes the limit
    table = {(0,): {one: 3, pack((half - 1,)): 1}, (2,): {pack((0, 5)): 2, pack((half + 1,)): 1}}
    with pytest.raises(TooLarge):
        convolve(table, table, 2)
    assert convolve(table, table, 1) == {(0,): {one: 9, pack((half - 1,)): 6, pack((2 * half - 2,)): 1}}
    low = {(0,): {one: 3}, (2,): {pack((0, 5)): 2}}
    assert convolve(low, low, 2) == {(0,): {one: 9}, (2,): {pack((0, 5)): 12}}


def test_generators_beyond_the_last_field_are_refused():
    last = (0,) * (MAX_GENERATORS - 1) + (1,)
    assert unpack(pack(last)) == last
    with pytest.raises(TooLarge):
        pack(last + (1,))

