"""Coinvariant algebra of the flag variety, its moment-graph bridge and its residue pairing."""

import math
import random
from fractions import Fraction

import pytest

from torcob import flag, gkm
from torcob.coeff import GradedCoeff
from torcob.errors import TooLarge, TruncationInsufficient
from torcob.fgl import build
from torcob.series import TruncSeries
from torcob.torus import TorusContext

import residue_oracle


def test_normal_form_examples():
    assert str(flag.normal_form(2, flag.x_var(2, 2))) == "-x1"
    assert flag.normal_form(2, flag.x_var(2, 1) ** 2).is_zero()
    assert flag.normal_form(3, flag.elementary_symmetric(3, 2)).is_zero()
    # oracle for x1^2: x1^2 = x1 e1 - e2
    p = flag.x_var(2, 1) * flag.elementary_symmetric(2, 1) - flag.elementary_symmetric(2, 2)
    assert p == flag.x_var(2, 1) ** 2


def test_normal_form_lands_on_staircase():
    rng = random.Random(9)
    for n in (2, 3, 4):
        staircase = set(flag.artin_exponents(n))
        for _ in range(8):
            exps = tuple(rng.randint(0, n) for _ in range(n))
            p = flag.x_poly(n, {exps: GradedCoeff.one()})
            nf = flag.normal_form(n, p)
            assert set(nf.coeffs) <= staircase


def test_normal_form_fixes_staircase():
    for n in (2, 3, 4):
        for a in flag.artin_exponents(n):
            p = flag.x_poly(n, {a: GradedCoeff.one()})
            assert flag.normal_form(n, p) == p


def test_normal_form_is_ring_map():
    rng = random.Random(13)
    for n in (2, 3):
        for _ in range(8):
            a = _rand_xpoly(n, rng)
            b = _rand_xpoly(n, rng)
            lhs = flag.normal_form(n, a * b)
            rhs = flag.normal_form(n, flag.normal_form(n, a) * flag.normal_form(n, b))
            assert lhs == rhs


def _rand_xpoly(n, rng, maxdeg=2, lazard=True):
    terms = {}
    for _ in range(3):
        e = tuple(rng.randint(0, 2) for _ in range(n))
        if sum(e) > maxdeg:
            continue
        c = GradedCoeff.from_rational(rng.randint(-3, 3))
        if lazard and rng.random() < 0.5:
            c = c + GradedCoeff.generator(1)
        if not c.is_zero():
            terms[e] = c
    return flag.x_poly(n, terms)


def test_coinv_rank():
    for n in (1, 2, 3, 4):
        count, basis = flag.coinv_rank(n)
        assert count == math.factorial(n)
        assert len(set(basis)) == count
        for a in basis:
            assert all(a[i] <= n - 1 - i for i in range(n))
    assert flag.coinv_rank(1) == (1, [(0,)])
    assert flag.coinv_rank(2)[1] == [(0, 0), (1, 0)]


def test_flag_restriction_examples():
    T = TorusContext(2, build(3, 5))
    alpha = flag.flag_restriction(T, 2, flag.x_var(2, 1))
    assert alpha.restrict("12") == T.var(0)
    assert alpha.restrict("21") == T.var(1)
    e1 = flag.elementary_symmetric(2, 1)
    sym = flag.flag_restriction(T, 2, e1)
    assert sym.restrict("12") == sym.restrict("21") == T.var(0) + T.var(1)
    one = flag.flag_restriction(T, 2, flag.x_one(2))
    assert one.restrict("12") == T.one() and one.restrict("21") == T.one()


def test_flag_restriction_is_ring_map_into_classes():
    rng = random.Random(21)
    for n in (2, 3):
        T = TorusContext(n, build(3, 6))
        g = gkm.flag_graph(n)
        for _ in range(4):
            a = _rand_xpoly(n, rng)
            b = _rand_xpoly(n, rng)
            ra = flag.flag_restriction(T, n, a)
            rb = flag.flag_restriction(T, n, b)
            rab = flag.flag_restriction(T, n, a * b)
            assert rab == ra * rb
            assert gkm.is_class(T, g, ra)
            assert gkm.is_class(T, g, rab)


def test_flag_restriction_truncation_guard():
    T = TorusContext(2, build(3, 3))
    with pytest.raises(TruncationInsufficient):
        flag.flag_restriction(T, 2, flag.x_var(2, 1) ** 5)


def test_kernel_check_examples():
    T2 = TorusContext(2, build(3, 5))
    assert flag.kernel_check(T2, 2, flag.x_var(2, 1) ** 2)
    assert not flag.kernel_check(T2, 2, flag.x_var(2, 1))
    T3 = TorusContext(3, build(3, 5))
    assert flag.kernel_check(T3, 3, flag.elementary_symmetric(3, 1))


def test_kernel_check_random_agreement():
    # the check itself raises if the two routes ever disagree
    rng = random.Random(37)
    T2 = TorusContext(2, build(3, 5))
    T3 = TorusContext(3, build(3, 5))
    for i in range(10):
        n, T = (2, T2) if i % 2 == 0 else (3, T3)
        p = _rand_xpoly(n, rng)
        if i % 3 == 0:
            p = p * flag.elementary_symmetric(n, 1)
        flag.kernel_check(T, n, p)


def test_kernel_check_runs_both_routes(monkeypatch):
    T = TorusContext(2, build(3, 5))
    x1 = flag.x_var(2, 1)
    monkeypatch.setattr(flag, "artin_pairing", lambda ctx, n, p: [GradedCoeff.zero()] * 2)
    with pytest.raises(ArithmeticError):
        flag.kernel_check(T, 2, x1)
    monkeypatch.undo()
    monkeypatch.setattr(flag, "normal_form", lambda n, p: flag.x_zero(n))
    with pytest.raises(ArithmeticError):
        flag.kernel_check(T, 2, x1)


# -- the moment-graph route, kept as an oracle for the residue pairing ----------


def _artin_restriction_basis(ctx, n):
    """Restrictions of the Artin monomials: a free S-basis of the class module."""
    return [
        flag.flag_restriction(ctx, n, flag.x_poly(n, {a: GradedCoeff.one()}))
        for a in flag.artin_exponents(n)
    ]


def _moment_graph_zero(ctx, n, p):
    """Expand the restriction of p in the Artin basis and augment every coordinate."""
    g = gkm.flag_graph(n)
    alpha = flag.flag_restriction(ctx, n, p)
    coords = gkm.basis_expand(ctx, g, _artin_restriction_basis(ctx, n), alpha)
    return all(ctx.augment(c).is_zero() for c in coords)


def test_artin_restriction_basis_is_free():
    # expanding a symmetric-multiple restriction gives coordinates that all
    # augment to zero; expanding x1 gives something visibly nonzero
    T = TorusContext(2, build(3, 5))
    g = gkm.flag_graph(2)
    basis = _artin_restriction_basis(T, 2)
    alpha = flag.flag_restriction(T, 2, flag.elementary_symmetric(2, 1) * flag.x_var(2, 1))
    coords = gkm.basis_expand(T, g, basis, alpha)
    assert all(T.augment(c).is_zero() for c in coords)
    beta = flag.flag_restriction(T, 2, flag.x_var(2, 1))
    coords = gkm.basis_expand(T, g, basis, beta)
    assert [str(T.augment(c)) for c in coords] == ["0", "1"]


@pytest.mark.parametrize("spec", [None, "additive", ("multiplicative", Fraction(2, 5))],
                         ids=["universal", "additive", "multiplicative"])
def test_kernel_check_matches_moment_graph_oracle(spec):
    # truncation 3 is enough for the oracle at rank 3 but not for the pairing
    # (which needs 4), so rank 3 also exercises the context rebuilt from the
    # specialization
    rng = random.Random(41)
    answers = set()
    for n in (1, 2, 3):
        T = TorusContext(n, build(3, 3, spec))
        for i in range(8):
            k = rng.randint(1, n) if i % 2 else 0
            p = _rand_xpoly(n, rng, maxdeg=3 - k, lazard=spec is None)
            if k:
                p = p * flag.elementary_symmetric(n, k)
            want = _moment_graph_zero(T, n, p)
            assert flag.kernel_check(T, n, p) == want
            answers.add(want)
    assert answers == {True, False}


def test_kernel_check_refuses_polynomial_above_truncation():
    T = TorusContext(3, build(3, 2))
    assert not flag.kernel_check(T, 3, flag.x_var(3, 1) ** 2)
    with pytest.raises(TruncationInsufficient):
        flag.kernel_check(T, 3, flag.x_var(3, 1) ** 3)


def test_kernel_check_rank5_specialized():
    T = TorusContext(5, build(0, 11, ("multiplicative", Fraction(2, 5))))
    x = [flag.x_var(5, k) for k in range(1, 6)]
    e2 = flag.elementary_symmetric(5, 2)
    assert flag.kernel_check(T, 5, e2 * x[0] * x[1] + flag.elementary_symmetric(5, 4))
    assert not flag.kernel_check(T, 5, x[0] ** 4 * x[1] ** 3 * x[2] ** 2 * x[3] + e2)


# -- the series residue pairing, kept as an oracle for the moment pairing -------


def _staircase_products(q, ys):
    """{a: q * prod_k ys[k]^a_k} over the Artin staircase, one multiply per entry."""
    n = len(ys)
    out = {(0,) * n: q}
    for k in range(n - 2, -1, -1):
        nxt = {}
        for a, s in out.items():
            for e in range(n - k):
                if e:
                    s = s * ys[k]
                nxt[a[:k] + (e,) + a[k + 1:]] = s
        out = nxt
    return out


def artin_pairing_oracle(ctx, n, p):
    """The pairing as one-variable residues: x_k -> [lambda_{w(k)}](u) at each coset w.

    p_w(u) / U_w(u) is formed once per vertex, multiplied by every Artin
    monomial there, and each sum is read at u^dim with the coefficients below
    it certified zero.
    """
    g = gkm.flag_graph(n)
    if ctx.D <= g.dim:
        ctx = TorusContext(n, build(ctx.fgl.Dc, g.dim + 1, ctx.fgl.specialization))
    lam = g.cocharacter
    along = [s.truncated(g.dim) for s in residue_oracle._along(ctx, lam).values()]
    totals = {a: TruncSeries.zero(("u",), g.dim) for a in flag.artin_exponents(n)}
    for v in g.vertices:
        ys = [along[int(c) - 1] for c in v]
        q = residue_oracle._over_unit(ctx, g, v, lam, p, dict(zip(flag.xvars(n), ys)))
        for a, s in _staircase_products(q, ys).items():
            totals[a] = totals[a] + s
    return [residue_oracle._top_coefficient(t, g.dim) for t in totals.values()]


def _rand_pairing_input(rng, n, top):
    """Up to four monomials of degree <= top, with Lazard terms in the coefficients."""
    terms = {}
    for _ in range(4):
        e = tuple(rng.randint(0, n) for _ in range(n))
        if sum(e) > top:
            continue
        c = GradedCoeff.from_rational(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))))
        if rng.random() < 0.6:
            c = c + GradedCoeff.monomial((0,) * rng.randint(0, 2) + (1,), rng.randint(-2, 2))
        if not c.is_zero():
            terms[e] = c
    return flag.x_poly(n, terms)


PAIRING_LAWS = [
    pytest.param(*law, id=name)
    for name, law in [
        ("universal-0", (0, None)), ("universal-1", (1, None)), ("universal-2", (2, None)),
        ("universal-3", (3, None)), ("universal-4", (4, None)), ("universal-5", (5, None)),
        ("universal-6", (6, None)), ("additive", (3, "additive")),
        ("multiplicative", (2, ("multiplicative", Fraction(2, 5)))),
        ("multiplicative-neg", (0, ("multiplicative", Fraction(-1, 3)))),
        ("custom", (4, {1: Fraction(1, 3), 3: Fraction(-2)})),
    ]
]


@pytest.mark.parametrize("dc, spec", PAIRING_LAWS)
def test_artin_pairing_matches_series_oracle(dc, spec):
    # ranks 1-4 at truncations dim + 1 and dim + 2, with monomials above dim
    rng = random.Random(repr((dc, spec)))
    for n in (1, 2, 3, 4):
        dim = n * (n - 1) // 2
        for extra in (1, 2):
            T = TorusContext(n, build(dc, dim + extra, spec))
            for _ in range(3 if n < 4 else 2):
                p = _rand_pairing_input(rng, n, dim + extra)
                assert flag.artin_pairing(T, n, p) == artin_pairing_oracle(T, n, p)


@pytest.mark.parametrize("dc, d, spec", [
    (2, 11, None),
    (6, 11, None),
    (6, 12, "additive"),
    (1, 11, ("multiplicative", Fraction(2, 5))),
])
def test_artin_pairing_rank5_matches_series_oracle(dc, d, spec):
    rng = random.Random(53 + d)
    T = TorusContext(5, build(dc, d, spec))
    p = _rand_pairing_input(rng, 5, 4) + flag.x_var(5, 2)
    assert flag.artin_pairing(T, 5, p) == artin_pairing_oracle(T, 5, p)


@pytest.mark.parametrize("dc, spec", [(3, None), (0, "additive"), (2, ("multiplicative", 1))],
                         ids=["universal", "additive", "multiplicative"])
def test_artin_pairing_at_one_is_the_integral(dc, spec):
    # the a = 0 entry is the integral of p, which gkm.integrate finds by its
    # residue route for a non-constant class and by the log route for a constant
    rng = random.Random(59)
    for n in (2, 3, 4):
        dim = n * (n - 1) // 2
        T = TorusContext(n, build(dc, dim + 1, spec))
        g = gkm.flag_graph(n)
        three_plus_m1 = GradedCoeff.from_rational(3) + GradedCoeff.generator(1)
        constant = flag.x_poly(n, {(0,) * n: three_plus_m1})
        for p in [constant] + [_rand_pairing_input(rng, n, dim + 1) for _ in range(3)]:
            want = gkm.integrate(T, g, flag.flag_restriction(T, n, p))
            assert flag.artin_pairing(T, n, p)[0] == want


def test_artin_pairing_refuses_other_variables():
    T = TorusContext(3, build(3, 6))
    with pytest.raises(ValueError):
        flag.artin_pairing(T, 3, flag.x_var(2, 1))
    with pytest.raises(ValueError):
        flag.artin_pairing(T, 3, T.var(0))


def test_artin_pairing_of_zero_and_of_high_degree():
    T = TorusContext(3, build(3, 6))
    assert all(c.is_zero() for c in flag.artin_pairing(T, 3, flag.x_zero(3)))
    # every product with the staircase has degree above dim = 3
    p = flag.x_var(3, 1) ** 2 * flag.x_var(3, 2) ** 2
    assert all(c.is_zero() for c in flag.artin_pairing(T, 3, p))


# -- the pairing matrix of the Artin basis ------------------------------------


def _gram(T, n):
    """rows[i][j] = integral of x^{a_i} x^{a_j} over the Artin staircase a."""
    stair = flag.artin_exponents(n)
    return stair, [
        flag.artin_pairing(T, n, flag.x_poly(n, {b: GradedCoeff.one()})) for b in stair
    ]


def _inverse(rows):
    """Inverse of a square rational matrix by Gauss-Jordan elimination (None if singular)."""
    k = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(k)]
           for i, row in enumerate(rows)]
    for col in range(k):
        piv = next((i for i in range(col, k) if aug[i][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(k):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [row[k:] for row in aug]


def _det(rows):
    k = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(k):
        piv = next((i for i in range(col, k) if m[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, k):
            f = m[i][col] / m[col][col]
            m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return det


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_artin_gram_matrix_is_unimodular(n):
    dim = n * (n - 1) // 2
    T = TorusContext(n, build(dim, dim + 1))
    stair, rows = _gram(T, n)
    top = []
    for b, row in zip(stair, rows):
        top_row = []
        for a, c in zip(stair, row):
            if sum(a) + sum(b) > dim:
                assert c.is_zero()
            if sum(a) + sum(b) == dim:
                assert c.is_rational() and c.rational_part().denominator == 1
                top_row.append(c.rational_part())
            else:
                top_row.append(0)
        top.append(top_row)
    assert _det(top) in (1, -1)
    assert all(rows[i][j] == rows[j][i] for i in range(len(stair)) for j in range(i))


def test_pairing_back_substitutes_to_normal_form():
    # the Gram matrix vanishes above the anti-diagonal blocks |a| + |b| = dim,
    # so the degree-d coordinates follow from the pairings with the degree
    # dim - d monomials once the lower-degree coordinates are known
    rng = random.Random(43)
    for n in (2, 3):
        dim = n * (n - 1) // 2
        T = TorusContext(n, build(3, dim + 1))
        stair, rows = _gram(T, n)
        gram = {(b, a): c for b, row in zip(stair, rows) for a, c in zip(stair, row)}
        for i in range(6):
            p = _rand_xpoly(n, rng, maxdeg=3)
            if i % 2:
                p = p * flag.elementary_symmetric(n, 1)
            pairing = dict(zip(stair, flag.artin_pairing(T, n, p)))
            coords = {}
            for d in range(dim + 1):
                bs = [b for b in stair if sum(b) == d]
                as_ = [a for a in stair if sum(a) == dim - d]
                inv = _inverse([[gram[b, a].rational_part() for a in as_] for b in bs])
                rest = {}
                for a in as_:
                    r = pairing[a]
                    for b, c in coords.items():
                        r = r - c * gram[b, a]
                    rest[a] = r
                for j, b in enumerate(bs):
                    c = GradedCoeff.zero()
                    for k, a in enumerate(as_):
                        c = c + rest[a].scale(inv[k][j])
                    coords[b] = c
            nf = flag.normal_form(n, p)
            assert {b: c for b, c in coords.items() if not c.is_zero()} == nf.coeffs


def test_library_size_guards_refuse_before_any_work(monkeypatch):
    def boom(*args):
        raise AssertionError("the guarded work started")

    monkeypatch.setattr(flag, "artin_exponents", boom)
    monkeypatch.setattr(flag, "normal_form", boom)
    monkeypatch.setattr(flag, "artin_pairing", boom)
    with pytest.raises(TooLarge, match="above the limit"):
        flag.coinv_rank(flag.MAX_COINV_RANK + 1)
    n = flag.MAX_KERNEL_RANK + 1
    T = TorusContext(n, build(0, 2, "additive"))
    with pytest.raises(TooLarge, match="above the limit"):
        flag.kernel_check(T, n, flag.x_var(n, 1))
    # at the limits the guarded work runs
    with pytest.raises(AssertionError):
        flag.coinv_rank(flag.MAX_COINV_RANK)
    n = flag.MAX_KERNEL_RANK
    with pytest.raises(AssertionError):
        flag.kernel_check(TorusContext(n, build(0, 2, "additive")), n, flag.x_var(n, 1))
