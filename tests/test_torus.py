"""Equivariant base ring: Chern classes, division, ideals.

Division by Chern classes is checked against an oracle that shares none of
``divide_exact``: the adapted-coordinate route, which completes the primitive
part chi0 of chi to a unimodular basis, substitutes into coordinates t' in
which c(chi0) = t'_1, so that c(chi) = [m](t'_1) is t'_1 times a unit,
strips t'_1^d after multiplying by the inverse unit, and substitutes back.
"""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torcob.coeff import GradedCoeff
from torcob.errors import NotDivisible, TruncationInsufficient, ZeroCharacter
from torcob.fgl import build
from torcob.series import TruncSeries
from torcob.torus import (
    TorusContext,
    content,
    is_primitive,
    pair_extends_to_basis,
    primitive_part,
    proportional,
)

from residue_oracle import _unit_inverse_power


# -- the adapted-coordinate oracle ---------------------------------------------


def egcd(a: int, b: int):
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0, deterministic."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def complete_basis(chi0):
    """Integer matrix with first row chi0 and determinant +-1.

    Built by an extended-gcd ladder on the leading entries; deterministic.
    """
    chi0 = tuple(chi0)
    if not is_primitive(chi0):
        raise ValueError(f"character {chi0} is not primitive")
    n = len(chi0)
    if n == 1:
        return [[chi0[0]]]
    head, z = chi0[:-1], chi0[-1]
    g = content(head)
    if g == 0:
        # z = +-1; append the standard basis of the head coordinates
        rows = [list(chi0)]
        for i in range(n - 1):
            rows.append([1 if j == i else 0 for j in range(n)])
        return rows
    _, a, b = egcd(g, z)
    u = tuple(x // g for x in head)
    sub = complete_basis(u)
    rows = [list(chi0), [-b * x for x in u] + [a]]
    for r in sub[1:]:
        rows.append(list(r) + [0])
    return rows


def mat_inv_unimodular(rows):
    """Inverse of an integer matrix with determinant +-1, as integer rows."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            v = aug[i][n + j]
            if v.denominator != 1:
                raise ValueError("matrix is not unimodular")
            row.append(int(v))
        out.append(row)
    return out


class CoordinateTransform:
    """Substitution pair between standard and chi0-adapted coordinates."""

    def __init__(self, ctx, chi0):
        self.chi0 = tuple(chi0)
        self.basis = complete_basis(chi0)
        self.inverse = mat_inv_unimodular(self.basis)
        # old t_i = formal sum over j of [Binv[i][j]] t'_j, and the adapted
        # variable t'_j is the Chern class of basis row j in old coordinates
        self._fwd = {
            ctx.vars[i]: ctx.character_series(tuple(self.inverse[i]))
            for i in range(ctx.rank)
        }
        self._bwd = {
            ctx.vars[j]: ctx.character_series(tuple(self.basis[j]))
            for j in range(ctx.rank)
        }

    def to_adapted(self, f):
        return f.substitute(self._fwd)

    def from_adapted(self, f):
        return f.substitute(self._bwd)


@functools.lru_cache(maxsize=None)
def transform(ctx, chi0):
    return CoordinateTransform(ctx, chi0)


@functools.lru_cache(maxsize=None)
def deeper(ctx):
    """The same torus and law at truncation D + 1, whose units are exact through u^D."""
    return TorusContext(ctx.rank, build(ctx.fgl.Dc, ctx.D + 1, ctx.fgl.specialization))


def adapted_divide(ctx, f, chi, d):
    """q with q * c(chi)^d = f through the guarantee, by adapted coordinates."""
    m, chi0 = primitive_part(chi)
    tr = transform(ctx, chi0)
    fa = tr.to_adapted(f)
    if any(t[0] < d for t in fa.coeffs):
        raise NotDivisible("adapted first-variable exponent too small")
    fa = fa * _unit_inverse_power(deeper(ctx), m, d).substitute({"u": ctx.var(0)})
    stripped = {(t[0] - d,) + t[1:]: c for t, c in fa.coeffs.items()}
    qa = TruncSeries(ctx.vars, stripped, fa.guarantee - d)
    return tr.from_adapted(qa)


@pytest.fixture(scope="module")
def T2():
    return TorusContext(2, build(4, 6))


@pytest.fixture(scope="module")
def T3():
    return TorusContext(3, build(4, 6))


def test_character_helpers():
    assert content((0, 0)) == 0
    assert content((2, -4)) == 2
    assert is_primitive((2, 3)) and not is_primitive((2, 4)) and not is_primitive((0, 0))
    assert primitive_part((4, -6)) == (2, (2, -3))
    assert proportional((1, 2), (2, 4)) and proportional((1, -1), (-2, 2))
    assert not proportional((1, 0), (1, 1))
    assert pair_extends_to_basis((1, 0), (1, 1))
    assert not pair_extends_to_basis((1, 1), (1, -1))  # minor 2


def test_chern_basis_character(T2):
    assert T2.character_series((1, 0)) == T2.var(0)
    assert T2.character_series((0, 0)).is_zero()


def test_chern_sum_matches_formal_group(T2):
    c = T2.character_series((1, 1))
    want = T2.fgl.plus(T2.var(0), T2.var(1))
    assert c == want
    assert c.homogeneous_degree() == 1
    # linear part is the linear form
    assert c.coefficient((1, 0)) == GradedCoeff.one()
    assert c.coefficient((0, 1)) == GradedCoeff.one()


def test_chern_homomorphism_law(T2, T3):
    rng = random.Random(5)
    for T in (T2, T3):
        for _ in range(6):
            chi = tuple(rng.randint(-2, 2) for _ in range(T.rank))
            psi = tuple(rng.randint(-2, 2) for _ in range(T.rank))
            total = tuple(a + b for a, b in zip(chi, psi))
            lhs = T.character_series(total)
            rhs = T.fgl.plus(T.character_series(chi), T.character_series(psi))
            assert lhs.eq_through(rhs, min(lhs.guarantee, rhs.guarantee))


def test_adapt_identity(T2):
    tr = transform(T2, (1, 0))
    f = T2.var(0) * T2.var(1) + T2.var(1)
    assert tr.to_adapted(f) == f


def test_adapt_defining_property(T2):
    for chi0 in [(1, 1), (2, 3), (1, -2)]:
        tr = transform(T2, chi0)
        assert tr.basis[0] == list(chi0)
        c = T2.character_series(chi0)
        assert tr.to_adapted(c) == T2.var(0)


def test_adapt_unimodular_and_round_trip(T3):
    rng = random.Random(11)
    for chi0 in [(1, 0, 0), (1, 1, 1), (2, 3, 5), (0, 1, -2)]:
        tr = transform(T3, chi0)
        b = tr.basis
        binv = mat_inv_unimodular(b)
        n = len(b)
        prod = [
            [sum(b[i][k] * binv[k][j] for k in range(n)) for j in range(n)] for i in range(n)
        ]
        assert prod == [[int(i == j) for j in range(n)] for i in range(n)]
        f = T3.var(0) + T3.var(1) * T3.var(2)
        back = tr.from_adapted(tr.to_adapted(f))
        assert back.eq_through(f, back.guarantee)


def test_complete_basis_primitive_only():
    with pytest.raises(ValueError):
        complete_basis((2, 4))
    with pytest.raises(ValueError):
        transform(TorusContext(2, build(2, 4)), (2, 4))


def test_divide_general_path_higher_multiplicity(T2):
    for chi, d in [((1, 1), 2), ((2, 3), 2)]:
        q = T2.one() + T2.var(1).mul_coeff(GradedCoeff.generator(1))
        f = q * (T2.character_series(chi) ** d)
        got = T2.divide_by_chern(f, chi, d)
        assert got.eq_through(q, got.guarantee)
        assert got.guarantee == f.guarantee - d
        assert T2.chern_divides(f, chi, d)
        # q + f = q(1 + c^d) has unit constant term, so no positive multiplicity divides
        assert not T2.chern_divides(q + f, chi, 1)


def test_divide_by_chern_power(T2):
    c = T2.character_series((1, 1))
    q = T2.divide_by_chern(c * c, (1, 1), 2)
    assert q.eq_through(T2.one(), q.guarantee)


def test_divide_by_chern_difference_unit(T2):
    f = T2.var(0) - T2.var(1)
    q = T2.divide_by_chern(f, (1, -1), 1)
    assert q.constant_term() == GradedCoeff.one()


def test_divide_by_chern_not_divisible(T2):
    with pytest.raises(NotDivisible):
        T2.divide_by_chern(T2.var(0), (0, 1), 1)
    with pytest.raises(ZeroCharacter):
        T2.divide_by_chern(T2.var(0), (0, 0), 1)


def test_divide_round_trip(T2, T3):
    rng = random.Random(23)
    cases = [
        (T2, (1, 0), 1),
        (T2, (1, 1), 1),
        (T2, (2, 3), 1),
        (T2, (1, -1), 2),
        (T2, (0, -2), 2),
        (T3, (1, 1, 1), 1),
        (T3, (1, -1, 0), 1),
        (T3, (2, 3, 5), 1),
    ]
    for T, chi, d in cases:
        q = T.one() + T.var(0).mul_coeff(GradedCoeff.generator(1)) + T.var(T.rank - 1)
        f = q
        for _ in range(d):
            f = f * T.character_series(chi)
        got = T.divide_by_chern(f, chi, d)
        assert got.eq_through(q, got.guarantee)
        assert got.guarantee == f.guarantee - d


def test_fast_paths_agree_with_general(T2):
    # axis, difference and non-primitive characters against the adapted route
    for chi in [(0, 1), (1, -1), (-2, 0), (2, -2)]:
        q = T2.one() + T2.var(0) + T2.var(1).mul_coeff(GradedCoeff.generator(1))
        f = q * T2.character_series(chi)
        fast = T2.divide_by_chern(f, chi, 1)
        general = adapted_divide(T2, f, chi, 1)
        assert fast.eq_through(general, min(fast.guarantee, general.guarantee))


ORACLE_DEG = 5
ORACLE_LAWS = (None, "additive", ("multiplicative", Fraction(2, 5)))
# axis, negative, non-primitive, e_a - e_b and adapted characters per rank
ORACLE_CHARS = {
    1: [(1,), (-1,), (2,), (-3,)],
    2: [(1, 0), (0, -1), (0, 2), (1, -1), (-2, 2), (2, 1), (1, -2), (-1, -1), (2, 2),
        (3, -2)],
    3: [(1, 0, 0), (0, -2, 0), (1, -1, 0), (0, 2, -2), (1, 1, 1), (2, 1, 1), (1, -2, 0),
        (2, 0, 2), (1, 1, -1)],
}
M_MONOMIALS = [(), (1,), (0, 1), (2,)]


@functools.lru_cache(maxsize=None)
def oracle_context(rank, law):
    return TorusContext(rank, build(2, ORACLE_DEG, ORACLE_LAWS[law]))


@st.composite
def division_cases(draw, rank, law):
    """(context, f, chi, d, q or None): f = q * c(chi)^d when q is given."""
    T = oracle_context(rank, law)
    chi = draw(st.sampled_from(ORACLE_CHARS[rank]))
    d = draw(st.integers(1, 3))

    def element():
        coeffs = {}
        for _ in range(draw(st.integers(1, 4))):
            t = tuple(draw(st.lists(st.integers(0, 3), min_size=rank, max_size=rank)))
            m = draw(st.sampled_from(M_MONOMIALS))
            coeffs[t] = GradedCoeff({m: Fraction(draw(st.integers(-3, 3)) or 1)})
        return TruncSeries(T.vars, coeffs, T.D)

    kind = draw(st.sampled_from(("multiple", "perturbed", "lower", "random")))
    q = element()
    f = q if kind == "random" else q * T.chern_power(chi, d - (kind == "lower"))
    if kind == "perturbed":
        f = f + element()
    f = f.truncated(draw(st.integers(d, ORACLE_DEG)))
    return T, f, chi, d, (q if kind == "multiple" else None)


@pytest.mark.parametrize("law", range(len(ORACLE_LAWS)), ids=["universal", "additive", "mult"])
@pytest.mark.parametrize("rank", [1, 2, 3])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_divide_by_chern_matches_adapted_oracle(rank, law, data):
    T, f, chi, d, q = data.draw(division_cases(rank, law))
    try:
        want = adapted_divide(T, f, chi, d)
    except NotDivisible:
        want = None
    assert T.chern_divides(f, chi, d) == (want is not None)
    if want is None:
        assert q is None
        with pytest.raises(NotDivisible):
            T.divide_by_chern(f, chi, d)
        return
    got = T.divide_by_chern(f, chi, d)
    assert got == want
    assert got.guarantee == want.guarantee == f.guarantee - d
    if q is not None:
        assert got.eq_through(q, got.guarantee)


def test_multiplicity_above_truncation_refused():
    T = TorusContext(2, build(2, 4))
    for chi in [(2, 1), (1, 0), (1, -1), (2, 2)]:
        with pytest.raises(TruncationInsufficient):
            T.divide_by_chern(T.zero(), chi, 5)
        with pytest.raises(TruncationInsufficient):
            T.divide_by_chern(T.var(0).truncated(2), chi, 3)
        assert T.chern_divides(T.zero(), chi, 5) is True
        assert T.chern_divides(T.var(0), chi, 5) is False
        assert T.chern_divides(T.var(0).truncated(1), chi, 2) is False
        # at the guarantee itself the division still runs
        c = T.chern_power(chi, 4)
        assert T.divide_by_chern(c, chi, 4).eq_through(T.one(), 0)


def test_membership_product_above_truncation():
    # the product c(1,0)^3 c(0,1)^2 has degree 5 > 4: no nonzero f of guarantee 4 is in it
    T = TorusContext(2, build(2, 4))
    factors = [((1, 0), 3), ((0, 1), 2)]
    assert T.ideal_membership_product(factors, T.zero()) == (True, True)
    assert T.ideal_membership_product(factors, T.var(0) ** 3) == (False, False)
    f = T.var(0) ** 3 * T.var(1)
    assert T.ideal_membership_product(factors, f) == (False, False)


def test_multiplicity_zero_divides_by_one(T2):
    f = T2.constant(3) + T2.var(0) * T2.var(1).mul_coeff(GradedCoeff.generator(1))
    for chi in [(1, 0), (0, -2), (1, -1), (1, 1), (2, 1), (2, 2)]:
        assert T2.chern_divides(f, chi, 0) is True
        q = T2.divide_by_chern(f, chi, 0)
        assert q == f and q.guarantee == f.guarantee
        with pytest.raises(ValueError):
            T2.chern_divides(f, chi, -1)
        with pytest.raises(ValueError):
            T2.divide_by_chern(f, chi, -1)


def test_chern_power_cached(T2):
    p = T2.chern_power((2, 1), 3)
    assert p is T2.chern_power((2, 1), 3)
    assert p == T2.character_series((2, 1)) ** 3


@pytest.mark.parametrize("law", ORACLE_LAWS, ids=["universal", "additive", "mult"])
def test_unit_inverse_power_is_exact_one_degree_below_the_truncation(law):
    # [m](u) is exact through u^D, so ([m](u) / u)^(-d) only through u^(D-1)
    T = TorusContext(1, build(6, 6, law))
    for m, d in [(2, 1), (-1, 2), (3, 3)]:
        unit = _unit_inverse_power(T, m, d)
        assert unit.guarantee == 5
        assert unit.eq_through(_unit_inverse_power(deeper(T), m, d), 5)


def test_rank_one_chern_ideal_equals_t():
    T = TorusContext(1, build(4, 6))
    t = T.var(0)
    for mval in (1, 2, -3):
        chi = (mval,)
        c = T.character_series(chi)
        # c(chi) divisible by t and conversely
        q1 = c.divide_exact(t)
        assert q1.constant_term() == GradedCoeff.from_rational(mval)
        q2 = T.divide_by_chern(t, chi, 1)
        assert q2.constant_term() == GradedCoeff.from_rational(Fraction(1, mval))
        f = t * (T.one() + t.mul_coeff(GradedCoeff.generator(2)))
        assert T.chern_divides(f, chi, 1)


def test_chern_ideal_differs_from_linear_ideal(T2):
    # F(t1, t2) is in (c(1,1)) by definition but not in (t1 + t2)
    t1, t2 = T2.var(0), T2.var(1)
    c = T2.character_series((1, 1))
    assert T2.chern_divides(c, (1, 1), 1)
    with pytest.raises(NotDivisible):
        c.divide_exact(t1 + t2)
    # while for a difference character the two ideals agree
    d = T2.character_series((1, -1))
    assert T2.chern_divides(d, (1, -1), 1)
    assert (d.divide_exact(t1 - t2) * (t1 - t2)).eq_through(d, d.guarantee - 1)


def test_ideal_membership_examples(T2):
    c10 = T2.character_series((1, 0))
    c01 = T2.character_series((0, 1))
    c11 = T2.character_series((1, 1))
    both = T2.ideal_membership_product([((1, 0), 1), ((0, 1), 1)], c10 * c01)
    assert both == (True, True)
    neither = T2.ideal_membership_product([((1, 0), 1), ((0, 1), 1)], T2.var(0) + T2.var(1))
    assert neither == (False, False)
    mixed = T2.ideal_membership_product([((1, 0), 1), ((1, 1), 1)], c10 * c11)
    assert mixed == (True, True)


def test_ideal_membership_checks_hypothesis(T2):
    with pytest.raises(ValueError):
        T2.ideal_membership_product([((1, 1), 1), ((1, -1), 1)], T2.one())


def test_ideal_membership_random_agreement(T3):
    rng = random.Random(77)
    chars = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 1, -1), (1, 1, 1)]
    for i in range(20):
        a, b = rng.sample(chars, 2)
        if not pair_extends_to_basis(a, b):
            continue
        factors = [(a, rng.randint(1, 2)), (b, 1)]
        if i % 2 == 0:
            f = T3.one() + T3.var(2)
            for chi, d in factors:
                f = f * (T3.character_series(chi) ** d)
        else:
            f = T3.var(0) ** rng.randint(1, 3) + T3.var(1)
        in_p, in_i = T3.ideal_membership_product(factors, f)
        assert in_p == in_i


def test_augmentation(T2):
    assert T2.augment(T2.one() + T2.var(0)) == GradedCoeff.one()
    assert T2.augment(T2.character_series((1, 1))).is_zero()
    f = T2.constant(GradedCoeff.generator(1)) + T2.var(0) * T2.var(1)
    assert T2.augment(f) == GradedCoeff.generator(1)
