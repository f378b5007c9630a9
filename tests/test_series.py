"""Series arithmetic: ring axioms, substitution, inversion, exact division."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from torcob.coeff import GradedCoeff
from torcob.errors import (
    NotDivisible,
    NotInvertible,
    TruncationInsufficient,
    VariableMismatch,
)
from torcob.fgl import build
from torcob.series import TruncSeries

UV = ("t1", "t2")
D = 6


def var(name, guarantee=D):
    return TruncSeries.variable(UV, name, guarantee)


def const(q, guarantee=D):
    return TruncSeries.constant(UV, q, guarantee)


def m(i):
    return GradedCoeff.generator(i)


# -- strategies -------------------------------------------------------------------


@st.composite
def series(draw, maxdeg=4):
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        e1 = draw(st.integers(0, maxdeg))
        e2 = draw(st.integers(0, maxdeg - e1))
        q = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
        c = GradedCoeff.from_rational(q)
        if draw(st.booleans()):
            c = c * m(draw(st.integers(1, 2)))
        prev = terms.get((e1, e2), GradedCoeff.zero())
        if not (prev + c).is_zero():
            terms[(e1, e2)] = prev + c
        else:
            terms.pop((e1, e2), None)
    return TruncSeries(UV, terms, D)


# -- examples from the operation contracts ------------------------------------------


def test_mul_variables():
    assert var("t1") * var("t2") == TruncSeries.monomial(UV, (1, 1), 1, D)


def test_mul_unit_inverse_telescopes():
    f = const(1) + var("t1")
    g = f.invert_unit()
    assert (f * g) == const(1)


def test_mul_hand_convolution():
    # (t1 + m1 t1^2)(t1 - m1 t1^2) = t1^2 - m1^2 t1^4
    a = var("t1") + TruncSeries.monomial(UV, (2, 0), m(1), D)
    b = var("t1") - TruncSeries.monomial(UV, (2, 0), m(1), D)
    want = TruncSeries.monomial(UV, (2, 0), 1, D) - TruncSeries.monomial(
        UV, (4, 0), m(1) * m(1), D
    )
    assert a * b == want


def test_mul_variable_mismatch():
    with pytest.raises(VariableMismatch):
        var("t1") * TruncSeries.variable(("u",), "u", D)


def test_substitute_square_of_sum():
    f = TruncSeries.monomial(("u",), (2,), 1, D)
    got = f.substitute({"u": var("t1") + var("t2")})
    want = (var("t1") + var("t2")) ** 2
    assert got == want


def test_substitute_linear():
    f = TruncSeries.variable(("u",), "u", D)
    got = f.substitute({"u": var("t1").scale(2) + var("t2")})
    assert got == var("t1").scale(2) + var("t2")


def test_substitute_rejects_constant_term():
    f = TruncSeries.variable(("u",), "u", D)
    with pytest.raises(NotInvertible):
        f.substitute({"u": const(1) + var("t1")})


def test_invert_unit_geometric():
    f = const(1) - var("t1")
    inv = f.invert_unit()
    want = TruncSeries(UV, {(k, 0): GradedCoeff.one() for k in range(D + 1)}, D)
    assert inv == want


def test_invert_unit_with_generator_content():
    f = const(1) + var("t1").mul_coeff(m(1))
    inv = f.invert_unit()
    assert f * inv == const(1)
    sign = -1
    for k in range(1, D + 1):
        assert inv.coefficient((k, 0)) == (m(1) ** k).scale(sign)
        sign = -sign


def test_invert_rational():
    assert const(2).invert_unit() == const(Fraction(1, 2))


def test_invert_unit_rejects_generator_constant():
    f = const(1) + TruncSeries.constant(UV, m(1), D)
    with pytest.raises(NotInvertible):
        f.invert_unit()
    with pytest.raises(NotInvertible):
        TruncSeries.zero(UV, D).invert_unit()


def test_divide_exact_linear():
    f = var("t1") * var("t2") + var("t2") * var("t2")
    g = var("t1") + var("t2")
    assert f.divide_exact(g) == var("t2").truncated(D - 1)


def test_divide_exact_not_divisible():
    # residue at t2 = -t1 is -t1^2, so t1 t2 is not a multiple of t1 + t2
    f = var("t1") * var("t2")
    g = var("t1") + var("t2")
    sub = f.substitute({"t1": var("t1"), "t2": -var("t1")})
    assert sub == TruncSeries.monomial(UV, (2, 0), -1, D)
    with pytest.raises(NotDivisible):
        f.divide_exact(g)


def test_divide_exact_through_cancellation():
    # t1^2 - t2^2 has no t1*t2 term, so the first step of the division
    # creates one that a later step must cancel
    f = var("t1") * var("t1") - var("t2") * var("t2")
    assert f.divide_exact(var("t1") + var("t2")) == (var("t1") - var("t2")).truncated(D - 1)
    h = (var("t1") + var("t2")).mul_coeff(m(1) + m(2))
    q = var("t1").mul_coeff(m(1)) - var("t2").mul_coeff(m(2))
    assert (h * q).divide_exact(h) == q.truncated(D - 1)


def test_divide_by_zero_series_is_typed():
    with pytest.raises(NotInvertible):
        var("t1").divide_exact(TruncSeries.zero(UV, D))


def test_divide_zero_by_anything():
    q = TruncSeries.zero(UV, D).divide_exact(var("t1"))
    assert q.is_zero() and q.guarantee == D - 1


def test_divide_guarantee_accounting():
    f = var("t1") ** 3
    q = f.divide_exact(var("t1") ** 2)
    assert q.guarantee == D - 2
    with pytest.raises(TruncationInsufficient):
        f.divide_exact(TruncSeries.monomial(UV, (D + 1, 0), 1, D + 1))


def test_compositional_inverse_catalan():
    u = ("u",)
    g = TruncSeries(u, {(1,): GradedCoeff.one(), (2,): GradedCoeff.one()}, D)
    inv = g.compositional_inverse()
    catalan = [1, -1, 2, -5, 14, -42]
    for k, c in enumerate(catalan, start=1):
        assert inv.coefficient((k,)) == GradedCoeff.from_rational(c)
    assert g.substitute({"u": inv}) == TruncSeries.variable(u, "u", D)


def test_compositional_inverse_identity_and_scaling():
    u = TruncSeries.variable(("u",), "u", D)
    assert u.compositional_inverse() == u
    assert u.scale(2).compositional_inverse() == u.scale(Fraction(1, 2))


def test_compositional_inverse_needs_rational_linear_coeff():
    g = TruncSeries(("u",), {(1,): m(1)}, D)
    with pytest.raises(NotInvertible):
        g.compositional_inverse()


# -- properties ---------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(series(), series(), series())
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == TruncSeries.zero(UV, D)


@settings(max_examples=40, deadline=None)
@given(series(maxdeg=2), series(maxdeg=2))
def test_divide_round_trip(q, g):
    g = g + var("t1")
    assume(not g.is_zero())  # g = -t1 cancels to the zero divisor
    prod = q * g
    got = prod.divide_exact(g)
    assert got.eq_through(q, got.guarantee)


@settings(max_examples=40, deadline=None)
@given(series(maxdeg=3))
def test_invert_round_trip(f):
    f = f + const(1) - TruncSeries.constant(UV, f.constant_term(), D)
    inv = f.invert_unit()
    assert f * inv == const(1)


def geometric_inverse(f):
    """1/f as the geometric series in 1 - f/c0, c0 the rational constant term."""
    c = f.constant_term().rational_part()
    rest = TruncSeries(f.vars, {t: x for t, x in f.coeffs.items() if any(t)}, f.guarantee)
    w = rest.scale(Fraction(-1) / c)
    acc = pw = TruncSeries.constant(f.vars, 1, f.guarantee)
    for _ in range(f.guarantee):
        pw = pw * w
        if pw.is_zero():
            break
        acc = acc + pw
    return acc.scale(Fraction(1) / c)


UNIT_LAWS = [
    None,
    "additive",
    ("multiplicative", Fraction(2)),
    ("multiplicative", Fraction(5)),
    ("multiplicative", Fraction(2, 5)),
    {1: Fraction(1, 2), 3: Fraction(-2)},
]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(UNIT_LAWS),
    st.sampled_from([2, -1, 3, -2, 5]),
    st.integers(1, D),
    series(maxdeg=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
)
def test_invert_unit_matches_geometric_oracle(spec, k, deg, f, c0):
    # the unit [k](u)/u of each law, and a random two-variable unit
    ctx = build(2, deg + 1, spec)
    nser = ctx.n_series(k)
    unit = TruncSeries(("u",), {(e - 1,): c for (e,), c in nser.coeffs.items()}, deg)
    f = (f - TruncSeries.constant(UV, f.constant_term(), D) + const(c0)).truncated(deg)
    for g in (unit, f):
        got, want = g.invert_unit(), geometric_inverse(g)
        assert got == want and got.guarantee == want.guarantee == g.guarantee


@settings(max_examples=30, deadline=None)
@given(series(maxdeg=2), series(maxdeg=2))
def test_substitute_is_ring_hom(f, g):
    t1 = var("t1")
    assignment = {"t1": t1 * t1, "t2": t1 + t1 * t1}
    lhs = (f * g).substitute(assignment)
    rhs = f.substitute(assignment) * g.substitute(assignment)
    assert lhs.eq_through(rhs, min(lhs.guarantee, rhs.guarantee))


def test_homogeneous_product_degrees_add():
    a = var("t1").mul_coeff(m(1))  # degree 0
    b = var("t2")  # degree 1
    assert a.homogeneous_degree() == 0
    assert b.homogeneous_degree() == 1
    assert (a * b).homogeneous_degree() == 1
    assert (a + const(5)).homogeneous_degree() == 0  # both pieces sit in degree 0
    mixed = b + b * b
    assert mixed.homogeneous_degree() is None
    comps = mixed.homogeneous_components()
    assert sorted(comps) == [1, 2] and comps[1] == b and comps[2] == b * b


def test_guarantee_is_min_under_mul():
    a = var("t1", D).truncated(3)
    b = var("t2", D)
    assert (a * b).guarantee == 3


def test_rendering_examples():
    f = var("t1") + TruncSeries.monomial(UV, (1, 1), m(1).scale(-2), D)
    assert str(f) == "t1 - 2*m1*t1*t2"
    g = TruncSeries.monomial(UV, (2, 1), m(1) * m(1) + m(2).scale(-3), D)
    assert str(g) == "(m1^2 - 3*m2)*t1^2*t2"
    assert str(TruncSeries.zero(UV, D)) == "0"
    assert str(const(Fraction(-2, 3))) == "-2/3"
