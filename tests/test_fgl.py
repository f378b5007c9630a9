"""Formal group law: frozen values, axioms, specializations, and oracles."""

import io
from fractions import Fraction

import pytest

from torcob import cli, fgl
from torcob.coeff import GradedCoeff
from torcob.errors import TruncationInsufficient
from torcob.fgl import build
from torcob.series import TruncSeries


def mono(exps, q=1):
    return GradedCoeff.monomial(exps, q)


def test_additive_is_plain_sum():
    ctx = build(0, 5, "additive")
    uv = ("u", "v")
    assert ctx.F == TruncSeries.variable(uv, "u", 5) + TruncSeries.variable(uv, "v", 5)


def test_multiplicative_beta_one():
    ctx = build(0, 8, ("multiplicative", 1))
    uv = ("u", "v")
    u = TruncSeries.variable(uv, "u", 8)
    v = TruncSeries.variable(uv, "v", 8)
    assert ctx.F == u + v - u * v


def test_multiplicative_log_coefficients():
    ctx = build(0, 6, ("multiplicative", Fraction(2)))
    # m_i = beta^i/(i+1)
    for i in range(1, 6):
        assert ctx.log.coefficient((i + 1,)) == GradedCoeff.from_rational(
            Fraction(2) ** i / (i + 1)
        )


def test_universal_degree_three():
    ctx = build(6, 3)
    u, v = ("u", "v")
    want = {
        (1, 0): GradedCoeff.one(),
        (0, 1): GradedCoeff.one(),
        (1, 1): mono((1,), -2),
        (2, 1): mono((2,), 4) + mono((0, 1), -3),
        (1, 2): mono((2,), 4) + mono((0, 1), -3),
    }
    assert ctx.F.coeffs == want


def test_a_coeff_values_and_symmetry():
    ctx = build(6, 5)
    assert ctx.a_coeff(1, 0) == GradedCoeff.one()
    assert ctx.a_coeff(1, 1) == mono((1,), -2)
    assert ctx.a_coeff(1, 2) == mono((2,), 4) + mono((0, 1), -3)
    assert ctx.a_coeff(2, 1) == ctx.a_coeff(1, 2)
    with pytest.raises(TruncationInsufficient):
        ctx.a_coeff(3, 3)


def test_a_coeff_grading():
    ctx = build(6, 6)
    for i in range(0, 4):
        for j in range(0, 4):
            if i + j < 1 or i + j > 6:
                continue
            c = ctx.a_coeff(i, j)
            if not c.is_zero():
                assert c.homogeneous_degree() == 1 - i - j


def test_n_series_values():
    ctx = build(6, 4)
    u = TruncSeries.variable(("u",), "u", 4)
    assert ctx.n_series(1) == u
    assert ctx.n_series(0).is_zero()
    rho = ctx.n_series(-1)
    assert rho == ctx.rho
    assert rho.coefficient((1,)) == GradedCoeff.from_rational(-1)
    assert rho.coefficient((2,)) == mono((1,), -2)
    two = ctx.n_series(2)
    assert two.coefficient((1,)) == GradedCoeff.from_rational(2)
    assert two.coefficient((2,)) == mono((1,), -2)
    assert two.coefficient((3,)) == mono((2,), 8) + mono((0, 1), -6)


def test_n_series_multiplicative():
    ctx = build(0, 6, ("multiplicative", 1))
    u = TruncSeries.variable(("u",), "u", 6)
    assert ctx.n_series(2) == u.scale(2) - u * u


def test_n_series_linear_coefficient_is_n():
    ctx = build(4, 5)
    for n in (-3, -1, 0, 1, 2, 5):
        assert ctx.n_series(n).coefficient((1,)) == GradedCoeff.from_rational(n)


def test_n_series_homogeneous_of_degree_one():
    ctx = build(4, 5)
    for n in (-2, -1, 2, 3):
        assert ctx.n_series(n).homogeneous_degree() == 1
    assert ctx.F.homogeneous_degree() == 1
    assert ctx.rho.homogeneous_degree() == 1


def test_formal_sum_fold():
    ctx = build(4, 5)
    from torcob.torus import TorusContext

    T = TorusContext(3, ctx)
    t1, t2, t3 = (T.var(i) for i in range(3))
    assert ctx.formal_sum([t1]) == t1
    assert ctx.formal_sum([t1, T.zero()]) == t1
    left = ctx.formal_sum([t1, t2, t3])
    right = ctx.plus(t1, ctx.plus(t2, t3))
    assert left == right  # associativity makes the bracketing irrelevant
    with pytest.raises(ValueError):
        ctx.formal_sum([T.one()])


def test_inverse_axiom():
    ctx = build(5, 6)
    u = TruncSeries.variable(("u",), "u", 6)
    assert ctx.F.substitute({"u": u, "v": ctx.rho}).is_zero()


def test_commutativity():
    ctx = build(5, 6)
    uv = ("u", "v")
    u = TruncSeries.variable(uv, "u", 6)
    v = TruncSeries.variable(uv, "v", 6)
    assert ctx.F.substitute({"u": v, "v": u}) == ctx.F


def test_log_exp_round_trip():
    ctx = build(5, 7)
    u = TruncSeries.variable(("u",), "u", 7)
    assert ctx.log.substitute({"u": ctx.exp}) == u
    assert ctx.exp.substitute({"u": ctx.log}) == u


def test_specialization_commutes_with_construction():
    uni = build(6, 6)
    beta = Fraction(3, 2)
    mult = build(0, 6, ("multiplicative", beta))

    def value(i):
        return beta ** i / (i + 1)

    assert uni.F.specialize(value) == mult.F
    assert uni.rho.specialize(value) == mult.rho
    add = build(0, 6, "additive")
    assert uni.F.specialize(lambda i: Fraction(0)) == add.F


def test_custom_specialization():
    ctx = build(0, 4, {1: Fraction(1, 2)})
    # log = u + u^2/2, a truncated multiplicative-like law
    assert ctx.log.coefficient((2,)) == GradedCoeff.from_rational(Fraction(1, 2))
    assert ctx.log.coefficient((3,)).is_zero()


@pytest.mark.parametrize(
    "spec",
    [None, "additive", ("multiplicative", Fraction(2, 5)), {1: Fraction(1, 2), 3: -2}],
    ids=["universal", "additive", "multiplicative", "custom"],
)
def test_rebuild_from_specialization(spec):
    ctx = build(3, 5, spec)
    again = build(ctx.Dc, ctx.D, ctx.specialization)
    assert again.specialization == ctx.specialization
    assert again.F == ctx.F


def test_build_validates_arguments():
    with pytest.raises(ValueError):
        build(-1, 4)
    with pytest.raises(ValueError):
        build(2, 0)


# -- oracles: the inverse and the n-series from F itself ------------------------


def uvar(D):
    return TruncSeries.variable(("u",), "u", D)


def rho_degreewise(ctx):
    """Solve F(u, rho) = 0 one degree at a time; the linear part of F in v is 1."""
    rho = {(1,): GradedCoeff.from_rational(-1)}
    for k in range(2, ctx.D + 1):
        partial = TruncSeries(("u",), rho, ctx.D)
        ck = ctx.F.substitute({"u": uvar(ctx.D), "v": partial}).coefficient((k,))
        if not ck.is_zero():
            rho[(k,)] = -ck
    return TruncSeries(("u",), rho, ctx.D)


def nseries_fold(ctx, n, rho):
    """[n]u by folding F: [n]u = F([n-1]u, u), and [-n]u = [n](rho(u))."""
    if n < 0:
        return nseries_fold(ctx, -n, rho).substitute({"u": rho})
    out = TruncSeries.zero(("u",), ctx.D)
    for _ in range(n):
        out = ctx.F.substitute({"u": out, "v": uvar(ctx.D)})
    return out


def same(a, b):
    return a == b and (a.vars, a.guarantee) == (b.vars, b.guarantee)


LAWS = [
    pytest.param(6, 8, None, id="universal-6-8"),
    pytest.param(2, 8, None, id="universal-2-8"),
    pytest.param(6, 5, None, id="universal-6-5"),
    pytest.param(0, 3, None, id="universal-0-3"),
    pytest.param(0, 8, "additive", id="additive"),
    pytest.param(0, 8, ("multiplicative", Fraction(2, 5)), id="multiplicative"),
    pytest.param(0, 7, {1: Fraction(1, 2), 3: Fraction(-2)}, id="custom"),
]


@pytest.mark.parametrize("dc, D, spec", LAWS)
def test_law_matches_fold_oracles(dc, D, spec):
    ctx = build(dc, D, spec)
    rho = rho_degreewise(ctx)
    assert same(ctx.rho, rho)
    for n in range(-4, 6):
        assert same(ctx.n_series(n), nseries_fold(ctx, n, rho)), n
    for a, b in [(1, 1), (2, -1), (-3, 2), (4, 1)]:
        got = ctx.plus(ctx.n_series(a), ctx.n_series(b))
        assert same(got, ctx.n_series(a + b)), (a, b)
        via_log = ctx.exp.substitute(
            {"u": ctx.log.substitute({"u": ctx.n_series(a)}) + ctx.log.substitute({"u": ctx.n_series(b)})}
        )
        assert same(got, via_log)


def test_truncated_guarantee_propagates_like_the_oracle():
    ctx = build(4, 6)
    x = ctx.n_series(2).truncated(3)
    got = ctx.plus(x, ctx.n_series(3))
    assert got.guarantee == 3
    assert got.eq_through(nseries_fold(ctx, 5, ctx.rho), 3)


def test_rho_check_raises_on_a_wrong_exponential(monkeypatch):
    real = TruncSeries.compositional_inverse

    def off_by_one(self):
        e = real(self)
        return e + TruncSeries.monomial(("u",), (3,), 1, e.guarantee)

    monkeypatch.setattr(TruncSeries, "compositional_inverse", off_by_one)
    with pytest.raises(ArithmeticError):
        build(2, 5)


def _forbid_F(monkeypatch):
    def boom(self):
        raise AssertionError("F was built")

    monkeypatch.setattr(fgl.FGLContext, "F", property(boom))


def test_build_does_not_build_F():
    ctx = build(6, 8)
    assert ctx._F is None
    ctx.n_series(-3)
    assert ctx._F is None
    assert ctx.a_coeff(1, 1) == mono((1,), -2)
    assert ctx._F is not None


@pytest.mark.parametrize(
    "argv",
    [
        ["flag", "kernel", "x1*x2+x1*x3+x2*x3", "--rank", "3"],
        ["flag", "kernel", "m1*x1^2+x1*x2", "--rank", "3", "--spec", "multiplicative:2/5"],
        ["gkm", "integrate", "--graph", '{"rank": 1, "dim": 1, "vertices": ["0", "inf"], '
         '"edges": [{"v": "0", "w": "inf", "char": [2]}]}', "--class", '{"0": "chern(2)", "inf": "0"}'],
        ["gkm", "integrate", "--graph", '{"rank": 1, "dim": 1, "vertices": ["0", "inf"], '
         '"edges": [{"v": "0", "w": "inf", "char": [-1]}]}', "--class", '{"0": "1", "inf": "1"}'],
    ],
)
def test_commands_run_without_F(monkeypatch, argv):
    _forbid_F(monkeypatch)
    out, err = io.StringIO(), io.StringIO()
    assert cli.main(argv, stdout=out, stderr=err, stdin=io.StringIO()) == 0, err.getvalue()
