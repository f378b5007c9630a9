"""Formal group law: frozen values, axioms, specializations, and oracles."""

import io
from fractions import Fraction

import pytest

from torcob import cli, fgl
from torcob.coeff import GradedCoeff, partitions
from torcob.errors import TooLarge, TruncationInsufficient
from torcob.fgl import build
from torcob.series import TruncSeries

from test_coeff import rational_part


def mono(exps, q=1):
    return GradedCoeff.monomial(exps, q)


def factor_coeff(factor):
    """A factor of ``weight_factors``, an {m-key: int} map, as a GradedCoeff."""
    return GradedCoeff.from_numerators(factor, 1)


def formal_sum(ctx, summands):
    """Left fold of the context's F over the list; summands need zero constant term."""
    summands = list(summands)
    if not summands:
        raise ValueError("empty formal sum")
    acc = summands[0]
    if not acc.constant_term().is_zero():
        raise ValueError("formal summand has nonzero constant term")
    for s in summands[1:]:
        if not s.constant_term().is_zero():
            raise ValueError("formal summand has nonzero constant term")
        acc = ctx.F.substitute({"u": acc, "v": s})
    return acc


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


@pytest.mark.parametrize(
    "spec", [None, "additive", ("multiplicative", Fraction(2, 5)), {2: Fraction(3), 4: Fraction(-1, 7)}]
)
def test_spec_value_needs_no_context(spec):
    ctx = build(3, 6, spec)
    for i in range(1, 6):
        want = rational_part(ctx.log.coefficient((i + 1,)))
        assert fgl.spec_value(ctx.specialization, i) == ctx.spec_value(i) == want


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
    for i, j in [(-1, 3), (2, -1), (-1, 0)]:
        with pytest.raises(ValueError, match="negative"):
            ctx.a_coeff(i, j)


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
    assert formal_sum(ctx, [t1]) == t1
    assert formal_sum(ctx, [t1, T.zero()]) == t1
    left = formal_sum(ctx, [t1, t2, t3])
    right = ctx.plus(t1, ctx.plus(t2, t3))
    assert left == right  # associativity makes the bracketing irrelevant
    with pytest.raises(ValueError):
        formal_sum(ctx, [T.one()])


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
    ctx = build(2, 5)
    # the check runs on each read until it passes, so every reader of e raises
    for read in (lambda: ctx.exp, lambda: ctx.n_series(2), lambda: ctx.rho, lambda: ctx.F):
        with pytest.raises(ArithmeticError):
            read()
    assert "exp" not in vars(ctx)


def test_build_forms_no_exp(monkeypatch):
    def boom(self):
        raise AssertionError("the exponential was built")

    monkeypatch.setattr(TruncSeries, "compositional_inverse", boom)
    ctx = build(6, 12)
    assert "exp" not in vars(ctx)
    ctx.weight_factors(11)
    assert "exp" not in vars(ctx)
    monkeypatch.undo()
    e = ctx.exp
    assert e is ctx.exp  # cached: read twice, built once
    assert e == ctx.log.compositional_inverse()


def test_build_forms_no_rho(monkeypatch):
    def boom(self, n):
        raise AssertionError("an n-series was built")

    monkeypatch.setattr(fgl.FGLContext, "n_series", boom)
    ctx = build(6, 12)
    assert -1 not in ctx._nser
    monkeypatch.undo()
    assert ctx.rho == ctx._nser[-1]


@pytest.mark.parametrize(
    "dc, d, spec",
    [(6, 8, None), (0, 7, "additive"), (3, 7, ("multiplicative", Fraction(2, 5))),
     (2, 6, {1: Fraction(1, 3), 3: Fraction(-2)})],
    ids=["universal", "additive", "multiplicative", "custom"],
)
def test_lazy_rho_is_the_formal_inverse(dc, d, spec):
    ctx = build(dc, d, spec)
    rho = ctx.rho
    assert rho is ctx.rho  # cached: read twice, built once
    assert rho == ctx.n_series(-1) == ctx.exp.substitute({"u": -ctx.log})
    assert ctx.log.substitute({"u": rho}) == -ctx.log
    u = TruncSeries.variable(("u", "v"), "u", d)
    assert ctx.F.substitute({"u": u, "v": rho.substitute({"u": u})}).is_zero()


def _forbid_F(monkeypatch):
    def boom(self):
        raise AssertionError("F was built")

    monkeypatch.setattr(fgl.FGLContext, "F", property(boom))


def test_build_does_not_build_F():
    ctx = build(6, 8)
    assert "F" not in vars(ctx)
    ctx.n_series(-3)
    assert "F" not in vars(ctx)
    assert ctx.a_coeff(1, 1) == mono((1,), -2)
    assert "F" in vars(ctx)


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


def test_partitions_list_every_prefix_first():
    parts = partitions(6)
    assert fgl.partitions is partitions
    assert [sum(1 for mu in parts if sum(mu) == k) for k in range(7)] == [1, 1, 2, 3, 5, 7, 11]
    assert len(set(parts)) == len(parts)
    seen = set()
    for mu in parts:
        assert list(mu) == sorted(mu, reverse=True) and mu[:-1] in seen | {()}
        seen.add(mu)


@pytest.mark.parametrize(
    "spec", [None, "additive", ("multiplicative", Fraction(2, 5)), {1: Fraction(1, 3), 3: -2}],
    ids=str,
)
def test_weight_factors_expand_the_characteristic_series(spec):
    # sum over |mu| = k of (q_mu / aut mu) p_mu(a) is [x^k] prod_j Q(a_j x),
    # with Q(x) = x / e(x) inverted here as a series
    dim, a = 6, (2, -3, 1)
    ctx = build(dim, dim + 1, spec)
    x = ("u",)
    unit = TruncSeries(x, {(k - 1,): c for (k,), c in ctx.exp.coeffs.items()}, dim)
    q_series = unit.invert_unit()
    want = TruncSeries.constant(x, 1, dim)
    for aj in a:
        want = want * q_series.substitute({"u": TruncSeries.monomial(x, (1,), aj, dim)})
    den, factors = ctx.weight_factors(dim)
    assert ctx.weight_factors(dim) is ctx.weight_factors(dim)
    for k in range(dim + 1):
        total = GradedCoeff.zero()
        for mu in factors:
            if sum(mu) != k:
                continue
            weight = GradedCoeff.one()
            for i in range(1, len(mu) + 1):
                weight = weight * factor_coeff(factors[mu[:i]])
            p_mu = 1
            for part in mu:
                p_mu *= sum(aj ** part for aj in a)
            total = total + weight.scale(Fraction(p_mu, den ** k))
        assert total == want.coefficient((k,))


@pytest.mark.parametrize(
    "spec", [None, "additive", ("multiplicative", Fraction(2, 5)), {1: Fraction(1, 3), 3: -2}],
    ids=str,
)
def test_live_partitions_are_those_of_nonzero_weight(spec):
    dim = 6
    ctx = build(dim, dim + 1, spec)
    _, factors = ctx.weight_factors(dim)
    for k in range(dim + 1):
        want = []
        for mu in factors:
            weight = GradedCoeff.one()
            for i in range(1, len(mu) + 1):
                weight = weight * factor_coeff(factors[mu[:i]])
            if sum(mu) <= k and not weight.is_zero():
                want.append(mu)
        assert ctx.live_partitions(dim, k) == want
        assert ctx.live_partitions(dim, k) is ctx.live_partitions(dim, k)
    if spec == "additive":
        assert ctx.live_partitions(dim, dim) == [()]


def characteristic_log_oracle(exp, n):
    """[None, q_1, ..., q_n] with x / e(x) = exp(sum_k q_k x^k), from e through x^(n+1).

    With g(x) = e(x)/x = sum g_i x^i (g_0 = 1) and log g = sum L_k x^k,
    g' = g L' gives k L_k = k g_k - sum_(0<j<k) j L_j g_(k-j); q_k = -L_k.
    """
    g = [exp.coefficient((i + 1,)) for i in range(n + 1)]
    logs = [None]
    for k in range(1, n + 1):
        acc = g[k].scale(k)
        for j in range(1, k):
            acc = acc - (logs[j] * g[k - j]).scale(j)
        logs.append(acc.scale(Fraction(1, k)))
    return [None] + [-x for x in logs[1:]]


def characteristic_log(ctx, n):
    """q_1, ..., q_n read off ``weight_factors``: the factor of (k,) is den^k q_k."""
    den, factors = ctx.weight_factors(n)
    return [None] + [factor_coeff(factors[(k,)]).scale(Fraction(1, den ** k)) for k in range(1, n + 1)]


@pytest.mark.parametrize(
    "spec", [None, "additive", ("multiplicative", Fraction(2, 5)), {1: Fraction(1, 3), 3: -2}],
    ids=str,
)
@pytest.mark.parametrize("n, dc", [(8, 8), (10, 3), (12, 12)])
def test_characteristic_log_matches_the_recurrence(n, dc, spec):
    ctx = build(dc, n + 1, spec)
    assert characteristic_log(ctx, n) == characteristic_log_oracle(ctx.exp, n)


def test_characteristic_log_starts_at_m1():
    # x / e(x) = 1 + m1 x + ..., since e(x) = x - m1 x^2 + ...
    assert characteristic_log(build(4, 5), 1)[1] == mono((1,))


def test_universal_law_builds_at_max_deg():
    # the check e(l(u)) = u on reading e is the oracle, and rho then satisfies
    # l(rho(u)) = -l(u)
    ctx = build(fgl.MAX_DEG - 1, fgl.MAX_DEG)
    assert ctx.exp.guarantee == ctx.rho.guarantee == fgl.MAX_DEG
    assert ctx.log.substitute({"u": ctx.rho}) == -ctx.log


def test_weight_factors_need_the_degree():
    with pytest.raises(TruncationInsufficient):
        build(3, 3).weight_factors(3)


def test_context_above_max_deg_is_refused_before_any_series(monkeypatch):
    def boom(self):
        raise AssertionError("the logarithm was built")

    monkeypatch.setattr(fgl.FGLContext, "_build_log", boom)
    with pytest.raises(TooLarge, match="above the limit"):
        fgl.FGLContext(fgl.MAX_DEG, fgl.MAX_DEG + 1)
    with pytest.raises(AssertionError):
        fgl.FGLContext(0, fgl.MAX_DEG)
