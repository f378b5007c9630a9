"""Bott residue integration in the logarithmic coordinate against the
all-vertex sum, the one-variable residue series of ``residue_oracle`` and
Kosniowski's chi_y formula."""

import functools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from torcob import gkm
from torcob.accept import _P1_CHARS
from torcob.coeff import GradedCoeff
from torcob.errors import NotDivisible
from torcob.fgl import FGLContext, build
from torcob.series import TruncSeries
from torcob.torus import TorusContext

import residue_oracle
from residue_oracle import residues


def residue_sum_oracle(ctx, g, alpha):
    """The all-vertex common-denominator residue sum in S(T).

    Cross-multiplies the fractions alpha_v / e_v over every vertex, clears
    the denominator by exact division and takes the constant term.  It needs
    the truncation ``old_truncation`` and shares no step with the
    one-parameter route beyond the Euler classes.
    """
    num = den = None
    for v in g.vertices:
        ev = gkm.euler_class(ctx, g, v)
        av = alpha.values[v]
        if num is None:
            num, den = av, ev
        else:
            num = num * ev + av * den
            den = den * ev
    return num.divide_exact(den).constant_term()


def old_truncation(g, class_degree):
    """Truncation of the all-vertex sum: total Euler degree plus the class degree."""
    return len(g.vertices) * g.dim + class_degree


def power(alpha, k, one):
    out = one
    for _ in range(k):
        out = out * alpha
    return out


def flag_monomial(T, g, exps):
    out = gkm.constant_class(T, g, 1)
    for k, e in enumerate(exps):
        out = out * power(gkm.flag_tautological(T, g, k + 1), e, gkm.constant_class(T, g, 1))
    return out


def both_routes(g, class_degree, make, dc, law=None):
    T = TorusContext(g.rank, build(dc, old_truncation(g, class_degree), law))
    alpha = make(T, g)
    return gkm.integrate(T, g, alpha), residue_sum_oracle(T, g, alpha)


# -- cross-checks against the all-vertex sum -----------------------------------------


@pytest.mark.parametrize(
    "chi", [chi for chars in _P1_CHARS.values() for chi in chars], ids=str
)
def test_p1_battery_characters_match_oracle(chi):
    g = gkm.p1_graph(chi)
    cases = [
        (0, lambda T, g: gkm.constant_class(T, g, 1)),
        (1, lambda T, g: gkm.pushforward_point(T, g, "0", T.one())),
        (1, lambda T, g: gkm.pushforward_point(T, g, "inf", T.one())),
    ]
    for deg, make in cases:
        new, old = both_routes(g, deg, make, 1)
        assert new == old


@pytest.mark.parametrize("n, top", [(2, 3), (3, 1)])
def test_pn_matches_oracle(n, top):
    g = gkm.pn_graph(n)
    for k in range(top + 1):
        new, old = both_routes(
            g, k, lambda T, g: power(gkm.pn_hyperplane(T, g), k, gkm.constant_class(T, g, 1)), n
        )
        assert new == old
    if n == 2:
        new, old = both_routes(g, n, lambda T, g: gkm.pushforward_point(T, g, "1", T.one()), n)
        assert new == old == GradedCoeff.one()


def test_flag2_matches_oracle():
    g = gkm.flag_graph(2)
    for exps in [(0, 0), (1, 0), (0, 1)]:
        new, old = both_routes(g, sum(exps), lambda T, g: flag_monomial(T, g, exps), 1)
        assert new == old


@pytest.mark.parametrize("law", ["additive", ("multiplicative", Fraction(2, 5))], ids=str)
def test_flag3_specialized_matches_oracle(law):
    g = gkm.flag_graph(3)
    for exps in [(0, 0, 0), (1, 1, 0), (2, 1, 0)]:
        new, old = both_routes(g, sum(exps), lambda T, g: flag_monomial(T, g, exps), 0, law)
        assert new == old


# -- every class kind against the residue series ----------------------------------------


LOG_ROUTE_GRAPHS = (
    [("p1", chi) for chars in _P1_CHARS.values() for chi in chars]
    + [("pn", n) for n in range(2, 5)]
    + [("flag", n) for n in range(2, 6)]
)
CUSTOM_LAW = {1: Fraction(1, 3), 3: Fraction(-2)}
LAWS = [None, "additive", ("multiplicative", Fraction(2, 5)), CUSTOM_LAW]
CONSTANTS = [GradedCoeff.one(), GradedCoeff.zero(), GradedCoeff.generator(1).scale(Fraction(3, 2))]
M1 = GradedCoeff.generator(1)


def law_id(law):
    return "custom" if law is CUSTOM_LAW else str(law)


def log_route_classes(T, g, kind):
    """Point classes, powers of h on pn, x-monomials on flag and a non-homogeneous class."""
    one = gkm.constant_class(T, g, 1)
    out = [gkm.pushforward_point(T, g, v, T.one()) for v in (g.vertices[0], g.vertices[-1])]
    # a point class with terms above dim and a Lazard coefficient
    out.append(gkm.pushforward_point(T, g, g.vertices[1], T.one() + T.var(0).mul_coeff(M1)))
    if kind == "pn":
        h = gkm.pn_hyperplane(T, g)
        powers = [h]
        for _ in range(g.dim):  # through h^(dim + 1), which lies above dim
            powers.append(powers[-1] * h)
        out += powers + [one + h + (h * h).mul_coeff(M1)]
    elif kind == "flag":
        x = [gkm.flag_tautological(T, g, k + 1) for k in range(g.rank)]
        top = one
        for k, xk in enumerate(x):  # the top Artin monomial x_1^(n-1) x_2^(n-2) ...
            top = top * power(xk, g.rank - 1 - k, one)
        out += [x[0], x[0] * x[-1], top, top * x[-1], one + x[0] + (x[0] * x[-1]).mul_coeff(M1)]
    else:
        out.append(one + out[0].mul_coeff(M1))
    return out


@pytest.mark.parametrize("law", LAWS, ids=law_id)
@pytest.mark.parametrize("kind, arg", LOG_ROUTE_GRAPHS, ids=str)
def test_log_route_matches_residues(kind, arg, law):
    g = gkm.p1_graph(arg) if kind == "p1" else gkm.generate(kind, n=arg)
    T = TorusContext(g.rank, build(g.dim, g.dim + 1, law))
    for c in CONSTANTS:
        alpha = gkm.constant_class(T, g, c)
        got = gkm.integrate(T, g, alpha)
        assert got == residues(T, g, alpha) == residue_oracle.two_routes(T, g, alpha)
    # the other kinds at a small Dc; classes built deeper carry a guarantee above D
    # (left out on flag(5), whose deeper Euler classes take seconds to build)
    T = TorusContext(g.rank, build(2, g.dim + 1, law))
    contexts = [T] if len(g.vertices) > 24 else [T, TorusContext(g.rank, build(2, g.dim + 3, law))]
    for U in contexts:
        classes = log_route_classes(U, g, kind)
        for alpha in classes:
            assert gkm.integrate(T, g, alpha) == residues(T, g, alpha)
        assert [gkm.integrate(T, g, a) for a in classes[:2]] == [GradedCoeff.one()] * 2


def test_both_routes_refuse_a_failed_certificate():
    # valid graph, not a variety: R_0 = sum_v 1 / (a_v1 a_v2) = 2 / (a_1 a_2) != 0
    g = gkm.GKMGraph(2, 2, ["a", "b"], [("a", "b", (1, 0)), ("a", "b", (0, 1))])
    assert g.validate() == []
    for law in LAWS:
        T = TorusContext(2, build(2, 3, law))
        one = gkm.constant_class(T, g, 1)
        with pytest.raises(NotDivisible):
            gkm.integrate(T, g, one)
        with pytest.raises(NotDivisible):
            residues(T, g, one)


NON_CLASS_CASES = [("p1", (2, -1)), ("pn", 2), ("flag", 2), ("flag", 3)]


@functools.cache
def non_class_setting(case, law):
    kind, arg = NON_CLASS_CASES[case]
    g = gkm.p1_graph(arg) if kind == "p1" else gkm.generate(kind, n=arg)
    return g, TorusContext(g.rank, build(2, g.dim + 1, LAWS[law]))


TERM = st.tuples(
    st.integers(0, 5),                                   # vertex, modulo their number
    st.lists(st.integers(0, 3), min_size=3, max_size=3),  # t-exponents, cut to the rank
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.integers(0, 2),                                   # power of m1 in the coefficient
)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(NON_CLASS_CASES) - 1), st.integers(0, len(LAWS) - 1),
       st.booleans(), st.lists(TERM, max_size=6))
def test_non_class_values_match_residues(case, law, base, terms):
    # random vertex values, on top of [X] or of nothing: the routes refuse together or agree
    g, T = non_class_setting(case, law)
    values = {v: TruncSeries.constant(T.vars, int(base), T.D) for v in g.vertices}
    for i, exps, q, k in terms:
        v = g.vertices[i % len(g.vertices)]
        coeff = GradedCoeff.generator(1) ** k if k else GradedCoeff.one()
        t = TruncSeries.monomial(T.vars, exps[: g.rank], coeff.scale(q), T.D)
        values[v] = values[v] + t
    alpha = gkm.PiecewiseClass(values)
    try:
        want = residues(T, g, alpha)
    except NotDivisible:
        with pytest.raises(NotDivisible):
            gkm.integrate(T, g, alpha, check_class=False)
    else:
        assert gkm.integrate(T, g, alpha, check_class=False) == want


@pytest.mark.parametrize("kind, n", [("pn", 3), ("flag", 3)])
def test_integrate_forms_no_series(kind, n, monkeypatch):
    g = gkm.generate(kind, n=n)
    T = TorusContext(g.rank, build(2, g.dim + 1))
    classes = [gkm.constant_class(T, g, 1)] + log_route_classes(T, g, kind)
    want = [residues(T, g, alpha) for alpha in classes]

    def boom(*args, **kwargs):
        raise AssertionError("integration formed a series")

    T = TorusContext(g.rank, build(2, g.dim + 1))  # weights not yet cached
    for owner, attr in [(FGLContext, "n_series"), (TruncSeries, "substitute"),
                        (TruncSeries, "__mul__")]:
        monkeypatch.setattr(owner, attr, boom)
    assert [gkm.integrate(T, g, alpha, check_class=False) for alpha in classes] == want


def chi_y_law(y, degree):
    """m_i of the chi_y genus: l(u) = log((1 + y u) / (1 - u)) / (1 + y), y != -1."""
    y = Fraction(y)
    return {i: (1 - (-y) ** (i + 1)) / ((i + 1) * (1 + y)) for i in range(1, degree)}


def kosniowski(g, y):
    """chi_y by Kosniowski: sum over fixed points of (-y)^(number of negative weights).

    The weights are the pairings with a cocharacter chosen here, not the one
    ``integrate`` uses; the sum does not depend on it.
    """
    lam = tuple(10 ** i for i in range(g.rank))
    total = Fraction(0)
    for v in g.vertices:
        weights = [gkm._pairing(chi, lam) for _, chi in g.incident(v)]
        assert all(weights)
        total += Fraction(-y) ** sum(1 for a in weights if a < 0)
    return total


@pytest.mark.parametrize("y", [2, Fraction(-3, 7), 5, 0], ids=str)
@pytest.mark.parametrize("kind, n", [("pn", 3), ("flag", 4), ("flag", 5)], ids=str)
def test_chi_y_genus_matches_kosniowski(kind, n, y):
    g = gkm.generate(kind, n=n)
    T = TorusContext(g.rank, build(0, g.dim + 1, chi_y_law(y, g.dim + 1)))
    got = gkm.integrate(T, g, gkm.constant_class(T, g, 1))
    assert got == GradedCoeff.from_rational(kosniowski(g, y))


# -- the choice of cocharacter -------------------------------------------------------


def _lambda_cases():
    cases = []
    T = TorusContext(3, build(3, 4))
    g = gkm.flag_graph(3)
    cases.append((T, g, gkm.constant_class(T, g, 1)))
    cases.append((T, g, flag_monomial(T, g, (1, 0, 0))))
    T2 = TorusContext(2, build(2, 3))
    g2 = gkm.pn_graph(2)
    cases.append((T2, g2, gkm.pn_hyperplane(T2, g2)))
    g3 = gkm.p1_graph((2, 3))
    cases.append((T2, g3, gkm.pushforward_point(T2, g3, "inf", T2.one())))
    return cases


LAMBDA_CASES = _lambda_cases()


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(st.sampled_from(range(len(LAMBDA_CASES))), st.lists(st.integers(-4, 4), min_size=3, max_size=3))
def test_answer_independent_of_cocharacter(index, entries):
    T, g, alpha = LAMBDA_CASES[index]
    lam = tuple(entries[: g.rank])
    assume(all(gkm._pairing(chi, lam) for _, _, chi in g.edges))
    total = residue_oracle._residue_along(T, g, alpha, lam)
    assert all(k >= g.dim for (k,) in total.coeffs)
    assert total.coefficient((g.dim,)) == gkm.integrate(T, g, alpha)


def test_generic_cocharacter_pairs_nonzero():
    for g in [gkm.p1_graph((2, 3, 5)), gkm.pn_graph(4), gkm.flag_graph(4)]:
        lam = gkm._generic_cocharacter(g)
        assert all(gkm._pairing(chi, lam) for _, _, chi in g.edges)
    assert gkm._generic_cocharacter(gkm.flag_graph(3)) == (0, 1, -1)


def test_graph_keeps_its_generic_cocharacter():
    graphs = [gkm.p1_graph((2, 3, 5)), gkm.pn_graph(4), gkm.flag_graph(4)]
    graphs.append(gkm.GKMGraph.from_json(graphs[-1].to_json()))
    for g in graphs:
        lam = g.cocharacter
        assert lam == gkm._generic_cocharacter(g)
        assert g.cocharacter is lam


def test_non_class_fails_the_certificate():
    T = TorusContext(1, build(1, 2))
    g = gkm.p1_graph((1,))
    alpha = gkm.PiecewiseClass({"0": T.one(), "inf": T.zero()})
    with pytest.raises(NotDivisible):
        gkm.integrate(T, g, alpha, check_class=False)


def test_required_guarantee_is_dimension_plus_one():
    T = TorusContext(3, build(0, 4, "additive"))
    g = gkm.flag_graph(3)
    assert gkm.required_guarantee(g, flag_monomial(T, g, (2, 1, 0))) == 4
    assert gkm.required_guarantee(gkm.pn_graph(4), None) == 5


# -- reach ---------------------------------------------------------------------------


FL4 = (
    GradedCoeff.monomial((6,), 1280)
    + GradedCoeff.monomial((4, 1), -3200)
    + GradedCoeff.monomial((3, 0, 1), 1360)
    + GradedCoeff.monomial((2, 2), 1296)
    + GradedCoeff.monomial((2, 0, 0, 1), -480)
    + GradedCoeff.monomial((1, 1, 1), -288)
    + GradedCoeff.monomial((1, 0, 0, 0, 1), 80)
    + GradedCoeff.monomial((0, 0, 2), -24)
)


def test_p4_fundamental_class():
    T = TorusContext(4, build(4, 5))
    g = gkm.pn_graph(4)
    got = gkm.integrate(T, g, gkm.constant_class(T, g, 1))
    assert got == GradedCoeff.generator(4).scale(5)


def test_flag4_universal_fundamental_class():
    T = TorusContext(4, build(6, 7))
    g = gkm.flag_graph(4)
    one = gkm.constant_class(T, g, 1)
    assert gkm.integrate(T, g, one) == FL4
    other = residue_oracle._residue_along(T, g, one, (3, -1, 5, 2))
    assert all(k >= g.dim for (k,) in other.coeffs)
    assert other.coefficient((g.dim,)) == FL4


def test_flag4_value_specializations():
    # the multiplicative genus of a 6-fold is beta^6 (Todd genus 1 at beta = 1)
    g = gkm.flag_graph(4)
    for beta in (Fraction(1), Fraction(2, 5), Fraction(-3, 7)):
        value = FL4.specialize(lambda i: beta ** i / (i + 1))
        assert value == GradedCoeff.from_rational(beta ** 6)
        T = TorusContext(4, build(0, 7, ("multiplicative", beta)))
        assert gkm.integrate(T, g, gkm.constant_class(T, g, 1)) == value
    assert FL4.specialize(lambda i: Fraction(0)).is_zero()


def test_flag6_universal_fundamental_class():
    g = gkm.flag_graph(6)
    T = TorusContext(6, build(g.dim, g.dim + 1))
    fl6 = gkm.integrate(T, g, gkm.constant_class(T, g, 1))
    assert len(fl6.terms) == 123
    assert fl6.homogeneous_degree() == -g.dim
    assert fl6.specialize(lambda i: Fraction(1, i + 1)) == GradedCoeff.one()
    assert fl6.specialize(lambda i: Fraction(0)).is_zero()
    chi_2 = chi_y_law(2, g.dim + 1)
    assert fl6.specialize(chi_2.get) == GradedCoeff.from_rational(kosniowski(g, 2))
