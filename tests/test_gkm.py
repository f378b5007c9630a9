"""Moment graphs: validation, classes, residues, expansion, generators."""

import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torcob import gkm
from torcob.accept import _P1_CHARS
from torcob.coeff import GradedCoeff
from torcob.errors import (
    Ambiguous,
    GraphInvalid,
    NoSolution,
    NotAClass,
    TooLarge,
    TruncationInsufficient,
    VariableMismatch,
    ZeroCharacter,
)
from torcob.fgl import build
from torcob.series import TruncSeries
from torcob.torus import TorusContext, content

from test_coeff import rational_part


@pytest.fixture(scope="module")
def T1():
    return TorusContext(1, build(5, 8))


@pytest.fixture(scope="module")
def P1():
    return gkm.p1_graph((1,))


def test_validate_p1(P1):
    assert P1.validate() == []


def test_validate_valence_mismatch():
    g = gkm.GKMGraph(1, 1, ["a", "b", "c"], [("a", "b", (1,)), ("a", "c", (2,))])
    problems = g.validate()
    assert any("valence" in p for p in problems)


def test_validate_proportional_characters():
    g = gkm.GKMGraph(2, 2, ["a", "b", "c"], [("a", "b", (1, 0)), ("a", "c", (2, 0)),
                                              ("b", "c", (0, 1))])
    problems = g.validate()
    assert any("proportional" in p for p in problems)


def test_validate_zero_character():
    g = gkm.GKMGraph(1, 1, ["a", "b"], [("a", "b", (0,))])
    assert any("zero" in p for p in problems_lower(g))


def problems_lower(g):
    return [p.lower() for p in g.validate()]


# -- validation against the pairwise oracle -----------------------------------


def proportional(a, b) -> bool:
    """Exact Q-proportionality for nonzero vectors: all 2x2 minors vanish."""
    n = len(a)
    for i in range(n):
        for j in range(i + 1, n):
            if a[i] * b[j] - a[j] * b[i] != 0:
                return False
    return True


def pairwise_validate(g):
    """``GKMGraph.validate`` by 2x2 minors over every pair of characters in each star."""
    problems = []
    for v, w, chi in g.edges:
        if content(chi) == 0:
            problems.append(f"edge ({v},{w}) has the zero character")
    for v in g.vertices:
        inc = g.incident(v)
        if len(inc) != g.dim:
            problems.append(f"vertex {v} has valence {len(inc)}, expected {g.dim}")
        for (_, chi_a), (_, chi_b) in itertools.combinations(inc, 2):
            if content(chi_a) and content(chi_b) and proportional(chi_a, chi_b):
                problems.append(f"vertex {v} has proportional edge characters {chi_a} and {chi_b}")
    return problems


def test_pairwise_oracle_proportional():
    assert proportional((1, 2), (2, 4)) and proportional((1, -1), (-2, 2))
    assert not proportional((1, 0), (1, 1))
    assert gkm._direction((-2, 4)) == gkm._direction((1, -2)) == (1, -2)
    assert gkm._direction((0, -3, 6)) == (0, 1, -2)


@st.composite
def small_graphs(draw):
    """Graphs of rank 1-3 whose characters are multiples (negative, scaled,
    zero) of a few base characters, with repeats, self-loops and any valence."""
    rank = draw(st.integers(1, 3))
    char = st.tuples(*[st.integers(-2, 2)] * rank)
    bases = draw(st.lists(char, min_size=1, max_size=3))
    vertices = [str(i) for i in range(draw(st.integers(1, 5)))]
    vertex = st.sampled_from(vertices)
    scale = st.sampled_from([-3, -2, -1, 0, 1, 2, 3])
    edge = st.tuples(vertex, vertex, st.sampled_from(bases), scale)
    edges = [(v, w, tuple(k * x for x in chi)) for v, w, chi, k in draw(st.lists(edge, max_size=8))]
    return gkm.GKMGraph(rank, draw(st.integers(0, 4)), vertices, edges)


@settings(max_examples=400, deadline=None)
@given(small_graphs())
def test_validate_matches_pairwise_oracle(g):
    assert g.validate() == pairwise_validate(g)


def _restricted(g):
    """g with every character restricted along t_1 = t_2: (chi_1 + chi_2, chi_3, ...),
    so that stars gain zero and proportional characters."""
    edges = [(v, w, (chi[0] + chi[1],) + chi[2:]) for v, w, chi in g.edges]
    return gkm.GKMGraph(g.rank - 1, g.dim, g.vertices, edges)


@pytest.mark.parametrize(
    "g",
    [gkm.flag_graph(n) for n in range(1, 7)] + [gkm.pn_graph(n) for n in range(1, 6)],
    ids=[f"flag-{n}" for n in range(1, 7)] + [f"pn-{n}" for n in range(1, 6)],
)
def test_validate_matches_pairwise_oracle_on_generated_graphs(g):
    assert g.validate() == pairwise_validate(g) == []
    if g.dim > 1:
        bad = _restricted(g)
        problems = bad.validate()
        assert problems == pairwise_validate(bad) and any("proportional" in p for p in problems)


def test_repeated_vertex_id_is_invalid():
    obj = {"rank": 1, "dim": 1, "vertices": ["0", 0, "inf"],
           "edges": [{"v": "0", "w": "inf", "char": [1]}]}
    with pytest.raises(GraphInvalid, match="vertex 0 is listed more than once"):
        gkm.GKMGraph.from_json(obj)


def test_unknown_edge_endpoint_is_invalid():
    with pytest.raises(GraphInvalid, match=r"edge \(a,x\) references an unknown vertex"):
        gkm.GKMGraph(1, 1, ["a", "b"], [("a", "x", (1,))])
    with pytest.raises(GraphInvalid, match=r"edge \(x,b\) references an unknown vertex"):
        gkm.GKMGraph(1, 1, ["a", "b"], [("x", "b", (1,))])


def test_character_length_must_be_the_rank():
    with pytest.raises(GraphInvalid, match=r"edge \(0,inf\) has a character of length 1, not the rank 2"):
        gkm.GKMGraph(2, 1, ["0", "inf"], [("0", "inf", (1,))])
    obj = {"rank": 1, "dim": 1, "vertices": ["0", "inf"],
           "edges": [{"v": "0", "w": "inf", "char": [1, 5]}]}
    with pytest.raises(GraphInvalid, match="length 2, not the rank 1"):
        gkm.GKMGraph.from_json(obj)


def test_zero_edge_character_has_no_cocharacter_and_is_graph_invalid():
    # validate's messages, for every zero edge, in edge order; integrate on the
    # unvalidated graph reaches the cocharacter and refuses with the same text
    g = gkm.GKMGraph(2, 1, ["0", "inf", "a", "b"],
                     [("0", "inf", (0, 0)), ("a", "b", (1, 0)), ("b", "a", (0, 0))])
    msg = r"^edge \(0,inf\) has the zero character; edge \(b,a\) has the zero character$"
    with pytest.raises(GraphInvalid, match=msg):
        g.cocharacter
    T = TorusContext(2, build(1, 3))
    with pytest.raises(GraphInvalid, match=msg):
        gkm.integrate(T, g, gkm.constant_class(T, g, 1))
    p1 = gkm.GKMGraph(1, 1, ["0", "inf"], [("0", "inf", (0,))])
    assert p1.validate() == ["edge (0,inf) has the zero character"]
    T1 = TorusContext(1, build(1, 3))
    with pytest.raises(GraphInvalid, match=r"^edge \(0,inf\) has the zero character$"):
        gkm.integrate(T1, p1, gkm.constant_class(T1, p1, 1))


def test_from_json_refuses_a_float_or_a_boolean_integer():
    # int() would read 1.5 as 1 and true as 1; strings of digits stay accepted
    good = {"rank": 1, "dim": 1, "vertices": ["0", "inf"], "edges": [{"v": "0", "w": "inf", "char": [1]}]}
    assert gkm.GKMGraph.from_json(good).to_json() == good
    loose = dict(good, rank="1", edges=[{"v": "0", "w": "inf", "char": ["1"]}])
    assert gkm.GKMGraph.from_json(loose).to_json() == good
    for field, value in [("rank", 1.9), ("rank", True), ("dim", 1.0), ("dim", False)]:
        with pytest.raises(TypeError, match="expected an integer"):
            gkm.GKMGraph.from_json(dict(good, **{field: value}))
    for char in ([1.5], [True], [1e400]):
        with pytest.raises(TypeError, match="expected an integer"):
            gkm.GKMGraph.from_json(dict(good, edges=[{"v": "0", "w": "inf", "char": char}]))


def test_rank_must_be_positive():
    for rank in (0, -1):
        with pytest.raises(ValueError, match="rank must be positive"):
            gkm.GKMGraph(rank, 0, ["a"], [])
    with pytest.raises(ValueError, match="rank must be positive"):
        gkm.GKMGraph.from_json({"rank": 0, "dim": 0, "vertices": ["a"], "edges": []})


def test_is_class_examples(T1, P1):
    c = T1.character_series((1,))
    point = gkm.PiecewiseClass({"0": c, "inf": T1.zero()})
    assert gkm.is_class(T1, P1, point)
    assert not gkm.is_class(T1, P1, gkm.PiecewiseClass({"0": T1.one(), "inf": T1.zero()}))
    s = T1.one() + T1.var(0).mul_coeff(GradedCoeff.generator(1))
    const = gkm.PiecewiseClass({"0": s, "inf": s})
    assert gkm.is_class(T1, P1, const)


def test_is_class_needs_guarantee(T1, P1):
    alpha = gkm.PiecewiseClass({"0": T1.one().truncated(0), "inf": T1.zero().truncated(0)})
    with pytest.raises(TruncationInsufficient):
        gkm.is_class(T1, P1, alpha)


def test_pushforward_point_examples(T1, P1):
    pf0 = gkm.pushforward_point(T1, P1, "0", T1.one())
    assert pf0.restrict("0") == T1.character_series((1,))
    assert pf0.restrict("inf").is_zero()
    pfi = gkm.pushforward_point(T1, P1, "inf", T1.one())
    assert pfi.restrict("inf") == T1.character_series((-1,))
    assert gkm.is_class(T1, P1, pf0) and gkm.is_class(T1, P1, pfi)
    g2 = gkm.flag_graph(2)
    T2 = TorusContext(2, build(4, 6))
    pf = gkm.pushforward_point(T2, g2, "12", T2.one())
    assert pf.restrict("12") == T2.character_series((1, -1))


def test_integrate_fundamental_class(T1, P1):
    got = gkm.integrate(T1, P1, gkm.constant_class(T1, P1, 1))
    assert got == GradedCoeff.monomial((1,), 2)  # the class of the line itself


def test_integrate_point(T1, P1):
    pf = gkm.pushforward_point(T1, P1, "0", T1.one())
    assert gkm.integrate(T1, P1, pf) == GradedCoeff.one()


def test_integrate_rejects_non_class(T1, P1):
    with pytest.raises(NotAClass):
        gkm.integrate(T1, P1, gkm.PiecewiseClass({"0": T1.one(), "inf": T1.zero()}))


def test_integrate_needs_guarantee(T1, P1):
    alpha = gkm.constant_class(T1, P1, 1)
    low = gkm.PiecewiseClass({v: s.truncated(1) for v, s in alpha.values.items()})
    with pytest.raises(TruncationInsufficient):
        gkm.integrate(T1, P1, low)


def test_integrate_order_insensitive(T1):
    fwd = gkm.p1_graph((1,))
    rev = gkm.GKMGraph(1, 1, ["inf", "0"], [("0", "inf", (1,))])
    alpha = gkm.constant_class(T1, fwd, 1)
    assert gkm.integrate(T1, fwd, alpha) == gkm.integrate(T1, rev, alpha)


def test_integrate_componentwise_linearity(T1, P1):
    pf = gkm.pushforward_point(T1, P1, "0", T1.one())
    one = gkm.constant_class(T1, P1, 1)
    mixed = pf + one
    got = gkm.integrate(T1, P1, mixed)
    want = gkm.integrate(T1, P1, pf) + gkm.integrate(T1, P1, one)
    assert got == want


def test_integrate_multiplicative_is_beta():
    beta = Fraction(5, 7)
    T = TorusContext(1, build(0, 8, ("multiplicative", beta)))
    g = gkm.p1_graph((1,))
    got = gkm.integrate(T, g, gkm.constant_class(T, g, 1))
    assert got == GradedCoeff.from_rational(beta)


def test_localization_identity(T1, P1):
    # integrating a point-class multiple directly agrees with expanding first
    gamma = gkm.constant_class(T1, P1, 1) + gkm.pushforward_point(T1, P1, "inf", T1.one())
    beta = gkm.pushforward_point(T1, P1, "0", T1.one())
    cls = beta * gamma
    direct = gkm.integrate(T1, P1, cls)
    basis = [gkm.pushforward_point(T1, P1, v, T1.one()) for v in P1.vertices]
    coords = gkm.basis_expand(T1, P1, basis, cls)
    summed = GradedCoeff.zero()
    for c in coords:
        summed = summed + T1.augment(c)
    assert direct == summed


def test_basis_expand_spec_examples(T1, P1):
    b1 = gkm.constant_class(T1, P1, 1)
    b2 = gkm.pushforward_point(T1, P1, "0", T1.one())
    got = gkm.basis_expand(T1, P1, [b1, b2], b2)
    assert got[0].is_zero() and got[1].eq_through(T1.one(), got[1].guarantee)
    t = T1.var(0)
    alpha = gkm.PiecewiseClass({"0": t, "inf": t})
    got = gkm.basis_expand(T1, P1, [b1, b2], alpha)
    assert got[0].eq_through(t, got[0].guarantee) and got[1].is_zero()
    other = gkm.pushforward_point(T1, P1, "inf", T1.one())
    coords = gkm.basis_expand(T1, P1, [b1, b2], other)
    recon = b1.mul_series(coords[0]) + b2.mul_series(coords[1])
    g = min(c.guarantee for c in coords)
    for v in P1.vertices:
        assert recon.restrict(v).eq_through(other.restrict(v), g)


def test_basis_expand_no_solution(T1, P1):
    basis = [gkm.pushforward_point(T1, P1, v, T1.one()) for v in P1.vertices]
    outside = gkm.constant_class(T1, P1, 1)  # (1,1) is not a point-class combination
    with pytest.raises(NoSolution):
        gkm.basis_expand(T1, P1, basis, outside)


def test_basis_expand_ambiguous(T1, P1):
    b2 = gkm.pushforward_point(T1, P1, "0", T1.one())
    degenerate = [b2, b2.mul_series(T1.one())]
    # A_1 has two equal columns, and nothing below t-degree 1 is inconsistent
    with pytest.raises(Ambiguous):
        gkm.basis_expand(T1, P1, degenerate, b2)


def test_basis_expand_size_check(T1, P1):
    with pytest.raises(ValueError):
        gkm.basis_expand(T1, P1, [gkm.constant_class(T1, P1, 1)], gkm.constant_class(T1, P1, 1))


def test_tensor_with_L_examples(T1, P1):
    b1 = gkm.constant_class(T1, P1, 1)
    b2 = gkm.pushforward_point(T1, P1, "0", T1.one())
    assert gkm.tensor_with_L(T1, P1, [b1, b2], b2) == [GradedCoeff.zero(), GradedCoeff.one()]
    t = T1.var(0)
    assert gkm.tensor_with_L(T1, P1, [b1, b2], b2.mul_series(t)) == [
        GradedCoeff.zero(),
        GradedCoeff.zero(),
    ]
    assert gkm.tensor_with_L(T1, P1, [b1, b2], b1 + b2) == [
        GradedCoeff.one(),
        GradedCoeff.one(),
    ]


def test_generate_shapes():
    p1 = gkm.generate("p1", char=(1, -1))
    assert p1.rank == 2 and len(p1.vertices) == 2 and p1.edges[0][2] == (1, -1)
    p2 = gkm.generate("pn", n=2)
    assert len(p2.vertices) == 3 and p2.dim == 2 and len(p2.edges) == 3
    assert p2.validate() == []
    f2 = gkm.generate("flag", n=2)
    assert len(f2.vertices) == 2 and len(f2.edges) == 1 and f2.edges[0][2] == (1, -1)
    f3 = gkm.generate("flag", n=3)
    assert len(f3.vertices) == 6 and len(f3.edges) == 9 and f3.dim == 3
    assert f3.validate() == []
    with pytest.raises(ValueError):
        gkm.generate("grassmannian", n=2)


def test_flag_tautological_restrictions():
    T2 = TorusContext(2, build(4, 6))
    g2 = gkm.flag_graph(2)
    x1 = gkm.flag_tautological(T2, g2, 1)
    assert x1.restrict("12") == T2.var(0)
    assert x1.restrict("21") == T2.var(1)
    for n in (2, 3):
        T = TorusContext(n, build(3, 5))
        g = gkm.flag_graph(n)
        for k in range(1, n + 1):
            assert gkm.is_class(T, g, gkm.flag_tautological(T, g, k))


def test_closure_under_sum_and_product():
    rng = random.Random(4)
    T = TorusContext(2, build(3, 6))
    g = gkm.pn_graph(2)
    h = gkm.pn_hyperplane(T, g)
    pf = gkm.pushforward_point(T, g, "0", T.one())
    one = gkm.constant_class(T, g, 1)
    pool = [h, pf, one, h + one]
    for _ in range(10):
        a, b = rng.choice(pool), rng.choice(pool)
        assert gkm.is_class(T, g, a + b)
        assert gkm.is_class(T, g, a * b)


def test_graph_json_round_trip():
    g = gkm.flag_graph(2)
    again = gkm.GKMGraph.from_json(g.to_json())
    assert again.vertices == g.vertices and again.edges == g.edges
    assert again.rank == g.rank and again.dim == g.dim


def _eval_at(series, point):
    """Rational value of a polynomial series with rational coefficients."""
    total = Fraction(0)
    for texp, c in series.coeffs.items():
        v = rational_part(c)
        for x, e in zip(point, texp):
            v *= Fraction(x) ** e
        total += v
    return total


def test_additive_p2_numeric_atiyah_bott():
    # independent oracle: the residue sum evaluated at honest rational points
    T = TorusContext(2, build(0, 8, "additive"))
    g = gkm.pn_graph(2)
    h = gkm.pn_hyperplane(T, g)
    hh = h * h
    for point in [(3, 5), (-2, 7), (Fraction(1, 3), Fraction(9, 4))]:
        total = Fraction(0)
        for v in g.vertices:
            num = _eval_at(hh.restrict(v), point)
            den = _eval_at(gkm.euler_class(T, g, v), point)
            total += num / den
        assert total == 1
    assert gkm.integrate(T, g, hh) == GradedCoeff.one()


def test_multiplicative_p1_numeric_residue():
    # rho(t) = -t/(1 - beta t) exactly, so 1/t + 1/rho(t) = beta pointwise
    beta = Fraction(2, 3)
    T = TorusContext(1, build(0, 10, ("multiplicative", beta)))
    g = gkm.p1_graph((1,))
    for tval in (Fraction(1, 5), Fraction(-3, 7)):
        e0 = Fraction(tval)
        einf = -tval / (1 - beta * tval)
        assert 1 / e0 + 1 / einf == beta
        rho_val = _eval_at(T.character_series((-1,)), (tval,))
        # the truncated series only approximates the closed form; compare
        # through the truncation by clearing the geometric tail
        series_terms = sum(
            (-tval) * (beta * tval) ** k for k in range(T.D)
        )
        assert rho_val == series_terms
    assert gkm.integrate(T, g, gkm.constant_class(T, g, 1)) == GradedCoeff.from_rational(beta)


def test_chern_sign_ideals_agree(T1, P1):
    # (c(chi)) = (c(-chi)): congruence tests are sign-insensitive
    T2 = TorusContext(2, build(4, 6))
    for chi in [(1, 0), (1, 1), (2, 3)]:
        neg = tuple(-x for x in chi)
        c = T2.character_series(chi)
        cneg = T2.character_series(neg)
        assert T2.chern_divides(c, neg, 1)
        assert T2.chern_divides(cneg, chi, 1)


def test_integrate_above_top_degree_vanishes():
    # pushing a degree-3 class off a surface lands in positive Lazard degree,
    # which is zero
    for spec in (None, "additive"):
        T = TorusContext(2, build(3, 10, spec))
        g = gkm.pn_graph(2)
        h = gkm.pn_hyperplane(T, g)
        assert gkm.integrate(T, g, h * h * h).is_zero()


def test_substitute_guarantee_is_min():
    T = TorusContext(2, build(3, 6))
    f = T.fgl.F
    low = T.var(0).truncated(3)
    assert f.substitute({"u": low, "v": T.var(1)}).guarantee == 3


def test_projective_space_fundamental_classes():
    # the logarithm coefficients are projective spaces: [P^n] = (n+1) m_n
    for n, deg in ((1, 6), (2, 8)):
        T = TorusContext(n, build(6, deg))
        g = gkm.pn_graph(n)
        got = gkm.integrate(T, g, gkm.constant_class(T, g, 1))
        assert got == GradedCoeff.generator(n).scale(n + 1)
        h = gkm.pn_hyperplane(T, g)
        hn = gkm.constant_class(T, g, 1)
        for _ in range(n):
            hn = hn * h
        assert gkm.integrate(T, g, hn) == GradedCoeff.one()  # degree of a point
    # the hyperplane of P^2 is a P^1
    T = TorusContext(2, build(6, 8))
    g = gkm.pn_graph(2)
    got = gkm.integrate(T, g, gkm.pn_hyperplane(T, g))
    assert got == GradedCoeff.generator(1).scale(2)
    # flag(2) is P^1
    T2 = TorusContext(2, build(6, 6))
    gf = gkm.flag_graph(2)
    assert gkm.integrate(
        T2, gf, gkm.constant_class(T2, gf, 1)
    ) == GradedCoeff.generator(1).scale(2)


def test_p3_fundamental_class():
    T = TorusContext(3, build(4, 14))
    g = gkm.pn_graph(3)
    got = gkm.integrate(T, g, gkm.constant_class(T, g, 1))
    assert got == GradedCoeff.generator(3).scale(4)


def test_flag3_multiplicative_rigidity():
    # closed-form oracle: the multiplicative residue sum is the constant beta^3,
    # matching the Chern numbers (48, 24, 6) of the flag threefold
    beta = Fraction(2, 5)
    g = gkm.flag_graph(3)

    def chern_val(chi, t):
        prod = Fraction(1)
        for x, tv in zip(chi, t):
            prod *= (1 - beta * tv) ** x
        return (1 - prod) / beta

    for point in [
        (Fraction(1, 3), Fraction(2, 7), Fraction(5, 11)),
        (Fraction(-1, 2), Fraction(3, 4), Fraction(1, 9)),
    ]:
        total = Fraction(0)
        for v in g.vertices:
            e = Fraction(1)
            for _, chi in g.incident(v):
                e *= chern_val(chi, point)
            total += 1 / e
        assert total == beta ** 3
    T = TorusContext(3, build(0, 20, ("multiplicative", beta)))
    got = gkm.integrate(T, g, gkm.constant_class(T, g, 1))
    assert got == GradedCoeff.from_rational(beta ** 3)


@pytest.mark.slow
def test_flag3_universal_fundamental_class():
    # independent oracle: solving the Chern numbers (c1^3, c1 c2, c3) =
    # (48, 24, 6) against [P^1]^3, [P^1][P^2], [P^3] gives
    # [Fl(3)] = -3/2 [P^1]^3 + 4 [P^1][P^2] - 3/2 [P^3]
    T = TorusContext(3, build(3, 20))
    g = gkm.flag_graph(3)
    got = gkm.integrate(T, g, gkm.constant_class(T, g, 1))
    want = (
        GradedCoeff.monomial((3,), -12)
        + GradedCoeff.monomial((1, 1), 24)
        + GradedCoeff.monomial((0, 0, 1), -6)
    )
    assert got == want


def test_flag_graph_above_its_limit_is_refused_before_any_permutation(monkeypatch):
    def boom(*args):
        raise AssertionError("permutations were listed")

    monkeypatch.setattr(gkm.itertools, "permutations", boom)
    with pytest.raises(TooLarge, match="above the limit"):
        gkm.flag_graph(gkm.MAX_FLAG_GRAPH_N + 1)
    with pytest.raises(AssertionError):
        gkm.flag_graph(gkm.MAX_FLAG_GRAPH_N)


def flag_graph_oracle(n):
    """The swap-and-compare construction: every transposition of two positions
    of each sorted permutation, kept when the transposed id sorts after the id."""
    perms = sorted(itertools.permutations(range(1, n + 1)))
    ident = {w: "".join(str(x) for x in w) for w in perms}
    edges = []
    for w in perms:
        for i in range(n):
            for j in range(i + 1, n):
                wp = list(w)
                wp[i], wp[j] = wp[j], wp[i]
                wp = tuple(wp)
                if ident[w] < ident[wp]:
                    chi = [0] * n
                    chi[w[i] - 1] += 1
                    chi[w[j] - 1] -= 1
                    edges.append((ident[w], ident[wp], tuple(chi)))
    return gkm.GKMGraph(n, n * (n - 1) // 2, [ident[w] for w in perms], edges)


@pytest.mark.parametrize("n", range(1, 7))
def test_flag_graph_matches_swap_oracle(n):
    got, want = gkm.flag_graph(n), flag_graph_oracle(n)
    assert (got.rank, got.dim, got.vertices) == (want.rank, want.dim, want.vertices)
    assert got.edges == want.edges  # order included


@pytest.mark.parametrize("n", range(1, 7))
def test_flag_cosets_are_the_graph_vertices(n):
    cosets = gkm.flag_cosets(n)
    assert [v for v, _ in cosets] == gkm.flag_graph(n).vertices
    assert [w for _, w in cosets] == sorted(itertools.permutations(range(1, n + 1)))
    assert all(v == "".join(map(str, w)) for v, w in cosets)


def test_pn_hyperplane_restricts_to_the_vertex_character():
    T = TorusContext(3, build(2, 4))
    g = gkm.pn_graph(3)
    h = gkm.pn_hyperplane(T, g)
    chars = {"0": (0, 0, 0), "1": (1, 0, 0), "2": (0, 1, 0), "3": (0, 0, 1)}
    assert h.values == {v: T.character_series(chi) for v, chi in chars.items()}
    assert g.edges[:3] == [("0", w, tuple(-x for x in chars[w])) for w in "123"]


# -- the compiled edge tests against the per-edge loop ----------------------------


def is_class_oracle(ctx, g, alpha):
    """The per-edge loop: c(chi) divides the formed difference alpha_v - alpha_w."""
    if alpha.guarantee < 1:
        raise TruncationInsufficient("guarantee below 1 cannot see any congruence")
    for v, w, chi in g.edges:
        a, b = alpha.values[v], alpha.values[w]
        if a == b:
            continue
        diff = a - b
        if diff.is_zero():
            continue
        if not ctx.chern_divides(diff, chi, 1):
            return False
    return True


def class_outcome(test, ctx, g, alpha):
    try:
        return test(ctx, g, alpha)
    except Exception as exc:  # noqa: BLE001 - the error type is the outcome
        return type(exc)


ORACLE_CHARS = [chi for chars in _P1_CHARS.values() for chi in chars] + [
    (2, 0), (2, -2), (-3,), (3, 0, 0), (0, -2, 2),
]
ORACLE_GRAPHS = [("p1", chi) for chi in ORACLE_CHARS] + [
    ("pn", 2), ("pn", 3), ("flag", 2), ("flag", 3),
]
ORACLE_LAWS = [None, "additive", ("multiplicative", Fraction(2, 5)),
               ("custom", {1: Fraction(1, 2), 2: Fraction(-1, 3)})]
ORACLE_D = 4


@functools.lru_cache(maxsize=None)
def oracle_graph(kind, arg):
    return gkm.p1_graph(arg) if kind == "p1" else gkm.generate(kind, n=arg)


@functools.lru_cache(maxsize=None)
def oracle_context(rank, law_index=0):
    return TorusContext(rank, build(2, ORACLE_D, ORACLE_LAWS[law_index]))


@st.composite
def small_series(draw, T, maxdeg=3):
    """Up to three terms of t-degree <= maxdeg, rational or times m1 or m2."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        t = [0] * T.rank
        for _ in range(draw(st.integers(0, maxdeg))):
            t[draw(st.integers(0, T.rank - 1))] += 1
        c = GradedCoeff.from_rational(
            Fraction(draw(st.integers(-4, 4).filter(bool)), draw(st.integers(1, 3)))
        )
        if T.fgl.specialization is None and draw(st.booleans()):
            c = c * GradedCoeff.generator(draw(st.integers(1, 2)))
        terms[tuple(t)] = c
    return TruncSeries(T.vars, terms, T.D)


@st.composite
def genuine_classes(draw, T, g, kind):
    """A class of the graph: constants, point classes, the graph's
    tautological classes, and sums and products of them."""
    choice = draw(st.sampled_from(["constant", "point", "tautological"]))
    if choice == "constant":
        value = draw(small_series(T, 0))
        alpha = gkm.PiecewiseClass({v: value for v in g.vertices})
    elif choice == "point":
        v = draw(st.sampled_from(g.vertices))
        alpha = gkm.pushforward_point(T, g, v, draw(small_series(T, 1)))
    elif kind == "p1":
        alpha = gkm.pushforward_point(T, g, draw(st.sampled_from(g.vertices)), T.one())
    else:
        named = gkm.distinguished_classes(T, g, kind)
        alpha = named[draw(st.sampled_from(sorted(named)))]
    if draw(st.booleans()):
        other = gkm.pushforward_point(T, g, draw(st.sampled_from(g.vertices)), T.one())
        alpha = alpha * other if draw(st.booleans()) else alpha + other
    return alpha


@st.composite
def oracle_cases(draw):
    """(T, g, alpha): a genuine class, maybe over mixed denominators, then
    left as it is, perturbed at one vertex, or perturbed at one vertex above
    the guarantee of all the others; in the first two cases the vertex
    values may be truncated to different guarantees."""
    kind, arg = draw(st.sampled_from(ORACLE_GRAPHS))
    g = oracle_graph(kind, arg)
    T = oracle_context(g.rank, draw(st.integers(0, len(ORACLE_LAWS) - 1)))
    alpha = draw(genuine_classes(T, g, kind))
    if draw(st.booleans()):
        # a point class over another denominator keeps a class
        v = draw(st.sampled_from(g.vertices))
        q = Fraction(draw(st.integers(-3, 3).filter(bool)), draw(st.integers(2, 7)))
        alpha = alpha + gkm.pushforward_point(T, g, v, T.constant(q))
    values = dict(alpha.values)
    v = draw(st.sampled_from(g.vertices))
    change = draw(st.sampled_from(["none", "perturbed", "hidden"]))
    if change == "hidden":
        # invisible on every edge at v: a class exactly when alpha is one
        low = draw(st.integers(1, ORACLE_D - 1))
        k = draw(st.integers(low + 1, ORACLE_D))
        values[v] = values[v] + T.var(draw(st.integers(0, T.rank - 1))) ** k
        for w in g.vertices:
            if w != v:
                values[w] = values[w].truncated(low)
        return T, g, gkm.PiecewiseClass(values)
    if change == "perturbed":
        values[v] = values[v] + draw(small_series(T, ORACLE_D))
    if draw(st.booleans()):
        for w in g.vertices:
            values[w] = values[w].truncated(draw(st.integers(1, ORACLE_D)))
    return T, g, gkm.PiecewiseClass(values)


@settings(max_examples=300, deadline=None)
@given(oracle_cases())
def test_compiled_is_class_matches_the_per_edge_loop(case):
    T, g, alpha = case
    got = class_outcome(gkm.is_class, T, g, alpha)
    assert got == class_outcome(is_class_oracle, T, g, alpha)
    assert got in (True, False)


def _pair(chi, x, y):
    g = gkm.GKMGraph(len(chi), 1, ["a", "b"], [("a", "b", chi)])
    return g, gkm.PiecewiseClass({"a": x, "b": y})


EDGE_CASES = {
    # axis t1: agree off t1 (x - y = t1 - t1*t2) / differ at t2 only
    "axis-class": ((1, 0), {(0, 1): 1, (1, 0): 1}, {(0, 1): 1, (1, 1): 1}, True),
    "axis-non-class": ((1, 0), {(0, 1): 1, (1, 0): 1}, {(1, 0): 1}, False),
    # difference e1 - e2: t1 - t2 vanishes at t1 = t2, t1 + t2 does not
    "difference-class": ((1, -1), {(1, 0): 1}, {(0, 1): 1}, True),
    "difference-non-class": ((1, -1), {(1, 0): 1}, {(0, 1): -1}, False),
    # mixed denominators: x - y = -t1/3 is a multiple of t1, and 1/2 - (1 + t1) is not
    "axis-denominators-class": ((2, 0), {(0, 0): Fraction(1, 2)},
                                {(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 3)}, True),
    "axis-denominators-non-class": ((2, 0), {(0, 0): Fraction(1, 2)},
                                    {(0, 0): 1, (1, 0): 1}, False),
    "difference-denominators-class": ((2, -2), {(1, 0): Fraction(1, 2), (0, 0): 1},
                                      {(0, 1): Fraction(1, 2), (0, 0): 1}, True),
    "difference-denominators-non-class": ((2, -2), {(1, 0): Fraction(1, 2)},
                                          {(0, 1): 1}, False),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_tests_pinned(name):
    chi, x, y, want = EDGE_CASES[name]
    T = oracle_context(2)

    def value(terms):
        return TruncSeries(T.vars, {t: GradedCoeff.from_rational(q) for t, q in terms.items()}, 4)

    g, alpha = _pair(chi, value(x), value(y))
    assert gkm.is_class(T, g, alpha) is want
    assert is_class_oracle(T, g, alpha) is want


@pytest.mark.parametrize("chi", [(1, 0), (1, -1), (1, 1)], ids=str)
def test_edge_tests_ignore_terms_above_the_lower_guarantee(chi):
    # a term free of t1 and off the diagonal, above the other value's guarantee
    T = oracle_context(2)
    low = T.one().truncated(2)
    high = T.one() + T.var(1) ** 3
    g, alpha = _pair(chi, high, low)
    assert gkm.is_class(T, g, alpha) and is_class_oracle(T, g, alpha)
    g, alpha = _pair(chi, high, T.one())
    assert not gkm.is_class(T, g, alpha) and not is_class_oracle(T, g, alpha)


@pytest.mark.parametrize("chi", [(1, 0), (1, -1), (2, 3)], ids=str)
def test_is_class_errors(chi):
    T = oracle_context(2)
    for test in (gkm.is_class, is_class_oracle):
        # a guarantee below 1 is refused, whatever the values
        g, alpha = _pair(chi, T.one().truncated(0), T.one().truncated(0))
        with pytest.raises(TruncationInsufficient):
            test(T, g, alpha)
        # values on other variables
        g, alpha = _pair(chi, T.one(), T.var(0))
        alpha.values["b"] = TruncSeries.variable(("s1", "s2"), "s1", T.D)
        with pytest.raises(VariableMismatch):
            test(T, g, alpha)
    zero = gkm.GKMGraph(2, 1, ["a", "b"], [("a", "b", (0, 0))])
    for test in (gkm.is_class, is_class_oracle):
        # equal values pass before the character is read; differing ones meet it
        assert test(T, zero, gkm.PiecewiseClass({"a": T.var(0), "b": T.var(0)}))
        with pytest.raises(ZeroCharacter):
            test(T, zero, gkm.PiecewiseClass({"a": T.var(0), "b": T.one()}))


def test_edge_tests_are_built_once_per_graph(monkeypatch):
    built = []
    real = gkm._edge_tests

    def spy(g):
        built.append(g)
        return real(g)

    monkeypatch.setattr(gkm, "_edge_tests", spy)
    T = oracle_context(3)
    g = gkm.flag_graph(3)
    x1 = gkm.flag_tautological(T, g, 1)
    assert gkm.is_class(T, g, x1)
    bump = gkm.PiecewiseClass({v: T.zero() for v in g.vertices[1:]} | {g.vertices[0]: T.one()})
    assert not gkm.is_class(T, g, x1 + bump)
    assert built == [g]
    other = gkm.flag_graph(3)
    assert gkm.is_class(T, other, x1)
    assert built == [g, other]


def test_edge_tests_share_one_test_per_character():
    g = gkm.flag_graph(3)
    tests = {chi: test for (v, w, test), (_, _, chi) in zip(g.edge_tests, g.edges)}
    assert len({id(t) for t in tests.values()}) == len({chi for _, _, chi in g.edges})
