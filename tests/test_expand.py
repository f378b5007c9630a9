"""Expansion in a basis: the t-degree lifting of ``gkm.basis_expand`` against the
slot solve it replaced, which makes one unknown per (basis element,
t-monomial, m-monomial) and solves one linear system."""

import itertools
import operator
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from torcob import flag, gkm
from torcob.accept import _P1_CHARS, _m_monomials
from torcob.coeff import GradedCoeff
from torcob.errors import Ambiguous, GraphInvalid, NoSolution, TooLarge
from torcob.fgl import build
from torcob.kernels import above_generator, mul_acc
from torcob.linalg import INCONSISTENT, UNDERDETERMINED, rank, solve
from torcob.series import TruncSeries, from_table
from torcob.torus import TorusContext

from test_coeff import degree_component
from test_kernels import madd

LAWS = {"universal": None, "additive": "additive", "multiplicative 2/5": ("multiplicative", Fraction(2, 5))}


# -- the slot solve ------------------------------------------------------------------


def slot_expand_oracle(ctx, g, basis, alpha):
    """Coordinates of alpha in the basis by one linear system in every coefficient.

    Under the universal law each homogeneous component of alpha is solved on
    its own, with one unknown per (basis element k, t-monomial s, m-monomial
    of weight deg s + deg b_k - j with generators up to Dc); a specialized
    law has one unknown per (k, s).  Every basis element is expanded, with
    no shortcut for point classes.
    """
    if len(basis) != len(g.vertices):
        raise ValueError("basis size must equal the number of fixed points")
    guar = min([alpha.guarantee] + [b.guarantee for b in basis])
    lows = []
    for b in basis:
        degs = [s.lowest_degree() for s in b.values.values() if not s.is_zero()]
        if not degs:
            raise Ambiguous("zero basis element")
        lows.append(min(degs))
    if ctx.fgl.is_specialized:
        jobs = [(None, alpha, [None] * len(basis))]
    else:
        comps = _homogeneous_components(alpha)
        bdegs = []
        for b in basis:
            degs = {s.homogeneous_degree() for s in b.values.values() if not s.is_zero()}
            if len(degs) != 1 or None in degs:
                raise ValueError("basis element is not homogeneous")
            bdegs.append(degs.pop())
        if not comps:
            comps = {0: gkm.constant_class(ctx, g, 0)}
        jobs = [(j, comp, bdegs) for j, comp in comps.items()]
    totals = [ctx.zero().truncated(min(guar, ctx.D)) for _ in basis]
    for j, comp, bdegs in jobs:
        sols = _slot_component(ctx, g, basis, comp, guar, lows, j, bdegs)
        totals = [t + s for t, s in zip(totals, sols)]
    return totals


def _homogeneous_components(alpha):
    comps = {v: _series_components(s) for v, s in alpha.values.items()}
    degs = set()
    for c in comps.values():
        degs.update(c)
    return {
        j: gkm.PiecewiseClass({
            v: comps[v].get(j, TruncSeries.zero(s.vars, s.guarantee))
            for v, s in alpha.values.items()
        })
        for j in sorted(degs)
    }


def _series_components(s):
    """{cohomological degree j: the part of the series s in degree j}."""
    out = {}
    for t, c in s.coeffs.items():
        d = sum(t)
        for j in c.degrees():
            tgt = out.setdefault(j + d, {})
            tgt[t] = tgt.get(t, GradedCoeff.zero()) + degree_component(c, j)
    return {j: TruncSeries(s.vars, cs, s.guarantee) for j, cs in sorted(out.items())}


def _t_monomials_through(rank, max_deg):
    return [s for d in range(max_deg + 1) for s in gkm._t_monomials(rank, d)]


def _slot_component(ctx, g, basis, alpha, guar, lows, j, bdegs):
    dc = ctx.fgl.Dc
    slots = []
    for k in range(len(basis)):
        cap = guar - lows[k]
        if cap < 0:
            continue
        for tmon in _t_monomials_through(ctx.rank, cap):
            if ctx.fgl.is_specialized:
                slots.append((k, tmon, ()))
                continue
            w = sum(tmon) + bdegs[k] - j
            if w >= 0:
                slots.extend((k, tmon, mmon) for mmon in _m_monomials(w, dc))
    eq_index = {}
    columns = []
    for k, tmon, mmon in slots:
        col = {}
        for v, s in basis[k].values.items():
            for texp, c in s.coeffs.items():
                if sum(tmon) + sum(texp) > guar:
                    continue
                tkey = tuple(x + y for x, y in zip(tmon, texp))
                for mexp, q in c.terms.items():
                    row = eq_index.setdefault((v, tkey, madd(mmon, mexp)), len(eq_index))
                    col[row] = col.get(row, 0) + q
        columns.append(col)
    rhs_map = {}
    for v in g.vertices:
        for texp, c in alpha.values[v].coeffs.items():
            if sum(texp) > guar:
                continue
            for mexp, q in c.terms.items():
                rhs_map[eq_index.setdefault((v, texp, mexp), len(eq_index))] = q
    rows = [{} for _ in eq_index]
    for ci, col in enumerate(columns):
        for ri, q in col.items():
            rows[ri][ci] = q
    status, x = solve(rows, [rhs_map.get(i, 0) for i in range(len(rows))], len(slots))
    if status == INCONSISTENT:
        raise NoSolution("class is not in the span of the basis")
    if status == UNDERDETERMINED:
        raise Ambiguous("basis is not free through the truncation")
    out = []
    for k in range(len(basis)):
        coeffs = {}
        for ci, (kk, tmon, mmon) in enumerate(slots):
            if kk == k and x[ci]:
                gc = coeffs.setdefault(tmon, {})
                gc[mmon] = gc.get(mmon, 0) + x[ci]
        terms = {t: GradedCoeff({m: q for m, q in mm.items() if q}) for t, mm in coeffs.items()}
        out.append(TruncSeries(ctx.vars, terms, min(guar, ctx.D)))
    return out


# -- the lifting with every t-degree solved ---------------------------------------------


def lifting_oracle(ctx, g, basis, alpha):
    """``gkm.basis_expand`` with every t-degree of the lifting solved.

    This is the lifting as it ran before the lead certificate: each degree
    builds and solves A_d, also where the residual is zero, and the rank
    of A_d decides Ambiguous against NoSolution.  A basis of point classes
    takes ``basis_expand``'s own point route, which the certificate does not
    touch.  ``solve`` is looked up through ``gkm``, so a spy sees its calls.
    """
    if len(basis) != len(g.vertices):
        raise ValueError("basis size must equal the number of fixed points")
    supports = [[v for v, s in b.values.items() if not s.is_zero()] for b in basis]
    if all(len(s) == 1 for s in supports) and len({s[0] for s in supports}) == len(basis):
        return gkm.basis_expand(ctx, g, basis, alpha)
    guar = min([alpha.guarantee] + [b.guarantee for b in basis])
    top = 0 if ctx.fgl.is_specialized else ctx.fgl.Dc
    lows = []
    for b in basis:
        degs = [s.lowest_degree() for s in b.values.values() if not s.is_zero()]
        if not degs:
            raise Ambiguous("zero basis element")
        lows.append(min(degs))
    if not ctx.fgl.is_specialized:
        for b in basis:
            degs = {s.homogeneous_degree() for s in b.values.values() if not s.is_zero()}
            if len(degs) != 1 or None in degs:
                raise ValueError("basis element is not homogeneous")
    leads, tails = gkm._split_lowest(basis, lows)
    tmons = [gkm._t_monomials(ctx.rank, e) for e in range(guar + 1)]
    residual = [{} for _ in range(guar + 1)]
    for v, s in alpha.values.items():
        for t, c in s.num.items():
            if sum(t) <= guar:
                residual[sum(t)][(v, t)] = {m: Fraction(x, s.den) for m, x in c.items()}
    coords = [{} for _ in basis]
    for d in range(guar + 1):
        cols = [(k, s) for k, low in enumerate(lows) if low <= d for s in tmons[d - low]]
        if len(cols) > gkm.MAX_EXPAND_COLUMNS:
            raise TooLarge(
                f"expansion needs {len(cols)} unknowns at t-degree {d}, above the limit {gkm.MAX_EXPAND_COLUMNS}"
            )
        rows, rhs = gkm._lifting_system(cols, leads, residual[d])
        if not cols and not rows:
            continue
        status, y = gkm.solve(rows, rhs, len(cols))
        if status == UNDERDETERMINED or (status == INCONSISTENT and rank(rows) < len(cols)):
            raise Ambiguous("basis is not free through the truncation")
        if status == INCONSISTENT or above_generator(y, top):
            raise NoSolution("class is not in the span of the basis")
        for (k, s), part in zip(cols, y):
            if not part:
                continue
            coords[k][s] = part
            neg = [(m, -q) for m, q in part.items()]
            for v, t, dt, c in tails[k]:
                if d + dt <= guar:
                    key = (v, tuple(map(operator.add, s, t)))
                    mul_acc(residual[d + dt].setdefault(key, {}), neg, c)
    return [from_table(ctx.vars, c, min(guar, ctx.D) - low) for c, low in zip(coords, lows)]


def outcome(expand, ctx, g, basis, alpha):
    """The coordinates, or the type of the error raised."""
    try:
        return expand(ctx, g, basis, alpha)
    except (Ambiguous, NoSolution, ValueError) as exc:
        return type(exc)


def _lows(basis):
    """The lowest t-degree of each basis element."""
    return [min(s.lowest_degree() for s in b.values.values() if not s.is_zero()) for b in basis]


# -- spaces and bases ------------------------------------------------------------------


def _context(rank, deg, law):
    return TorusContext(rank, build(3, deg, LAWS[law]))


def _law_series(ctx, terms):
    """A series from {t-exps: GradedCoeff}, with the generators set to the law's values."""
    s = TruncSeries(ctx.vars, terms, ctx.D)
    return s.specialize(ctx.fgl.spec_value) if ctx.fgl.is_specialized else s


def _powers(alpha, ctx, g, n):
    out = [gkm.constant_class(ctx, g, 1)]
    for _ in range(n):
        out.append(out[-1] * alpha)
    return out


def _chern_basis_p2(ctx, g):
    """1, the divisor through vertices 1 and 2, and the point class at 2."""
    z = ctx.zero()
    c = ctx.character_series
    return [
        gkm.constant_class(ctx, g, 1),
        gkm.PiecewiseClass({"0": z, "1": c((1, 0)), "2": c((0, 1))}),
        gkm.PiecewiseClass({"0": z, "1": z, "2": c((0, 1)) * c((-1, 1))}),
    ]


def _spaces():
    """(name, graph, rank, truncation, basis maker) for the deterministic comparisons."""
    out = []
    for chars in _P1_CHARS.values():
        for chi in chars:
            out.append((f"p1{chi}", gkm.p1_graph(chi), len(chi), 4,
                        lambda T, g: [gkm.constant_class(T, g, 1),
                                      gkm.pushforward_point(T, g, "0", T.one())]))
    p2 = gkm.pn_graph(2)
    out.append(("p2-powers", p2, 2, 6, lambda T, g: _powers(gkm.pn_hyperplane(T, g), T, g, 2)))
    out.append(("p2-chern", p2, 2, 6, _chern_basis_p2))
    p3 = gkm.pn_graph(3)
    out.append(("p3-powers", p3, 3, 5, lambda T, g: _powers(gkm.pn_hyperplane(T, g), T, g, 3)))
    out.append(("flag3-artin", gkm.flag_graph(3), 3, 4,
                lambda T, g: [flag.flag_restriction(T, 3, flag.x_poly(3, {a: GradedCoeff.one()}))
                              for a in flag.artin_exponents(3)]))
    return out


SPACES = _spaces()


def _classes(ctx, g, basis):
    """Classes in the span, outside it, and one that needs a generator above Dc."""
    t = [ctx.var(i) for i in range(ctx.rank)]
    m1 = GradedCoeff.generator(1)
    coords = []
    for k in range(len(basis)):
        c = ctx.constant(k + 1) + t[k % ctx.rank].scale(Fraction(k - 1, 2))
        coords.append(c + (t[0] * t[-1]).mul_coeff(m1) if k == 1 else c)
    inside = basis[0].mul_series(_law_series(ctx, coords[0].coeffs))
    for b, c in zip(basis[1:], coords[1:]):
        inside = inside + b.mul_series(_law_series(ctx, c.coeffs))
    first = g.vertices[0]
    outside = gkm.PiecewiseClass({v: ctx.one() if v == first else ctx.zero() for v in g.vertices})
    high = gkm.constant_class(ctx, g, GradedCoeff.generator(9))  # Dc is 3
    return {"inside": inside, "outside": outside, "m9": high, "zero": gkm.constant_class(ctx, g, 0)}


@pytest.mark.parametrize("law", list(LAWS))
@pytest.mark.parametrize("space", SPACES, ids=[s[0] for s in SPACES])
def test_lifting_matches_slot_solve(space, law):
    _, g, rank, deg, make = space
    T = _context(rank, deg, law)
    basis = make(T, g)
    statuses = {"inside": list, "outside": NoSolution, "m9": NoSolution, "zero": list}
    for name, alpha in _classes(T, g, basis).items():
        want = outcome(slot_expand_oracle, T, g, basis, alpha)
        got = outcome(gkm.basis_expand, T, g, basis, alpha)
        assert got == want, name
        assert (want if isinstance(want, type) else type(want)) == statuses[name], name
        if not isinstance(want, type):
            # the lifting trusts c_k through deg - low_k; the slot solve claims deg for all
            assert [c.guarantee for c in want] == [deg] * len(basis)
            assert [c.guarantee for c in got] == [deg - low for low in _lows(basis)]


# -- random free and degenerate bases --------------------------------------------------


def _homogeneous(ctx, degree, draw, max_t):
    """A random element of S(T) of cohomological degree ``degree``, t-degree <= max_t.

    Its terms have t-degree at least ``degree``; under a specialized law the
    generators take the law's values.
    """
    terms = {}
    for e in range(max(degree, 0), max_t + 1):
        mons = _m_monomials(e - degree, ctx.fgl.Dc)
        if not mons or not draw(st.booleans()):
            continue
        t = [0] * ctx.rank
        for _ in range(e):
            t[draw(st.integers(0, ctx.rank - 1))] += 1
        q = draw(st.integers(-3, 3))
        if q:
            terms[tuple(t)] = GradedCoeff.monomial(draw(st.sampled_from(mons)), q)
    return _law_series(ctx, terms)


HYP_SPACES = [
    ("p1", gkm.p1_graph((1,)), 1, 4),
    ("p1-mixed", gkm.p1_graph((2, -1)), 2, 4),
    ("p2", gkm.pn_graph(2), 2, 5),
    ("flag2", gkm.flag_graph(2), 2, 4),
]
HYP_CONTEXTS = {(name, law): _context(rank, deg, law)
                for name, _, rank, deg in HYP_SPACES for law in LAWS}


@st.composite
def expansion_problems(draw, degenerate=False):
    """(ctx, graph, basis, alpha, in_span) with a unit-triangular change of a free basis.

    The free basis is the powers of a degree-one class (the hyperplane, or
    x1 on flag(2), or the point class at 0 on P^1) or the point classes.  A
    degenerate basis then replaces one element by a multiple of another.
    """
    name, g, rank, deg = draw(st.sampled_from(HYP_SPACES))
    law = draw(st.sampled_from(list(LAWS)))
    T = HYP_CONTEXTS[(name, law)]
    n = len(g.vertices)
    if draw(st.booleans()):
        base = [gkm.pushforward_point(T, g, v, T.one()) for v in g.vertices]
    elif name == "p2":
        base = _powers(gkm.pn_hyperplane(T, g), T, g, 2)
    elif name == "flag2":
        base = _powers(gkm.flag_tautological(T, g, 1), T, g, 1)
    else:
        base = _powers(gkm.pushforward_point(T, g, "0", T.one()), T, g, 1)
    lows = _lows(base)
    order = draw(st.permutations(range(n)))
    basis = list(base)
    for a, b in itertools.combinations(order, 2):
        # b += u * base[a], with u of t-degree >= low_b - low_a: the lowest
        # parts change unit-triangularly, so every A_d stays injective
        u = _homogeneous(T, lows[b] - lows[a], draw, 2)
        basis[b] = basis[b] + base[a].mul_series(u)
    if degenerate:
        i, j = draw(st.permutations(range(n)))[:2]
        u = _homogeneous(T, lows[j] - lows[i], draw, 2)
        basis[j] = basis[i].mul_series(T.one() if u.is_zero() else u)
    in_span = draw(st.booleans())
    if in_span:
        alpha = gkm.constant_class(T, g, 0)
        for b in basis:
            c = _homogeneous(T, draw(st.integers(-1, 1)), draw, deg - 1)
            alpha = alpha + b.mul_series(c + T.constant(draw(st.integers(-2, 2))))
    else:
        alpha = gkm.PiecewiseClass({
            v: _homogeneous(T, draw(st.integers(-1, 1)), draw, deg) for v in g.vertices
        })
    return T, g, basis, alpha, in_span


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(expansion_problems())
def test_lifting_matches_slot_solve_on_free_bases(problem):
    T, g, basis, alpha, in_span = problem
    got = outcome(gkm.basis_expand, T, g, basis, alpha)
    assert got == outcome(slot_expand_oracle, T, g, basis, alpha)
    if in_span:
        assert not isinstance(got, type)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(expansion_problems(degenerate=True))
def test_degenerate_bases_fail_as_the_contract_says(problem):
    T, g, basis, alpha, in_span = problem
    got = outcome(gkm.basis_expand, T, g, basis, alpha)
    want = outcome(slot_expand_oracle, T, g, basis, alpha)
    assert got in (Ambiguous, NoSolution) and want in (Ambiguous, NoSolution)
    if in_span:
        # consistent at every degree, so the first singular degree decides
        assert got == want == Ambiguous


# -- the statuses, one by one -------------------------------------------------------------


@pytest.fixture(scope="module")
def T1():
    return TorusContext(1, build(3, 4))


@pytest.fixture(scope="module")
def P1():
    return gkm.p1_graph((1,))


def test_singular_degree_zero_is_ambiguous_even_when_inconsistent(T1, P1):
    # A_0 = [[1, 2], [1, 2]] is singular and (1, 0) is outside its image
    basis = [gkm.constant_class(T1, P1, 1), gkm.constant_class(T1, P1, 2)]
    alpha = gkm.PiecewiseClass({"0": T1.one(), "inf": T1.zero()})
    assert outcome(gkm.basis_expand, T1, P1, basis, alpha) == Ambiguous
    assert outcome(slot_expand_oracle, T1, P1, basis, alpha) == NoSolution


def test_leaving_the_image_below_the_first_singular_degree_is_no_solution(T1, P1):
    # basis 1, t1: A_0 = [1, 1] is injective, A_1 has two equal columns
    t = T1.var(0)
    basis = [gkm.constant_class(T1, P1, 1), gkm.PiecewiseClass({"0": t, "inf": t})]
    outside = gkm.PiecewiseClass({"0": T1.one(), "inf": T1.zero()})
    assert outcome(gkm.basis_expand, T1, P1, basis, outside) == NoSolution
    assert outcome(gkm.basis_expand, T1, P1, basis, basis[1]) == Ambiguous


def test_lowest_part_with_a_generator_is_ambiguous(T1, P1):
    # The one deliberate departure from the slot solve: (m1*t1^2, 0) has no
    # rational lowest part, so it is no basis element (at m = 0 it vanishes).
    t2 = T1.var(0) ** 2
    m1 = GradedCoeff.generator(1)
    element = gkm.PiecewiseClass({"0": t2.mul_coeff(m1), "inf": T1.zero()})
    basis = [gkm.constant_class(T1, P1, 1), element]
    alpha = gkm.PiecewiseClass({"0": T1.one() + t2.mul_coeff(m1), "inf": T1.one()})
    want = [T1.one().truncated(4), T1.one().truncated(4)]
    assert slot_expand_oracle(T1, P1, basis, alpha) == want
    with pytest.raises(Ambiguous):
        gkm.basis_expand(T1, P1, basis, alpha)


def test_generator_above_dc_is_no_solution_unless_the_basis_carries_it():
    T = TorusContext(1, build(3, 12))
    g = gkm.p1_graph((1,))
    t = T.var(0)
    m9 = GradedCoeff.generator(9)
    one = gkm.constant_class(T, g, 1)
    point = gkm.pushforward_point(T, g, "0", T.one())
    with pytest.raises(NoSolution):
        gkm.basis_expand(T, g, [one, point], gkm.constant_class(T, g, m9))
    # a homogeneous degree-one element whose tail carries m9: alpha is that
    # element, so the coordinates need no generator at all
    carrier = gkm.PiecewiseClass({"0": t + (t ** 10).mul_coeff(m9), "inf": T.zero()})
    basis = [one, carrier]
    for expand in (gkm.basis_expand, slot_expand_oracle):
        coords = expand(T, g, basis, carrier)
        assert coords[0].is_zero() and coords[1] == T.one()


def test_non_homogeneous_universal_element_is_a_value_error(T1, P1):
    t = T1.var(0)
    for values in ({"0": t, "inf": t * t}, {"0": t + t * t, "inf": T1.zero()}):
        basis = [gkm.constant_class(T1, P1, 1), gkm.PiecewiseClass(values)]
        with pytest.raises(ValueError):
            gkm.basis_expand(T1, P1, basis, basis[1])
    # the same element is fine under a specialized law
    T = TorusContext(1, build(3, 4, "additive"))
    t = T.var(0)
    basis = [gkm.constant_class(T, P1, 1), gkm.PiecewiseClass({"0": t + t * t, "inf": T.zero()})]
    coords = gkm.basis_expand(T, P1, basis, basis[1])
    assert coords[0].is_zero() and coords[1] == T.one()


def _spy_systems(monkeypatch):
    """The column count of every lifting system built, through ``_lifting_system``."""
    widths = []
    real = gkm._lifting_system
    monkeypatch.setattr(gkm, "_lifting_system", lambda cols, *rest: widths.append(len(cols)) or real(cols, *rest))
    return widths


def test_expansion_size_guard_fires_before_any_matrix(monkeypatch):
    # rank 30: C(33, 4) + C(32, 3) = 45880 unknowns at t-degree 4
    chi = (1,) + (0,) * 29
    T = TorusContext(30, build(1, 4))
    g = gkm.p1_graph(chi)
    basis = [gkm.constant_class(T, g, 1), gkm.pushforward_point(T, g, "0", T.one())]
    widths = _spy_systems(monkeypatch)
    # the basis is certified: a zero residual is skipped, so degree 0 alone is solved
    assert [str(c) for c in gkm.basis_expand(T, g, basis, basis[0])] == ["1", "0"]
    assert widths == [1]
    # a residual at t-degree 4 alone needs that system, which is refused
    # unbuilt: no t-monomial list is built, of degree 4 or any other
    degrees = []
    real = gkm._t_monomials
    monkeypatch.setattr(gkm, "_t_monomials", lambda rank, deg: degrees.append(deg) or real(rank, deg))
    t4 = gkm.PiecewiseClass({v: T.var(0) ** 4 for v in g.vertices})
    with pytest.raises(TooLarge, match="45880 unknowns at t-degree 4, above the limit 20000"):
        gkm.basis_expand(T, g, basis, t4)
    assert widths == [1] and degrees == []
    # an uncertified basis solves every degree up to the first over the limit
    monkeypatch.setattr(gkm, "MAX_EXPAND_COLUMNS", 30)
    flat = [basis[0], gkm.PiecewiseClass({v: T.var(0) for v in g.vertices})]
    with pytest.raises(TooLarge, match="31 unknowns at t-degree 1, above the limit 30"):
        gkm.basis_expand(T, g, flat, basis[0])
    assert widths == [1, 1]


def test_expansion_size_guard_admits_its_limit(monkeypatch, T1, P1):
    basis = [gkm.constant_class(T1, P1, 1), gkm.pushforward_point(T1, P1, "0", T1.one())]
    monkeypatch.setattr(gkm, "MAX_EXPAND_COLUMNS", 2)  # rank 1: one unknown per element
    assert gkm.basis_expand(T1, P1, basis, basis[1])[1] == T1.one()
    monkeypatch.setattr(gkm, "MAX_EXPAND_COLUMNS", 1)
    with pytest.raises(TooLarge):
        gkm.basis_expand(T1, P1, basis, basis[1])


# -- the lead certificate ---------------------------------------------------------------


def full_outcome(expand, ctx, g, basis, alpha):
    """The coordinates and their guarantees, or the type and message of the error raised."""
    try:
        coords = expand(ctx, g, basis, alpha)
    except (Ambiguous, NoSolution, TooLarge, ValueError) as exc:
        return type(exc), str(exc)
    return coords, [c.guarantee for c in coords]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.booleans().flatmap(lambda degenerate: expansion_problems(degenerate=degenerate)))
def test_skipping_empty_degrees_matches_the_lifting_of_every_degree(problem):
    T, g, basis, alpha, _ = problem
    got = full_outcome(gkm.basis_expand, T, g, basis, alpha)
    assert got == full_outcome(lifting_oracle, T, g, basis, alpha)


def _spy_solve(monkeypatch):
    calls = []

    def spy(rows, rhs, ncols):
        calls.append((rows, rhs, ncols))
        return solve(rows, rhs, ncols)

    monkeypatch.setattr(gkm, "solve", spy)
    return calls


def test_only_degrees_with_a_residual_are_solved(monkeypatch):
    # universal P^4 forget of 1 + m1*h^2 in 1, h, ..., h^4 at the command line's
    # default truncation 2*dim + 2
    g = gkm.pn_graph(4)
    T = TorusContext(4, build(6, 10))
    basis = _powers(gkm.pn_hyperplane(T, g), T, g, 4)
    alpha = basis[0] + basis[2].mul_coeff(GradedCoeff.generator(1))
    calls = _spy_solve(monkeypatch)
    want = lifting_oracle(T, g, basis, alpha)
    every = list(calls)
    calls.clear()
    got = gkm.basis_expand(T, g, basis, alpha)
    assert got == want and [c.guarantee for c in got] == [c.guarantee for c in want]
    assert [str(T.augment(c)) for c in got] == ["1", "0", "m1", "0", "0"]
    # the same systems in the same order, less those with a zero right-hand side
    assert calls == [c for c in every if any(c[1])]
    assert (len(calls), len(every)) == (2, 11)


def test_p6_forget_solves_two_small_systems(monkeypatch):
    # A_14 of this basis has 37044 columns, above MAX_EXPAND_COLUMNS, but the
    # certificate skips it: only t-degrees 0 and 2 carry a residual
    g = gkm.pn_graph(6)
    T = TorusContext(6, build(6, 14))
    basis = _powers(gkm.pn_hyperplane(T, g), T, g, 6)
    alpha = basis[0] + basis[2].mul_coeff(GradedCoeff.generator(1))
    calls = _spy_solve(monkeypatch)
    got = [str(T.augment(c)) for c in gkm.basis_expand(T, g, basis, alpha)]
    assert got == ["1", "0", "m1", "0", "0", "0", "0"]
    assert [ncols for _, _, ncols in calls] == [1, 21 + 6 + 1]  # (n + 1)(n + 2)/2 at t-degree 2


def test_a_lead_determinant_zero_at_the_cocharacter_solves_every_degree(monkeypatch):
    # det [[1, t2], [1, 0]] = -t2 is nonzero, but zero at lambda = (1, 0)
    T = TorusContext(2, build(3, 4))
    g = gkm.p1_graph((1, 0))
    assert g.cocharacter == (1, 0)
    t1, t2 = T.var(0), T.var(1)
    basis = [gkm.constant_class(T, g, 1), gkm.PiecewiseClass({"0": t2, "inf": T.zero()})]
    assert not gkm._free_at_cocharacter(T, g, gkm._split_lowest(basis, [0, 1])[0])
    inside = basis[0].mul_series(T.one() + t1) + basis[1].mul_series(t1)
    outside = gkm.PiecewiseClass({"0": T.one(), "inf": T.zero()})
    calls = _spy_solve(monkeypatch)
    got = gkm.basis_expand(T, g, basis, inside)
    assert len(calls) == 5 and not all(any(rhs) for _, rhs, _ in calls)
    assert got == slot_expand_oracle(T, g, basis, inside)
    assert got == [T.one() + t1, t1]
    assert full_outcome(gkm.basis_expand, T, g, basis, inside) == full_outcome(
        lifting_oracle, T, g, basis, inside)
    for expand in (gkm.basis_expand, lifting_oracle, slot_expand_oracle):
        assert outcome(expand, T, g, basis, outside) == NoSolution


def test_zero_edge_character_keeps_the_lifting_and_reads_no_cocharacter():
    g = gkm.GKMGraph(1, 1, ["0", "inf"], [("0", "inf", (0,))])
    with pytest.raises(GraphInvalid):
        g.cocharacter
    T = TorusContext(1, build(3, 4))
    t = T.var(0)
    basis = [gkm.constant_class(T, g, 1), gkm.PiecewiseClass({"0": t, "inf": T.zero()})]
    for alpha in (basis[1], gkm.PiecewiseClass({"0": T.one(), "inf": T.zero()})):
        got = full_outcome(gkm.basis_expand, T, g, basis, alpha)
        assert got == full_outcome(lifting_oracle, T, g, basis, alpha)
    assert gkm.basis_expand(T, g, basis, basis[1]) == [T.zero(), T.one()]
