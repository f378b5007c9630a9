"""Series arithmetic: ring axioms, substitution, inversion, exact division."""

import math
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
from torcob import kernels
from torcob.kernels import convolve, pack
from torcob import series as series_module
from torcob.series import TruncSeries
from torcob.torus import TorusContext

from test_coeff import degree_component, rational_part

UV = ("t1", "t2")
D = 6


def var(name, guarantee=D):
    return TruncSeries.variable(UV, name, guarantee)


def const(q, guarantee=D):
    return TruncSeries.constant(UV, q, guarantee)


def m(i):
    return GradedCoeff.generator(i)


def homogeneous_components(s):
    """{cohomological degree j: the part of s in degree j}, a t-monomial of
    degree d with a coefficient of degree j - d lying in degree j."""
    out = {}
    for t, c in s.coeffs.items():
        d = sum(t)
        for j in c.degrees():
            comp = degree_component(c, j)
            tgt = out.setdefault(j + d, {})
            tgt[t] = tgt.get(t, GradedCoeff.zero()) + comp
    return {j: TruncSeries(s.vars, cs, s.guarantee) for j, cs in sorted(out.items())}


# -- the flat division ----------------------------------------------------------------


def _m_product(a, b):
    n = max(len(a), len(b))
    out = [x + y for x, y in zip(a + (0,) * (n - len(a)), b + (0,) * (n - len(b)))]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _m_quotient(a, b):
    """a / b for trimmed m-monomials, None when b does not divide a."""
    n = max(len(a), len(b))
    out = [x - y for x, y in zip(a + (0,) * (n - len(a)), b + (0,) * (n - len(b)))]
    if any(x < 0 for x in out):
        return None
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _flat_slices(f):
    """{t-degree: {(t-exps, m-exps): Fraction}}."""
    out = {}
    for t, c in f.coeffs.items():
        tgt = out.setdefault(sum(t), {})
        for mm, q in c.terms.items():
            tgt[(t, mm)] = q
    return out


def _flat_mul_sub(r, a, b):
    """r -= a*b on flat tables."""
    for (ta, ma), qa in a.items():
        for (tb, mb), qb in b.items():
            key = (tuple(x + y for x, y in zip(ta, tb)), _m_product(ma, mb))
            s = r.get(key, 0) - qa * qb
            if s:
                r[key] = s
            else:
                r.pop(key, None)


def _divide_flat(r, g):
    """Greedy single-divisor division of one flat slice by the flat slice g."""
    (gt, gm), cg = max(g.items())
    q = {}
    r = dict(r)
    while r:
        (rt, rm), c = max(r.items())
        st = tuple(y - x for x, y in zip(gt, rt))
        sm = _m_quotient(rm, gm)
        if sm is None or any(x < 0 for x in st):
            raise NotDivisible("leading term not divisible")
        q[(st, sm)] = c / cg
        _flat_mul_sub(r, {(st, sm): q[(st, sm)]}, g)
    return q


def flat_divide_oracle(f, g):
    """f / g on flat {(t-exps, m-exps): q} tables, without the product kernel.

    Slice k of the quotient divides slice e + k of f less the products of the
    earlier quotient slices, e the lowest t-degree of g, by g's lowest slice
    in the lex order on (t-exps, m-exps); same guarantee and errors.
    """
    if g.is_zero():
        raise NotInvertible("division by the zero series")
    e = g.lowest_degree()
    gq = min(f.guarantee, g.guarantee) - e
    if gq < 0:
        raise TruncationInsufficient("divisor degree exceeds the guarantee")
    if f.is_zero():
        return TruncSeries.zero(f.vars, gq)
    if f.lowest_degree() < e:
        raise NotDivisible("dividend has terms below the divisor's lowest degree")
    f_sl, g_sl = _flat_slices(f), _flat_slices(g)
    q_sl = {}
    for k in range(gq + 1):
        r = dict(f_sl.get(e + k, {}))
        for d, qd in q_sl.items():
            _flat_mul_sub(r, qd, g_sl.get(e + k - d, {}))
        q_sl[k] = _divide_flat(r, g_sl[e])
    coeffs = {}
    for sl in q_sl.values():
        for (t, mm), q in sl.items():
            coeffs.setdefault(t, {})[mm] = q
    return TruncSeries(f.vars, {t: GradedCoeff(c) for t, c in coeffs.items()}, gq)


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


GENERATOR_COEFFS = [GradedCoeff.one(), m(1), m(2), m(1) + m(2), m(1) * m(2) - m(1)]


@st.composite
def homogeneous_terms(draw, nvars, deg, coeffs):
    """{t-exps: GradedCoeff}: up to three terms of t-degree ``deg``."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        t = [0] * nvars
        for _ in range(deg):
            t[draw(st.integers(0, nvars - 1))] += 1
        q = Fraction(draw(st.integers(-3, 3).filter(bool)), draw(st.integers(1, 3)))
        terms[tuple(t)] = draw(st.sampled_from(coeffs)).scale(q)
    return terms


@st.composite
def division_cases(draw):
    """(f, g, q): g with a lowest part whose coefficients may carry m1, m2;
    f = q*g, q*g plus one more term, or unrelated to g."""
    nvars = draw(st.integers(1, 3))
    vars = ("t1", "t2", "t3")[:nvars]
    guarantee = draw(st.integers(1, 5))
    e = draw(st.integers(0, 2))
    g_terms = draw(homogeneous_terms(nvars, e, GENERATOR_COEFFS))
    for d in range(e + 1, e + 1 + draw(st.integers(0, 2))):
        g_terms.update(draw(homogeneous_terms(nvars, d, GENERATOR_COEFFS[:3])))
    g = TruncSeries(vars, g_terms, draw(st.integers(e, e + 4)))
    q_terms = {}
    for d in range(draw(st.integers(0, 3))):
        q_terms.update(draw(homogeneous_terms(nvars, d, GENERATOR_COEFFS[:3])))
    q = TruncSeries(vars, q_terms, guarantee)
    kind = draw(st.sampled_from(["multiple", "perturbed", "unrelated"]))
    if kind == "unrelated":
        return TruncSeries(vars, q_terms, guarantee), g, None
    f = q * g
    if kind == "perturbed":
        extra = draw(homogeneous_terms(nvars, draw(st.integers(e, e + 2)), GENERATOR_COEFFS))
        f = f + TruncSeries(vars, extra, f.guarantee)
    return f, g, q if kind == "multiple" else None


def division_outcome(divide, f, g):
    try:
        q = divide(f, g)
    except (NotDivisible, NotInvertible, TruncationInsufficient) as exc:
        return type(exc)
    return q.coeffs, q.guarantee


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


def compositional_inverse_oracle(f):
    """The inverse of c*u + higher by g - 1 compositions, one coefficient each."""
    u, g = f.vars, f.guarantee
    c = rational_part(f.coefficient((1,)))
    h = TruncSeries.monomial(u, (1,), 1 / c, g)
    for k in range(2, g + 1):
        ak = f.substitute({u[0]: h}).coefficient((k,))
        h = h + TruncSeries.monomial(u, (k,), ak.scale(-1 / c), g)
    return h


INVERSE_LAWS = [
    (12, 12, None), (3, 12, None), (15, 16, None), (6, 6, None), (6, 10, "additive"),
    (6, 10, ("multiplicative", Fraction(2, 5))), (6, 10, ("multiplicative", Fraction(-1, 3))),
    (6, 10, {1: Fraction(1, 3), 3: -2}),
]


@pytest.mark.parametrize("dc, deg, law", INVERSE_LAWS, ids=str)
def test_compositional_inverse_matches_the_composition_loop(dc, deg, law):
    log = build(dc, deg, law).log
    assert log.compositional_inverse() == compositional_inverse_oracle(log)


@st.composite
def reversions(draw):
    """c*u + higher in one variable: c rational other than 1, polynomial coefficients above."""
    u, g = ("u",), draw(st.integers(1, 8))
    c = draw(st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(lambda q: q not in (0, 1)))
    terms = {(1,): GradedCoeff.from_rational(c)}
    for k in range(2, g + 1):
        terms[(k,)] = sum(
            (draw(st.sampled_from(GENERATOR_COEFFS)).scale(draw(st.integers(-3, 3))) for _ in range(2)),
            GradedCoeff.zero(),
        )
    return TruncSeries(u, terms, g)


@settings(max_examples=60, deadline=None)
@given(reversions())
def test_compositional_inverse_matches_the_oracle_on_drawn_series(f):
    inv = f.compositional_inverse()
    assert inv == compositional_inverse_oracle(f) and inv.guarantee == f.guarantee
    assert f.substitute({"u": inv}) == TruncSeries.variable(("u",), "u", f.guarantee)


def test_compositional_inverse_at_the_edge_guarantees():
    f = TruncSeries(("u",), {(1,): GradedCoeff.from_rational(3), (2,): m(1)}, 1)
    assert f.compositional_inverse() == compositional_inverse_oracle(f)
    assert f.compositional_inverse() == TruncSeries.monomial(("u",), (1,), Fraction(1, 3), 1)
    with pytest.raises(NotInvertible):  # nothing is stored above a guarantee of 0
        f.truncated(0).compositional_inverse()


@pytest.mark.parametrize("beta", [Fraction(1), Fraction(2, 5), Fraction(-3, 7)], ids=str)
def test_multiplicative_exponential_is_one_minus_exp(beta):
    # l(u) = -log(1 - beta u) / beta, so e(x) = (1 - exp(-beta x)) / beta
    deg = 12
    e = build(0, deg, ("multiplicative", beta)).log.compositional_inverse()
    for k in range(1, deg + 1):
        want = Fraction((-1) ** (k + 1)) * beta ** (k - 1) / math.factorial(k)
        assert e.coefficient((k,)) == GradedCoeff.from_rational(want)


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


@settings(max_examples=150, deadline=None)
@given(division_cases())
def test_divide_exact_matches_flat_division(case):
    f, g, q = case
    got = division_outcome(TruncSeries.divide_exact, f, g)
    assert got == division_outcome(flat_divide_oracle, f, g)
    if q is not None and got is not TruncationInsufficient:
        assert got is not NotDivisible  # an exact multiple divides back to its factor
        coeffs, guarantee = got
        assert TruncSeries(f.vars, coeffs, guarantee).eq_through(q, guarantee)


def assert_canonical(s):
    """Integer numerators over one denominator in lowest terms, nothing above the guarantee."""
    nums = [x for c in s.num.values() for x in c.values()]
    assert type(s.den) is int and s.den > 0
    assert all(type(x) is int and x for x in nums)
    assert all(s.num.values())
    assert math.gcd(s.den, *nums) == 1
    assert all(sum(t) <= s.guarantee for t in s.num)


def without_constant(f):
    return f - TruncSeries.constant(f.vars, f.constant_term(), f.guarantee)


FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool)


@settings(max_examples=60, deadline=None)
@given(series(), series(), series(maxdeg=3), FRACTIONS, FRACTIONS)
def test_every_operation_returns_the_canonical_form(a, b, c, p, q):
    u = TruncSeries.variable(("u",), "u", D)
    unit = without_constant(b) + const(p)
    general = {"t1": var("t1") + var("t2").scale(q), "t2": without_constant(c)}
    monomials = {"t1": var("t2").scale(p), "t2": var("t1").scale(q)}
    reversion = u.scale(p) + a.substitute({"t1": u, "t2": u}) * u * u
    results = [
        a * b, a + b, a - b, -a, a.scale(p), a.mul_coeff(m(1).scale(q) + m(2).scale(p)),
        a.substitute(general), a.substitute(monomials),
        (a * unit).divide_exact(unit), unit.invert_unit(), reversion.compositional_inverse(),
        a.truncated(2), a.truncated(3) + b, b - a.truncated(3), a * b.truncated(2),
    ]
    for s in results:
        assert_canonical(s)
    for f, g in ((a, b), (c, unit)):
        try:
            assert_canonical(f.divide_exact(g))
        except (NotDivisible, NotInvertible, TruncationInsufficient):
            pass


def assert_same_value(x, y):
    assert x == y and hash(x) == hash(y) and str(x) == str(y)


@settings(max_examples=60, deadline=None)
@given(series(), series(), series())
def test_one_value_has_one_form(a, b, c):
    assert_same_value((a * b) * c, a * (b * c))
    assert_same_value((a + b) - b, a)
    assert_same_value(a + b.truncated(3), a.truncated(3) + b.truncated(3))
    assert_same_value(a.truncated(2), TruncSeries(a.vars, a.coeffs, 2))
    g = b + var("t1")
    assume(not g.is_zero())
    got = (a * g).divide_exact(g)
    assert_same_value(got, a.truncated(got.guarantee))


def test_divide_scales_when_the_leading_coefficient_does_not_divide():
    # (2*t1 + 3*t2)^2 is primitive, so every exact multiple of it has an
    # integral quotient (Gauss); twice it leads with 8, which does not divide
    # the leading numerator 4 of the quotient's 1/6-denominated multiple
    square = (var("t1").scale(2) + var("t2").scale(3)) ** 2
    q = (const(1) + var("t1").scale(Fraction(1, 5)) - var("t2").mul_coeff(m(1))).scale(
        Fraction(1, 6)
    )
    g = square.scale(2)
    f = q * g
    one = pack(())
    assert f.num[(2, 0)][one] % g.num[(2, 0)][one]
    got = f.divide_exact(g)
    assert_same_value(got, q.truncated(D - 2))
    assert_same_value(got, flat_divide_oracle(f, g))
    other = f + TruncSeries.monomial(UV, (1, 2), Fraction(1, 3), D)
    for h in (g, square):
        assert division_outcome(TruncSeries.divide_exact, other, h) == NotDivisible
        assert division_outcome(flat_divide_oracle, other, h) == NotDivisible


def test_divide_scales_once_by_the_whole_leading_coefficient_map():
    # the leading t-monomial t1^2 of f carries several m-terms, and the
    # leading numerator 8 of g divides some of their numerators and not
    # others, so the step scales by 8 / gcd(8, every numerator at t1^2)
    g = ((var("t1").scale(2) + var("t2").scale(3)) ** 2).scale(2)
    head = const(1) + const(2).mul_coeff(m(1)) + const(3).mul_coeff(m(2))
    q = (head + var("t1").mul_coeff(m(2)) - var("t2").scale(Fraction(1, 5))).scale(Fraction(1, 6))
    f = q * g
    lead, lc = f.num[(2, 0)], g.num[(2, 0)][pack(())]
    assert len(lead) == 3 and 0 < sum(1 for x in lead.values() if x % lc == 0) < 3
    got = f.divide_exact(g)
    assert_same_value(got, q.truncated(D - 2))
    assert_same_value(got, flat_divide_oracle(f, g))
    other = f + TruncSeries.monomial(UV, (1, 2), m(2).scale(Fraction(1, 3)), D)
    assert division_outcome(TruncSeries.divide_exact, other, g) == NotDivisible
    assert division_outcome(flat_divide_oracle, other, g) == NotDivisible


@pytest.mark.parametrize("lead", [m(1) + m(2), (m(1) + m(2)).scale(2)], ids=["m1+m2", "2m1+2m2"])
def test_divide_by_a_polynomial_leading_coefficient(lead):
    # g's leading coefficient is not a monomial, so each step divides in Q[m]
    # by the leading-term algorithm over m-monomials
    g = var("t1").mul_coeff(lead) + var("t2").mul_coeff(m(1).scale(3)) + var("t1") ** 2
    q = (
        const(1).mul_coeff(GradedCoeff.one() + m(1) + m(2).scale(2))
        + var("t1").mul_coeff(m(2).scale(Fraction(1, 2)) - GradedCoeff.from_rational(3))
        + var("t2").mul_coeff(m(1) * m(2))
    )
    f = q * g
    got = f.divide_exact(g)
    assert_same_value(got, q.truncated(D - 1))
    assert_same_value(got, flat_divide_oracle(f, g))
    for extra in ((1, 0), (0, 2)):
        other = f + TruncSeries.monomial(UV, extra, m(1), D)
        assert division_outcome(TruncSeries.divide_exact, other, g) == NotDivisible
        assert division_outcome(flat_divide_oracle, other, g) == NotDivisible


def test_divide_clears_one_t_monomial_per_step(monkeypatch):
    # a multiple of c(chi)^2, chi = (1, 1, 1), by a quotient with k
    # t-monomials of several m-terms each: one leading product per t-monomial
    T = TorusContext(3, build(3, 8))
    g = T.chern_power((1, 1, 1), 2)
    coeff = GradedCoeff.one() + m(1).scale(2) - m(2) * m(3) + m(1) * m(3).scale(Fraction(1, 3))
    exps = [(0, 0, 0), (1, 0, 0), (0, 2, 1), (1, 1, 2), (3, 0, 1)]
    q = TruncSeries(T.vars, {t: coeff.scale(i + 1) for i, t in enumerate(exps)}, 6)
    f = q * g
    calls = []

    def counting(out, a, b):
        calls.append((a, b))
        return kernels.t_mul_acc(out, a, b)

    monkeypatch.setattr("torcob.series.t_mul_acc", counting)
    monkeypatch.setattr("torcob.series.convolve", None)  # division forms no tuple product
    got = f.divide_exact(g)
    monkeypatch.undo()
    assert_same_value(got, q)
    assert_same_value(got, flat_divide_oracle(f, g))
    tail = g.divisor[-1]
    leading = [a for a, b in calls if b is tail]
    assert len(leading) == len(exps)
    assert all(len(a) == 1 for a in leading)


def test_a_quotient_fills_its_t_field_at_the_truncation():
    # at truncation 8 a t-key field is 5 bits, and t1^8 sets its fourth
    vars3 = ("t1", "t2", "t3")
    exps = {(8, 0, 0): m(1), (7, 0, 0): m(2), (0, 8, 0): GradedCoeff.one(), (3, 0, 5): m(2),
            (0, 0, 0): m(3)}
    q = TruncSeries(vars3, exps, 8)
    unit = TruncSeries(vars3, {(0, 0, 0): GradedCoeff.one(), (1, 0, 0): m(1), (0, 1, 1): m(2)}, 8)
    f = q * unit
    assert f.coefficient((8, 0, 0)) == m(1) + m(1) * m(2)
    assert f.divide_exact(unit) == q
    assert_same_value(f.divide_exact(unit), flat_divide_oracle(f, unit))
    # lowest degree 1: the quotient has guarantee 7 and the dividend t1^8
    g = TruncSeries(vars3, {(1, 0, 0): GradedCoeff.one(), (0, 0, 1): m(1)}, 8)
    q7 = TruncSeries(vars3, {(7, 0, 0): GradedCoeff.one(), (0, 7, 0): m(2)}, 8)
    assert (q7 * g).coefficient((8, 0, 0)) == GradedCoeff.one()
    assert (q7 * g).divide_exact(g) == q7.truncated(7)
    with pytest.raises(NotDivisible):  # t2^8 is no multiple of the leading t1
        TruncSeries(vars3, {(0, 8, 0): GradedCoeff.one()}, 8).divide_exact(g)


@settings(max_examples=40, deadline=None)
@given(series(maxdeg=3))
def test_invert_round_trip(f):
    f = f + const(1) - TruncSeries.constant(UV, f.constant_term(), D)
    inv = f.invert_unit()
    assert f * inv == const(1)


def geometric_inverse(f):
    """1/f as the geometric series in 1 - f/c0, c0 the rational constant term."""
    c = rational_part(f.constant_term())
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
    comps = homogeneous_components(mixed)
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


# -- powers and the kept divisor ------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(series(maxdeg=3), st.integers(0, 9), st.integers(0, D))
def test_power_by_squaring_matches_repeated_products(f, n, guarantee):
    # truncation is a ring map, so squaring gives the plain product's canonical form
    f = f.truncated(guarantee)
    want = const(1, guarantee)
    for _ in range(n):
        want = want * f
    got = f ** n
    assert got == want and got.guarantee == want.guarantee
    assert_canonical(got)


@pytest.mark.parametrize("chi", [(1, 1, 1), (2, -1, 0), (1, 0, 0)])
def test_power_equals_products_of_distinct_copies(chi):
    # a product of two copies takes the general path, a power squares its base
    T = TorusContext(3, build(3, 6))
    c = T.character_series(chi) + TruncSeries.constant(T.vars, Fraction(1, 3), T.D)
    for d in range(2, 6):
        copies = [TruncSeries(c.vars, c.coeffs, c.guarantee) for _ in range(d)]
        assert len({id(x.num) for x in copies}) == d
        want = copies[0]
        for x in copies[1:]:
            want = want * x
        got = c ** d
        assert got == want and got.guarantee == want.guarantee
        assert_canonical(got)


def test_chern_square_forms_each_pair_of_t_entries_once(monkeypatch):
    # c(1,1,1)^2 at rank 3, truncation 8, Dc = 3: 8,902 coefficient products
    # when every ordered pair is formed, 4,522 when each unordered one is
    T = TorusContext(3, build(3, 8))
    T.character_series((1, 1, 1))
    products = []
    real = kernels.mul_acc

    def counting(out, a_items, b):
        products.append(len(a_items) * len(b))
        return real(out, a_items, b)

    monkeypatch.setattr(kernels, "mul_acc", counting)
    T.chern_power((1, 1, 1), 2)
    assert len(products) <= 808 and sum(products) <= 4522


def test_power_squares(monkeypatch):
    calls = []
    mul = TruncSeries.__mul__

    def counting(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(TruncSeries, "__mul__", counting)
    got = TruncSeries.constant(UV, m(1), D) ** 32767
    monkeypatch.undo()
    assert len(calls) <= 30
    assert got == TruncSeries.constant(UV, GradedCoeff.monomial((32767,), 1), D)


def test_divisor_is_sliced_once(monkeypatch):
    T = TorusContext(3, build(3, 8))
    chi = (2, 1, 1)
    g = T.chern_power(chi, 2)
    q = TruncSeries(T.vars, {(0, 0, 0): m(1), (1, 0, 2): GradedCoeff.one()}, T.D)
    sliced = []
    real = series_module._divisor_slices

    def spy(num, guarantee):
        sliced.append((num, guarantee))
        return real(num, guarantee)

    monkeypatch.setattr(series_module, "_divisor_slices", spy)
    first = T.divide_by_chern(q * g, chi, 2)
    with pytest.raises(NotDivisible):
        T.divide_by_chern(q * g + TruncSeries.monomial(T.vars, (0, 2, 0), m(2), T.D), chi, 2)
    again = T.divide_by_chern(q * g, chi, 2)
    assert sliced == [(g.num, g.guarantee)]
    assert first == again == q.truncated(T.D - 2)


@settings(max_examples=100, deadline=None)
@given(division_cases(), st.integers(2, 5))
def test_a_kept_divisor_divides_as_a_fresh_copy(case, k):
    # every division reads the divisor's kept slices and writes none of them
    f, g, _ = case
    dividends = [f, f.scale(k), f]
    kept = [division_outcome(TruncSeries.divide_exact, h, g) for h in dividends]
    fresh = [
        division_outcome(TruncSeries.divide_exact, h, TruncSeries(g.vars, g.coeffs, g.guarantee))
        for h in dividends
    ]
    assert kept == fresh
