"""Coinvariant algebra of the flag variety, its moment-graph bridge and its residue pairing."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torcob import exprs, flag, gkm
from torcob.coeff import GradedCoeff
from torcob.errors import TooLarge, TruncationInsufficient
from torcob.fgl import build
from torcob.series import TruncSeries
from torcob.torus import TorusContext

import residue_oracle
from test_coeff import rational_part


def x_zero(n):
    return TruncSeries.zero(flag.xvars(n), flag.XBOUND)


def x_one(n):
    return TruncSeries.constant(flag.xvars(n), 1, flag.XBOUND)


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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_normal_form_does_no_coefficient_arithmetic(n, monkeypatch):
    # the Groebner basis has every coefficient 1, so reduction subtracts
    # integer numerator maps; checked by staircase support and the pairing,
    # which together determine the normal form (the Gram matrix is unimodular)
    rng = random.Random(31 + n)
    T = TorusContext(n, build(2, n * (n - 1) // 2 + 1))
    ps = [_rand_xpoly(n, rng, maxdeg=4).scale(Fraction(rng.randint(1, 5), 6)) for _ in range(6)]
    want = [flag.artin_pairing(T, n, p) for p in ps]

    def boom(*args, **kwargs):
        raise AssertionError("normal_form did coefficient arithmetic")

    for attr in ("__mul__", "__sub__"):
        monkeypatch.setattr(GradedCoeff, attr, boom)
    got = [flag.normal_form(n, p) for p in ps]
    monkeypatch.undo()
    staircase = set(flag.artin_exponents(n))
    assert any(set(p.num) - staircase for p in ps)
    for nf, w in zip(got, want):
        assert set(nf.num) <= staircase
        assert flag.artin_pairing(T, n, nf) == w


@pytest.mark.parametrize("n", [2, 3, 4])
def test_normal_form_drops_the_parts_above_the_top_degree(n):
    # the full division, every part reduced, is the oracle
    dim = n * (n - 1) // 2
    rng = random.Random(57 + n)
    for _ in range(6):
        p = _rand_xpoly(n, rng, maxdeg=dim + 2)
        top = flag.x_poly(n, {(0,) * (n - 1) + (dim + 1,): GradedCoeff.generator(2)})
        for q in (p, p + top, p * flag.x_var(n, n)):
            assert flag.normal_form(n, q) == flag._divide(n, q)[0]
    assert flag.normal_form(n, top).is_zero()


def _lex_groebner_basis(n, top):
    """(leading exponent, the other exponents) of each h_i(x_1, ..., x_{n+1-i})
    with i <= ``top``, built from multisets of variables."""
    out = []
    for i in range(1, min(n, top) + 1):
        lead = [0] * n
        lead[n - i] = i
        lead = tuple(lead)
        rest = []
        for c in itertools.combinations_with_replacement(range(n + 1 - i), i):
            exps = [0] * n
            for j in c:
                exps[j] += 1
            if tuple(exps) != lead:
                rest.append(tuple(exps))
        out.append((lead, rest))
    return out


def _lex_division(n, p, top=None):
    """(normal form, [cofactor table of h_1, h_2, ...]): the oracle for ``flag._divide``.

    The division under the lexicographic order with x_n largest: each step
    takes the largest term left and reduces it by the first lead that divides
    it, with every h_i up to the degree built up front.  Its remainder is
    unique, so it equals the one-pass-per-wall division's; its cofactors may
    differ.
    """
    work = {t: dict(c) for t, c in p.num.items() if top is None or sum(t) <= top}
    gb = _lex_groebner_basis(n, max(map(sum, work), default=0))
    cofactors = [{} for _ in gb]
    done = {}
    while work:
        t = max(work, key=lambda e: tuple(reversed(e)))
        c = work.pop(t)
        for (lead, rest), g in zip(gb, cofactors):
            if all(l <= e for l, e in zip(lead, t)):
                shift = tuple(e - l for e, l in zip(t, lead))
                g[shift] = c
                for gt in rest:
                    key = tuple(a + b for a, b in zip(gt, shift))
                    tgt = work.setdefault(key, {})
                    for m, x in c.items():
                        tgt[m] = tgt.get(m, 0) - x
                        if not tgt[m]:
                            del tgt[m]
                    if not tgt:
                        del work[key]
                break
        else:
            done[t] = c
    nf = flag.x_poly(n, {t: GradedCoeff.from_numerators(c, p.den) for t, c in done.items()})
    return nf, cofactors


def _recombine(n, p, nf, cofactors):
    """nf + sum_i h_i g_i, with g_i over p's denominator."""
    total = nf
    for i, g in cofactors.items():
        h = flag.x_poly(n, {e: GradedCoeff.one() for e in flag._wall(n, i)})
        total = total + h * flag.x_poly(n, {s: GradedCoeff.from_numerators(c, p.den) for s, c in g.items()})
    return total


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_division_matches_the_lex_order_oracle(n):
    # the remainder is unique, so the passes and the global-max division agree
    # on it; each pass's cofactors recombine to p, and certify the remainder,
    # zero or not
    rng = random.Random(71 + n)
    dim = n * (n - 1) // 2
    for _ in range(12 if n < 5 else 6):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 4 if n < 5 else 3) for _ in range(n))
            c = GradedCoeff.from_rational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            if rng.random() < 0.5:
                c = c + GradedCoeff.generator(rng.randint(1, 2))
            if not c.is_zero():
                terms[e] = c
        p = flag.x_poly(n, terms)
        for top in (None, dim):
            nf, cofactors = flag._divide(n, p, top)
            assert nf == _lex_division(n, p, top)[0]
            assert set(nf.num) <= set(flag.artin_exponents(n))
            low = flag.x_poly(n, {t: c for t, c in p.coeffs.items() if top is None or sum(t) <= top})
            assert _recombine(n, p, nf, cofactors) == low
        flag._certify(n, p, *flag._divide(n, p))
        q = p - nf
        zero, cofactors = flag._divide(n, q)
        assert zero.is_zero()
        flag._certify(n, q, zero, cofactors)


def _spy_walls(monkeypatch):
    built = []
    real = flag._wall
    monkeypatch.setattr(flag, "_wall", lambda n, i: built.append(i) or real(n, i))
    return built


def test_division_builds_no_basis_element_above_the_degree(monkeypatch):
    # a wall is built only when some term reaches it, once per division
    assert [len(flag._wall(24, i)) for i in (1, 2, 24)] == [24, math.comb(24, 2), 1]
    built = _spy_walls(monkeypatch)
    x = functools.partial(flag.x_var, 24)
    assert flag.normal_form(24, x(1)) == x(1)
    assert flag.normal_form(24, x(24)) == x(24) - flag.elementary_symmetric(24, 1)
    assert flag.normal_form(4, flag.x_var(4, 4) ** 60).is_zero()
    assert built == [1]
    built.clear()
    assert flag._divide(3, flag.x_var(3, 1) ** 3)[0].is_zero()
    assert built == [3]


def test_a_staircase_monomial_builds_no_wall(monkeypatch):
    built = _spy_walls(monkeypatch)
    p = flag.x_poly(22, {(2,) * 5 + (0,) * 17: GradedCoeff.one()})
    nf, cofactors = flag._divide(22, p, 22 * 21 // 2)
    assert nf == p and cofactors == {}
    assert built == []


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
    one = flag.flag_restriction(T, 2, x_one(2))
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


def _symmetric_parts(n, variables, k, elementary):
    """[h_0, ..., h_k] (complete) or [e_0, ..., e_k] (elementary) in the x_l, l in variables."""
    out = [x_one(n)] + [x_zero(n)] * k
    for l in variables:
        x = flag.x_var(n, l)
        degrees = range(k, 0, -1) if elementary else range(1, k + 1)
        for d in degrees:
            out[d] = out[d] + x * out[d - 1]
    return out


def test_groebner_basis_lies_in_the_symmetric_ideal():
    # the certificate's h_i come from _wall, lead first; each is
    # sum_j (-1)^j e_j(x_(m+1), ..., x_n) h_(i-j)(x_1, ..., x_n) with m = n + 1 - i,
    # and every h_(i-j) with j < i is symmetric of positive degree (e_i of
    # i - 1 variables is zero)
    for n in range(1, 6):
        for i in range(1, n + 1):
            m = n + 1 - i
            wall = flag._wall(n, i)
            assert wall[0] == (0,) * (m - 1) + (i,) + (0,) * (i - 1)
            assert len(set(wall)) == len(wall) == math.comb(n, i)
            h = flag.x_poly(n, {e: GradedCoeff.one() for e in wall})
            assert h == _symmetric_parts(n, range(1, m + 1), i, False)[i]
            complete = _symmetric_parts(n, range(1, n + 1), i, False)
            elementary = _symmetric_parts(n, range(m + 1, n + 1), i, True)
            assert elementary[i].is_zero()
            combination = x_zero(n)
            for j in range(i):
                combination = combination + (elementary[j] * complete[i - j]).scale((-1) ** j)
            assert h == combination


def test_kernel_check_certifies_each_answer(monkeypatch):
    # a false answer is certified by the pairing, a true one by the cofactors
    T = TorusContext(2, build(3, 5))
    x1 = flag.x_var(2, 1)
    monkeypatch.setattr(flag, "_pairings", lambda ctx, n, p, exps: iter([GradedCoeff.zero()] * 2))
    with pytest.raises(ArithmeticError):
        flag.kernel_check(T, 2, x1)
    monkeypatch.undo()
    real = flag._divide
    monkeypatch.setattr(flag, "_divide", lambda n, p: (x_zero(n), real(n, p)[1]))
    with pytest.raises(ArithmeticError):
        flag.kernel_check(T, 2, x1)


def _kernel_poly(n):
    """A polynomial in the kernel at rank n whose division uses every h_i."""
    x = [flag.x_var(n, k) for k in range(1, n + 1)]
    p = flag.elementary_symmetric(n, 1) * (x[0] + x[-1] ** 2).scale(Fraction(2, 3))
    for k in range(2, n + 1):
        p = p + flag.elementary_symmetric(n, k).mul_coeff(GradedCoeff.generator(1))
    return p


FORGES = ["drop a term", "change a numerator", "add a term"]


def _forged(cofactors, forge):
    """A copy of the cofactors with one term of g_2 dropped or changed, or a term added to g_1."""
    forged = {i: dict(g) for i, g in cofactors.items()}
    shift, c = next(iter(forged[2].items()))
    if forge == "drop a term":
        del forged[2][shift]
    elif forge == "change a numerator":
        forged[2][shift] = {m: x + 1 for m, x in c.items()}
    else:
        forged[1][(5, 0, 0)] = {0: 1}
    return forged


@pytest.mark.parametrize("forge", FORGES)
def test_a_forged_cofactor_raises(monkeypatch, forge):
    T = TorusContext(3, build(2, 4))
    p = _kernel_poly(3)
    nf, cofactors = flag._divide(3, p)
    assert nf.is_zero() and set(cofactors) == {1, 2, 3}
    flag._certify(3, p, nf, cofactors)
    forged = _forged(cofactors, forge)
    with pytest.raises(ArithmeticError, match="cofactors"):
        flag._certify(3, p, nf, forged)
    monkeypatch.setattr(flag, "_divide", lambda n, q: (nf, forged))
    with pytest.raises(ArithmeticError, match="cofactors"):
        flag.kernel_check(T, 3, p)


def _staircase_remainder():
    """3/2 x1^2 x2 at rank 3: on the staircase, so its own normal form."""
    return flag.x_poly(3, {(2, 1, 0): GradedCoeff.from_rational(Fraction(3, 2))})


@pytest.mark.parametrize("forge", FORGES)
def test_a_forged_cofactor_raises_on_a_false_answer(monkeypatch, forge):
    # a kernel polynomial plus a staircase remainder: the pairing of the
    # remainder alone would answer false, so only the identity sees the forgery
    T = TorusContext(3, build(2, 4))
    rem = _staircase_remainder()
    p = _kernel_poly(3) + rem
    nf, cofactors = flag._divide(3, p)
    assert nf == rem and set(cofactors) == {1, 2, 3}
    flag._certify(3, p, nf, cofactors)
    assert not flag.kernel_check(T, 3, p)
    with pytest.raises(ArithmeticError, match="cofactors"):
        flag._certify(3, p, nf.scale(Fraction(2)), cofactors)
    forged = _forged(cofactors, forge)
    with pytest.raises(ArithmeticError, match="cofactors"):
        flag._certify(3, p, nf, forged)
    monkeypatch.setattr(flag, "_divide", lambda n, q: (nf, forged))
    with pytest.raises(ArithmeticError, match="cofactors"):
        flag.kernel_check(T, 3, p)


def test_kernel_check_pairs_the_normal_form(monkeypatch):
    # pairing p gives the same answer, so only a spy tells it from pairing nf
    T = TorusContext(3, build(2, 4))
    rem = _staircase_remainder()
    paired = []
    real = flag._pairings
    monkeypatch.setattr(flag, "_pairings", lambda ctx, n, q, exps: paired.append(q) or real(ctx, n, q, exps))
    assert not flag.kernel_check(T, 3, _kernel_poly(3) + rem)
    assert paired == [rem]


def _count_integrals(monkeypatch):
    calls = []
    real = flag._log_integral
    monkeypatch.setattr(flag, "_log_integral", lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("n, spec", [(4, None), (5, "additive")], ids=["universal-4", "additive-5"])
def test_kernel_check_stops_at_the_first_nonzero_pairing(monkeypatch, n, spec):
    dim = n * (n - 1) // 2
    T = TorusContext(n, build(dim, dim + 1, spec))
    calls = _count_integrals(monkeypatch)
    assert not flag.kernel_check(T, n, flag.x_var(n, 1))
    assert len(calls) == 1


@pytest.mark.parametrize("n", [3, 6])
def test_kernel_check_pairs_nothing_for_a_true_answer(monkeypatch, n):
    dim = n * (n - 1) // 2
    T = TorusContext(n, build(0, dim + 1, "additive"))
    p = _kernel_poly(n)
    calls = _count_integrals(monkeypatch)
    assert flag.kernel_check(T, n, p)
    assert calls == []
    if n == 3:
        assert all(c.is_zero() for c in flag.artin_pairing(T, n, p))
        assert calls


def test_kernel_check_of_an_ideal_part_plus_a_remainder_at_rank_6(monkeypatch):
    # the cube of e1 pairs to zero only as a sum; its remainder's pairing
    # needs at most the five integrals of the degree-1 Artin monomials
    T = TorusContext(6, build(0, 16, "additive"))
    p = flag.elementary_symmetric(6, 1) ** 3 + flag.x_poly(6, {(5, 4, 3, 2, 0, 0): GradedCoeff.one()})
    calls = _count_integrals(monkeypatch)
    assert not flag.kernel_check(T, 6, p)
    assert 1 <= len(calls) <= 5


def test_kernel_check_of_a_high_power_at_rank_6(monkeypatch):
    # every part is reduced for the certificate, far above the top degree 15
    T = TorusContext(6, build(0, 16, "additive"))
    calls = _count_integrals(monkeypatch)
    assert flag.kernel_check(T, 6, flag.x_var(6, 6) ** 16)
    assert calls == []


@pytest.mark.parametrize("spec", [None, "additive", ("multiplicative", Fraction(2, 5))],
                         ids=["universal", "additive", "multiplicative"])
def test_descending_pairings_are_the_pairing_reversed(spec):
    rng = random.Random(repr(spec))
    for n in (1, 2, 3, 4):
        dim = n * (n - 1) // 2
        T = TorusContext(n, build(3, dim + 1, spec))
        exps = flag.artin_exponents(n)
        for _ in range(4):
            p = _rand_pairing_input(rng, n, dim)
            pairing = flag.artin_pairing(T, n, p)
            assert list(flag._pairings(T, n, p, reversed(exps))) == pairing[::-1]
            assert flag.kernel_check(T, n, p) == all(c.is_zero() for c in pairing)


KERNEL_LAWS = {"universal": None, "additive": "additive", "multiplicative:2/5": ("multiplicative", Fraction(2, 5))}


@functools.cache
def _kernel_context(n, law):
    """The context of rank n under ``KERNEL_LAWS[law]``, at truncation dim + 1."""
    return TorusContext(n, build(2, n * (n - 1) // 2 + 1, KERNEL_LAWS[law]))


@st.composite
def kernel_inputs(draw):
    """(n, law, p): up to three monomials, times e_k for a drawn k >= 1 about
    half the time, of total degree at most dim + 1 at ranks 1-4."""
    n = draw(st.integers(1, 4))
    law = draw(st.sampled_from(sorted(KERNEL_LAWS)))
    k = draw(st.sampled_from([0, 0, *range(1, n + 1)]))
    top = n * (n - 1) // 2 + 1 - k
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        e = [0] * n
        for i in draw(st.lists(st.integers(0, n - 1), max_size=top)):
            e[i] += 1
        c = GradedCoeff.from_rational(Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))))
        if law == "universal" and draw(st.booleans()):
            c = c + GradedCoeff.generator(draw(st.integers(1, 2)))
        if not c.is_zero():
            terms[tuple(e)] = c
    p = flag.x_poly(n, terms)
    return n, law, p * flag.elementary_symmetric(n, k) if k else p


def _pairing_says_zero(T, n, p):
    return all(c.is_zero() for c in flag.artin_pairing(T, n, p))


@settings(max_examples=120, deadline=None)
@given(kernel_inputs())
def test_kernel_check_is_the_all_zero_pairing(case):
    n, law, p = case
    T = _kernel_context(n, law)
    assert flag.kernel_check(T, n, p) == _pairing_says_zero(T, n, p)


@pytest.mark.parametrize("law", sorted(KERNEL_LAWS))
def test_kernel_check_is_the_all_zero_pairing_at_rank5(law):
    T = _kernel_context(5, law)
    x = [flag.x_var(5, k) for k in range(1, 6)]
    cases = [
        (_kernel_poly(5), True),
        (flag.elementary_symmetric(5, 3) * (x[0] ** 2 - x[4]) + x[1] ** 11, True),
        (x[0] ** 4 * x[1] ** 3 * x[2] ** 2 * x[3] - flag.elementary_symmetric(5, 2), False),
    ]
    for p, want in cases:
        assert flag.kernel_check(T, 5, p) == want == _pairing_says_zero(T, 5, p)


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


# (rank, polynomial, answer): each polynomial of degree at most 2
LOW_TRUNCATION_CASES = [
    (2, "x1", False), (2, "x1 + x2", True),
    (3, "x1^2 + x1*x2", False), (3, "x1*x2 + x1*x3 + x2*x3", True),
    (4, "x1*x2 - 2*x3", False), (4, "(x1 + x2 + x3 + x4)*(x1 - 3*x2)", True),
]


@pytest.mark.parametrize("law", sorted(KERNEL_LAWS))
@pytest.mark.parametrize("n, text, want", LOW_TRUNCATION_CASES, ids=str)
def test_kernel_check_at_or_below_dim_answers_as_at_dim_plus_one(law, n, text, want):
    # the pairing reads the law through dim + 1 whatever the context's truncation
    dim = n * (n - 1) // 2
    p = exprs.eval_xpoly(exprs.parse(text), n)
    assert flag.kernel_check(_kernel_context(n, law), n, p) is want
    for D in sorted({min(2, dim), dim}):
        low = TorusContext(n, build(2, D, KERNEL_LAWS[law]))
        assert flag.kernel_check(low, n, p) is want


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


def test_restriction_and_pairing_refuse_another_rank():
    T = TorusContext(3, build(3, 5))
    p = flag.x_var(2, 1)
    with pytest.raises(ValueError, match="torus rank must equal n"):
        flag.flag_restriction(T, 2, p)
    with pytest.raises(ValueError, match="torus rank must equal n"):
        flag.artin_pairing(T, 2, p)


def test_flag_restriction_refuses_other_variables():
    T = TorusContext(3, build(3, 5))
    for p in (flag.x_var(2, 1), flag.x_poly(4, {(1, 0, 0, 0): GradedCoeff.one()}), T.var(0)):
        with pytest.raises(ValueError, match="expected x-variables"):
            flag.flag_restriction(T, 3, p)


def flag_restriction_oracle(ctx, n, p):
    """The substitution route: w read from each vertex id of the flag graph,
    then x_k -> t_{w(k)} through ``TruncSeries.substitute``."""
    g = gkm.flag_graph(n)
    flag.require_degree(p, ctx.D)
    values = {}
    for v in g.vertices:
        w = [int(c) for c in v]
        values[v] = p.substitute({f"x{k + 1}": ctx.var(w[k] - 1) for k in range(n)})
    return gkm.PiecewiseClass(values)


def _rand_restriction_input(rng, n, top, lazard):
    """Up to five monomials of degree <= top with rational coefficients, Lazard
    terms when ``lazard``, and a guarantee that is sometimes below top."""
    terms = {}
    for _ in range(rng.randint(0, 5)):
        e = tuple(rng.randint(0, 3) for _ in range(n))
        if sum(e) > top:
            continue
        c = GradedCoeff.from_rational(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4))))
        if lazard and rng.random() < 0.5:
            c = c + GradedCoeff.monomial((0,) * rng.randint(0, 2) + (1,), rng.randint(-2, 2))
        if not c.is_zero():
            terms[e] = c
    guarantee = rng.choice((flag.XBOUND, top, max(top - 2, 0)))
    return TruncSeries(flag.xvars(n), terms, guarantee)


@pytest.mark.parametrize(
    "dc, spec",
    [(4, None), (3, "additive"), (2, ("multiplicative", Fraction(2, 5)))],
    ids=["universal", "additive", "multiplicative-2/5"],
)
def test_flag_restriction_matches_substitution_oracle(dc, spec):
    rng = random.Random(repr((dc, spec)))
    for n in (1, 2, 3, 4):
        for D in (2, 5):
            T = TorusContext(n, build(dc, D, spec))
            for _ in range(8):
                p = _rand_restriction_input(rng, n, D, spec is None)
                got, want = flag.flag_restriction(T, n, p), flag_restriction_oracle(T, n, p)
                assert list(got.values) == list(want.values)
                for v, s in want.values.items():
                    assert got.values[v] == s and got.values[v].guarantee == s.guarantee


def test_flag_restriction_builds_no_graph_and_substitutes_nothing(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("the restriction built a graph or substituted")

    monkeypatch.setattr(gkm.GKMGraph, "__init__", boom)
    monkeypatch.setattr(TruncSeries, "substitute", boom)
    T = TorusContext(3, build(3, 5))
    alpha = flag.flag_restriction(T, 3, flag.x_var(3, 1) * flag.x_var(3, 2) ** 2)
    assert alpha.restrict("312") == T.var(2) * T.var(0) ** 2


def test_artin_pairing_refuses_other_variables():
    T = TorusContext(3, build(3, 6))
    with pytest.raises(ValueError):
        flag.artin_pairing(T, 3, flag.x_var(2, 1))
    with pytest.raises(ValueError):
        flag.artin_pairing(T, 3, T.var(0))


def test_artin_pairing_of_zero_and_of_high_degree():
    T = TorusContext(3, build(3, 6))
    assert all(c.is_zero() for c in flag.artin_pairing(T, 3, x_zero(3)))
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
                assert c.is_rational() and rational_part(c).denominator == 1
                top_row.append(rational_part(c))
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
                inv = _inverse([[rational_part(gram[b, a]) for a in as_] for b in bs])
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
