"""The coefficient ring: exact sparse polynomials over the Lazard generators."""

import math
from fractions import Fraction

import pytest

from torcob.coeff import GradedCoeff, inverse_powers, mweight, partitions
from torcob.fgl import build
from torcob.kernels import mul_acc
from torcob.series import from_table


def degree_component(c, j):
    """The part of the coefficient c in cohomological degree j."""
    return GradedCoeff({e: q for e, q in c.terms.items() if -mweight(e) == j})


def rational_part(c):
    """The constant term of the coefficient c, a Fraction."""
    return c.terms.get((), Fraction(0))


def max_generator_index(c):
    """The largest i with m_i in some term of c, 0 for a rational."""
    return max((len(e) for e in c.terms), default=0)


def test_no_zero_terms_stored():
    a = GradedCoeff.generator(1)
    assert (a - a).is_zero() and (a - a).terms == {}
    assert GradedCoeff.from_rational(0).terms == {}


def test_generator_degrees():
    for i in (1, 2, 5):
        assert GradedCoeff.generator(i).homogeneous_degree() == -i
    prod = GradedCoeff.generator(1) * GradedCoeff.generator(2)
    assert prod.homogeneous_degree() == -3
    assert max_generator_index(prod) == 2


def test_degree_components():
    mixed = GradedCoeff.from_rational(2) + GradedCoeff.generator(1).scale(3)
    assert mixed.degrees() == [-1, 0]
    assert mixed.homogeneous_degree() is None
    assert degree_component(mixed, 0) == GradedCoeff.from_rational(2)
    assert degree_component(mixed, -1) == GradedCoeff.generator(1).scale(3)
    assert degree_component(mixed, -7).is_zero()


def test_arithmetic_is_exact():
    third = GradedCoeff.from_rational(Fraction(1, 3))
    assert third + third + third == GradedCoeff.one()
    sq = GradedCoeff.generator(1) + GradedCoeff.from_rational(Fraction(1, 2))
    assert sq ** 2 == sq * sq
    assert sq ** 0 == GradedCoeff.one()


def test_specialize():
    c = GradedCoeff.generator(1).scale(4) + GradedCoeff.generator(2) * GradedCoeff.generator(1)
    got = c.specialize(lambda i: Fraction(1, i + 1))
    assert got == GradedCoeff.from_rational(Fraction(4, 2) + Fraction(1, 3) * Fraction(1, 2))


def test_rendering():
    assert str(GradedCoeff.zero()) == "0"
    assert str(GradedCoeff.from_rational(Fraction(-2, 3))) == "-2/3"
    c = GradedCoeff.monomial((2,), 4) + GradedCoeff.monomial((0, 1), -3)
    assert str(c) == "4*m1^2 - 3*m2"
    assert str(GradedCoeff.monomial((1, 0, 2), 1)) == "m1*m3^2"
    assert str(GradedCoeff.monomial((1,), -1)) == "-m1"


def test_hash_and_eq():
    a = GradedCoeff.generator(2) + GradedCoeff.one()
    b = GradedCoeff.one() + GradedCoeff.generator(2)
    assert a == b and hash(a) == hash(b)
    assert a != GradedCoeff.generator(2)


def inverse_powers_oracle(M, n, shift):
    """The sums of ``inverse_powers`` as {m-key: Fraction} maps, by a walk in Fractions.

    ``M`` maps j to the {m-key: Fraction} map of u^j in M(u); each step
    multiplies by M_j and adds the prefix's product times the rational weight
    (-1)^l (N + l - 1)! / ((N - 1)! aut(lambda)), N = k + shift.
    """
    out = [{0: Fraction(1)}] + [{} for _ in range(n)]

    def grow(prod, size, last, run, length, aut):
        for p in range(1, min(last, n - size) + 1):
            if p in M:
                k, r = size + p, run + 1 if p == last else 1
                prod_p = mul_acc({}, prod.items(), M[p])
                w = Fraction(math.factorial(k + shift + length),
                             -math.factorial(k + shift - 1) * aut * r)
                mul_acc(out[k], prod_p.items(), {0: w})
                grow(prod_p, k, p, r, length + 1, -aut * r)

    grow({0: 1}, 0, n, 0, 0, 1)
    return out


def law_M(log):
    """The integer numerators of M(u) = l(u)/u - 1 over l's denominator, keyed by j."""
    return {k - 1: c for (k,), c in log.num.items()}


def law_M_fractions(log):
    return {j: {m: Fraction(x, log.den) for m, x in c.items()} for j, c in law_M(log).items()}


MAX_D = 24
INVERSE_POWER_LAWS = [
    (0, None), (1, None), (3, None), (6, None), (24, None),
    (MAX_D, ("multiplicative", 2)), (MAX_D, ("multiplicative", Fraction(-3, 7))),
    (MAX_D, "additive"), (MAX_D, {1: Fraction(1, 2), 3: -5}),
]


_ORACLE_SUMS = {}


def oracle_sums(dc, law, shift):
    """The Fraction walk at the largest truncation, kept per law; p_k reads
    only M_1..M_k, so its first D entries are the walk of every lower
    truncation D."""
    key = (dc, str(law), shift)
    if key not in _ORACLE_SUMS:
        log = build(dc, MAX_D, law).log
        _ORACLE_SUMS[key] = inverse_powers_oracle(law_M_fractions(log), MAX_D - 1, shift)
    return _ORACLE_SUMS[key]


@pytest.mark.parametrize("dc, law", INVERSE_POWER_LAWS, ids=str)
def test_inverse_powers_match_the_fraction_walk(dc, law):
    for shift in (0, 1):
        want = oracle_sums(dc, law, shift)
        for D in range(1, MAX_D + 1):
            log = build(dc, D, law).log
            got = inverse_powers(law_M(log), log.den, D - 1, shift)
            assert all(type(x) is int for p in got for x in p.values())
            assert [{m: Fraction(x, log.den ** k) for m, x in p.items()}
                    for k, p in enumerate(got)] == want[:D]


@pytest.mark.parametrize("dc, law", INVERSE_POWER_LAWS, ids=str)
def test_exp_and_weights_match_the_tables_of_the_fraction_walk(dc, law):
    # e: [x^n] = p_(n-1) / n at shift 1; the weight factor of mu is
    # den^p q_p / j with q_p = -p_p / p at shift 0 (see fgl.weight_factors)
    for D in range(1, MAX_D + 1):
        ctx = build(dc, D, law)
        inv = oracle_sums(dc, law, 1)
        table = {(n,): {m: q / n for m, q in inv[n - 1].items()} for n in range(1, D + 1)}
        assert ctx.exp == from_table(("u",), table, D)
        p = oracle_sums(dc, law, 0)
        rational = {mu: {m: q * Fraction(-1, mu[-1] * mu.count(mu[-1])) for m, q in p[mu[-1]].items()}
                    for mu in partitions(D - 1) if mu}
        den = math.lcm(*(q.denominator for f in rational.values() for q in f.values()))
        factors = {(): {0: 1}}
        for mu, f in rational.items():
            factors[mu] = {m: q.numerator * (den ** mu[-1] // q.denominator) for m, q in f.items()}
        assert ctx.weight_factors(D - 1) == (den, factors)
