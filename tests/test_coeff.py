"""The coefficient ring: exact sparse polynomials over the Lazard generators."""

from fractions import Fraction

from torcob.coeff import GradedCoeff, mweight


def degree_component(c, j):
    """The part of the coefficient c in cohomological degree j."""
    return GradedCoeff({e: q for e, q in c.terms.items() if -mweight(e) == j})


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
