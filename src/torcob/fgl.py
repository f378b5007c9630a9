"""The universal formal group law over the rationalized Lazard ring.

Everything is generated from the logarithm l(u) = u (1 + M(u)), with
M(u) = sum m_i u^i.  The exponential e is its compositional inverse, by
Lagrange inversion (Stanley, EC2 5.4): [x^(n+1)] e = [u^n] (1 + M)^-(n+1)
/ (n+1), one sum over the partitions of n and no series product
(``TruncSeries.compositional_inverse``).  Then F(u, v) = e(l(u) + l(v)) and
[n]u = e(n l(u)) for every integer n, one composition each.  Specializing
every m_i to a rational gives the additive law (all zero) or the
multiplicative law (m_i = beta^i / (i+1)).

The exponential is checked on construction by one composition,
e(l(u)) = u through the truncation; a failure raises ArithmeticError.
Truncated series with linear term 1 form a group under composition, so
this is the same condition as l(e(x)) = x, and as l(rho(u)) = -l(u) for
the formal inverse rho(u) = e(-l(u)) = [-1]u (put x = -l(u)).  Since
F(u, v) = e(l(u) + l(v)), rho is the solution of F(u, rho) = 0.  Neither
rho nor the bivariate F is built until something reads it: rho is the
n-series at -1 (``rho``, ``n_series``), F is built by ``F``, ``a_coeff``,
``plus`` and ``formal_sum``.  Integration in ``gkm`` reads only l,
through ``weight_factors``.

The characteristic series of the law is Q(x) = x / e(x) (Hirzebruch), a
unit written exp(sum_k q_k x^k) with q_k in Q[m] of weight k.  Since
e(x) / x = 1 / (1 + M(e(x))), the Lagrange-Burmann formula for logarithms
gives q_k = -[u^k] (1 + M)^-k / k: the same partition sum as e's
(``coeff.inverse_powers``), read from l, not from e.  The
exponential expansion prod_j Q(a_j z) = sum_mu q_mu p_mu(a) z^|mu| / aut(mu)
over partitions mu, with power sums p_k(a) = sum_j a_j^k and aut(mu) the
product of the factorials of the part multiplicities, is what
``gkm.integrate`` sums for every class (and ``flag.artin_pairing`` for the
flag variety's x-monomials); ``weight_factors`` holds the weights
q_mu / aut(mu) in factored form.
"""

from __future__ import annotations

import math
from fractions import Fraction

from torcob.coeff import GradedCoeff, inverse_powers, partitions
from torcob.errors import TooLarge, TruncationInsufficient
from torcob.series import TruncSeries

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"
UNIVERSAL = "universal"
CUSTOM = "custom"

# Contexts are refused above this truncation (``fgl print --deg 24``: 5 s on 2 cores, most of it F).
MAX_DEG = 24


class FGLContext:
    """Context holding l, e and, once read, rho and F at fixed truncations.

    Immutable in everything it exposes, but n-series (rho among them) are
    cached in ``_nser``, F in ``_F`` and weight factors in ``_weights`` on
    first use, without a lock.  Each value depends only on its key, so
    threads sharing a context get the same answers; two threads racing on one
    entry both compute it and store equal values.
    """

    def __init__(self, coeff_degree, degree, specialization=None):
        if coeff_degree < 0 or degree < 1:
            raise ValueError("need coeff_degree >= 0 and degree >= 1")
        if degree > MAX_DEG:
            raise TooLarge(f"truncation degree {degree} is above the limit {MAX_DEG}")
        self.Dc = coeff_degree
        self.D = degree
        self.specialization = _normalize_spec(specialization)
        self.log = self._build_log()
        self.exp = self.log.compositional_inverse()
        if self.exp.substitute({"u": self.log}) != _uvar(self.D):
            raise ArithmeticError("exponential fails e(l(u)) = u")
        self._F = None
        self._nser = {0: TruncSeries.zero(("u",), self.D), 1: _uvar(self.D)}
        self._weights = {}

    # -- construction -------------------------------------------------------

    def _log_coeff(self, i):
        if self.specialization is None:
            return GradedCoeff.generator(i) if i <= self.Dc else GradedCoeff.zero()
        return GradedCoeff.from_rational(spec_value(self.specialization, i))

    def _build_log(self):
        coeffs = {(1,): GradedCoeff.one()}
        for i in range(1, self.D):
            c = self._log_coeff(i)
            if not c.is_zero():
                coeffs[(i + 1,)] = c
        return TruncSeries(("u",), coeffs, self.D)

    @property
    def rho(self) -> TruncSeries:
        """The formal inverse rho(u) = e(-l(u)) = [-1]u, built on first read."""
        return self.n_series(-1)

    @property
    def F(self) -> TruncSeries:
        """F(u, v) = e(l(u) + l(v)), built on first use."""
        if self._F is None:
            uv = ("u", "v")
            lu = self.log.substitute({"u": TruncSeries.variable(uv, "u", self.D)})
            lv = self.log.substitute({"u": TruncSeries.variable(uv, "v", self.D)})
            self._F = self.exp.substitute({"u": lu + lv})
        return self._F

    @property
    def is_specialized(self) -> bool:
        return self.specialization is not None

    def spec_value(self, i: int) -> Fraction:
        """Rational value of m_i under the specialization (see ``spec_value``)."""
        return spec_value(self.specialization, i)

    # -- operations ----------------------------------------------------------

    def a_coeff(self, i: int, j: int) -> GradedCoeff:
        """Coefficient of u^i v^j in F; homogeneous of degree 1 - i - j."""
        if i + j > self.D:
            raise TruncationInsufficient(f"a[{i},{j}] beyond truncation {self.D}")
        return self.F.coefficient((i, j))

    def n_series(self, n: int) -> TruncSeries:
        """The n-series [n]u = e(n l(u)), any integer n."""
        out = self._nser.get(n)
        if out is None:
            out = self.exp.substitute({"u": self.log.scale(n)})
            self._nser[n] = out
        return out

    def weight_factors(self, dim: int) -> tuple:
        """(den, factors): the weights q_mu / aut(mu) of the partitions of size <= dim.

        ``factors`` maps each partition of ``partitions(dim)``, in that order,
        to the integer polynomial den^p * q_p / j as an {m-exponents: int}
        map, where p is its last part and j the multiplicity of p; the empty
        partition maps to 1.  The weight of mu is the product of the factors
        of mu and of its nonempty prefixes, over den^|mu|.  Reads l through
        degree dim + 1, so the weights respect Dc and the specialization;
        cached per dim.
        """
        out = self._weights.get(dim)
        if out is None:
            if dim + 1 > self.D:
                raise TruncationInsufficient(f"weights of degree {dim} need truncation {dim + 1}")
            # q_k = -[u^k] (1 + M)^-k / k, with l(u) = u (1 + M(u))
            p = inverse_powers({k - 1: c.terms for (k,), c in self.log.coeffs.items()}, dim, 0)
            rational = {
                mu: GradedCoeff(p[mu[-1]]).scale(Fraction(-1, mu[-1] * mu.count(mu[-1])))
                for mu in partitions(dim) if mu
            }
            den = math.lcm(*(c.denominator for f in rational.values() for c in f.terms.values()))
            factors = {(): {(): 1}}
            for mu, f in rational.items():
                factors[mu] = {m: int(c * den ** mu[-1]) for m, c in f.terms.items()}
            out = self._weights[dim] = (den, factors)
        return out

    def formal_sum(self, summands) -> TruncSeries:
        """Left fold of F over the list; summands need zero constant term."""
        summands = list(summands)
        if not summands:
            raise ValueError("empty formal sum")
        acc = summands[0]
        if not acc.constant_term().is_zero():
            raise ValueError("formal summand has nonzero constant term")
        for s in summands[1:]:
            if not s.constant_term().is_zero():
                raise ValueError("formal summand has nonzero constant term")
            acc = self.F.substitute({"u": acc, "v": s})
        return acc

    def plus(self, a: TruncSeries, b: TruncSeries) -> TruncSeries:
        """a +_F b."""
        return self.F.substitute({"u": a, "v": b})


def _uvar(guarantee):
    return TruncSeries.variable(("u",), "u", guarantee)


def _normalize_spec(spec):
    """None, (ADDITIVE,), (MULTIPLICATIVE, beta) or ("custom", {i: q}).

    Idempotent, so a context can be rebuilt from its ``specialization``.
    """
    if spec is None or spec == UNIVERSAL:
        return None
    if spec in (ADDITIVE, (ADDITIVE,)):
        return (ADDITIVE,)
    if isinstance(spec, tuple) and spec and spec[0] == MULTIPLICATIVE:
        return (MULTIPLICATIVE, Fraction(spec[1]))
    if isinstance(spec, tuple) and len(spec) == 2 and spec[0] == CUSTOM:
        spec = spec[1]
    if isinstance(spec, dict):
        return (CUSTOM, {int(i): Fraction(v) for i, v in spec.items()})
    raise ValueError(f"unknown specialization {spec!r}")


def spec_value(spec, i: int) -> Fraction:
    """Rational value of m_i under a normalized specialization, with no context built.

    ``spec`` is in the form of ``FGLContext.specialization``; the universal
    law (None) gives 0, the rational part of m_i.
    """
    if spec is None or spec[0] == ADDITIVE:
        return Fraction(0)
    if spec[0] == MULTIPLICATIVE:
        return spec[1] ** i / (i + 1)
    return spec[1].get(i, Fraction(0))


def build(coeff_degree: int, degree: int, specialization=None) -> FGLContext:
    return FGLContext(coeff_degree, degree, specialization)
