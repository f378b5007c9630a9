"""The universal formal group law over the rationalized Lazard ring.

Everything is generated from the logarithm l(u) = u + sum m_i u^(i+1): the
exponential is its compositional inverse, F(u, v) = e(l(u) + l(v)), and
[n]u = e(n l(u)) for every integer n, one composition each.  Specializing
every m_i to a rational gives the additive law (all zero) or the
multiplicative law (m_i = beta^i / (i+1)).

The formal inverse is rho(u) = e(-l(u)): since F(u, v) = e(l(u) + l(v)),
this is the equation F(u, rho) = 0.  It is checked on construction by a
second composition, l(rho(u)) = -l(u) through the truncation; a failure
raises ArithmeticError.  The bivariate F is built only when something reads
it (``F``, ``a_coeff``, ``plus``, ``formal_sum``).
"""

from __future__ import annotations

from fractions import Fraction

from torcob.coeff import GradedCoeff
from torcob.errors import TruncationInsufficient
from torcob.series import TruncSeries

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"
UNIVERSAL = "universal"
CUSTOM = "custom"


class FGLContext:
    """Context holding l, e, rho and, once read, F at fixed truncations.

    Immutable in everything it exposes, but n-series are cached in ``_nser``
    and F in ``_F`` on first use, without a lock.  Each value depends only on
    its key, so threads sharing a context get the same answers; two threads
    racing on one entry both compute it and store equal values.
    """

    def __init__(self, coeff_degree, degree, specialization=None):
        if coeff_degree < 0 or degree < 1:
            raise ValueError("need coeff_degree >= 0 and degree >= 1")
        self.Dc = coeff_degree
        self.D = degree
        self.specialization = _normalize_spec(specialization)
        self.log = self._build_log()
        self.exp = self.log.compositional_inverse()
        self.rho = self._build_rho()
        self._F = None
        self._nser = {0: TruncSeries.zero(("u",), self.D), 1: _uvar(self.D), -1: self.rho}

    # -- construction -------------------------------------------------------

    def _log_coeff(self, i):
        spec = self.specialization
        if spec is None:
            return GradedCoeff.generator(i) if i <= self.Dc else GradedCoeff.zero()
        kind = spec[0]
        if kind == ADDITIVE:
            return GradedCoeff.zero()
        if kind == MULTIPLICATIVE:
            beta = spec[1]
            return GradedCoeff.from_rational(beta ** i / (i + 1))
        return GradedCoeff.from_rational(spec[1].get(i, Fraction(0)))

    def _build_log(self):
        coeffs = {(1,): GradedCoeff.one()}
        for i in range(1, self.D):
            c = self._log_coeff(i)
            if not c.is_zero():
                coeffs[(i + 1,)] = c
        return TruncSeries(("u",), coeffs, self.D)

    def _build_rho(self):
        rho = self.exp.substitute({"u": -self.log})
        if self.log.substitute({"u": rho}) != -self.log:
            raise ArithmeticError("formal inverse fails l(rho(u)) = -l(u)")
        return rho

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
        """Rational value of m_i under the specialization."""
        c = self._log_coeff(i)
        return c.rational_part()

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


def build(coeff_degree: int, degree: int, specialization=None) -> FGLContext:
    return FGLContext(coeff_degree, degree, specialization)
