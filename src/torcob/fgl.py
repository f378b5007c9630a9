"""The universal formal group law over the rationalized Lazard ring.

Everything is generated from the logarithm l(u) = u + sum m_i u^(i+1): the
exponential is its compositional inverse, F(u, v) = e(l(u) + l(v)), the
formal inverse rho solves F(u, rho(u)) = 0, and [n]u is the n-fold formal
sum.  Specializing every m_i to a rational gives the additive law (all zero)
or the multiplicative law (m_i = beta^i / (i+1)).

The inverse series rho is computed degree by degree from F(u, rho) = 0 and
cross-checked against e(-l(u)); the redundancy is a built-in oracle.
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
    """Context holding l, e, F, rho at fixed truncations.

    Immutable in everything it exposes, but n-series are cached in ``_nser``
    on first use, without a lock.  An entry's value depends only on its key,
    so threads sharing a context get the same answers; two threads racing on
    one entry both compute it and store equal values.
    """

    def __init__(self, coeff_degree, degree, specialization=None):
        if coeff_degree < 0 or degree < 1:
            raise ValueError("need coeff_degree >= 0 and degree >= 1")
        self.Dc = coeff_degree
        self.D = degree
        self.specialization = _normalize_spec(specialization)
        self.log = self._build_log()
        self.exp = self.log.compositional_inverse()
        self.F = self._build_F()
        self.rho = self._build_rho()
        self._nser = {0: TruncSeries.zero(("u",), self.D), 1: _uvar(self.D)}

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

    def _build_F(self):
        u = TruncSeries.variable(("u", "v"), "u", self.D)
        v = TruncSeries.variable(("u", "v"), "v", self.D)
        lu = self.log.substitute({"u": u})
        lv = self.log.substitute({"u": v})
        return self.exp.substitute({"u": lu + lv})

    def _build_rho(self):
        # degree-wise solve of F(u, rho) = 0; the linear part of F in v is 1
        u = _uvar(self.D)
        rho = {(1,): GradedCoeff.from_rational(-1)}
        for k in range(2, self.D + 1):
            partial = TruncSeries(("u",), rho, self.D)
            val = self.F.substitute({"u": u, "v": partial})
            ck = val.coefficient((k,))
            if not ck.is_zero():
                rho[(k,)] = -ck
        out = TruncSeries(("u",), rho, self.D)
        check = self.exp.substitute({"u": -self.log})
        if out != check:
            raise ArithmeticError("formal inverse disagrees with e(-l(u))")
        return out

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
        """The n-series [n]u, any integer n."""
        if n in self._nser:
            return self._nser[n]
        if n > 1:
            prev = self.n_series(n - 1)
            out = self.F.substitute({"u": prev, "v": _uvar(self.D)})
        else:
            pos = self.n_series(-n)
            out = pos.substitute({"u": self.rho})
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


def _uvar(bound):
    return TruncSeries.variable(("u",), "u", bound)


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
