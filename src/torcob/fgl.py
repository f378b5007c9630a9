"""The universal formal group law over the rationalized Lazard ring.

Everything is generated from the logarithm l(u) = u (1 + M(u)), with
M(u) = sum m_i u^i.  The exponential e is its compositional inverse, by
Lagrange inversion (Stanley, EC2 5.4): [x^(n+1)] e = [u^n] (1 + M)^-(n+1)
/ (n+1), one sum over the partitions of n and no series product
(``TruncSeries.compositional_inverse``).  Then F(u, v) = e(l(u) + l(v)) and
[n]u = e(n l(u)) for every integer n, one composition each.  Specializing
every m_i to a rational gives the additive law (all zero) or the
multiplicative law (m_i = beta^i / (i+1)).

The exponential is built on first read and checked then by one
composition, e(l(u)) = u through the truncation; a failure raises
ArithmeticError, on that read and on every later one.
Truncated series with linear term 1 form a group under composition, so
this is the same condition as l(e(x)) = x, and as l(rho(u)) = -l(u) for
the formal inverse rho(u) = e(-l(u)) = [-1]u (put x = -l(u)).  Since
F(u, v) = e(l(u) + l(v)), rho is the solution of F(u, rho) = 0.  Neither
e, rho nor the bivariate F is built until something reads it: e is read by
``exp`` and every n-series, rho is the n-series at -1 (``rho``,
``n_series``), F is built by ``F``, ``a_coeff`` and ``plus``.  Integration
in ``gkm`` and the Artin pairing in ``flag`` read only l, through
``weight_factors``.

The characteristic series of the law is Q(x) = x / e(x) (Hirzebruch), a
unit written exp(sum_k q_k x^k) with q_k in Q[m] of weight k.  Since
e(x) / x = 1 / (1 + M(e(x))), the Lagrange-Burmann formula for logarithms
gives q_k = -[u^k] (1 + M)^-k / k: the same partition sum as e's
(``coeff.inverse_powers``), read from l, not from e.  Both sums run on
l's integer numerators over its one denominator d, built as a table with
no ``GradedCoeff``: ``inverse_powers`` returns integer maps P_k with
[u^k] (1 + M)^-N = P_k / d^k, so e and the weights are written as
numerator tables with no ``Fraction`` per term.  The
exponential expansion prod_j Q(a_j z) = sum_mu q_mu p_mu(a) z^|mu| / aut(mu)
over partitions mu, with power sums p_k(a) = sum_j a_j^k and aut(mu) the
product of the factorials of the part multiplicities, is what
``gkm.integrate`` sums for every class (and ``flag.artin_pairing`` for the
flag variety's x-monomials); ``weight_factors`` holds the weights
q_mu / aut(mu) in factored form.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from torcob.coeff import GradedCoeff, inverse_powers, partitions
from torcob.errors import TooLarge, TruncationInsufficient
from torcob.kernels import generator
from torcob.series import TruncSeries, _series

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"
UNIVERSAL = "universal"
CUSTOM = "custom"

# Contexts are refused above this truncation (``fgl print --deg 24``: 5 s on 2 cores, most of it F).
MAX_DEG = 24


class FGLContext:
    """Context holding l and, once read, e, rho and F at fixed truncations.

    Immutable in everything it exposes, but values are kept on first use:
    e and F as ``functools.cached_property`` values, n-series (rho among
    them) in ``_nser``, weight factors in ``_weights`` and their live
    partitions in ``_live``, the last three without a lock.  Each value
    depends only on its key, so threads sharing a context get the same
    answers; two threads racing on one entry both compute it and store
    equal values (for e and F from Python 3.12, which dropped the lock
    that 3.11 holds around the first computation).
    """

    def __init__(self, coeff_degree, degree, specialization=None):
        if coeff_degree < 0 or degree < 1:
            raise ValueError("need coeff_degree >= 0 and degree >= 1")
        if degree > MAX_DEG:
            raise TooLarge(f"truncation degree {degree} is above the limit {MAX_DEG}")
        self.Dc = coeff_degree
        self.D = degree
        self.specialization = normalize_spec(specialization)
        self.log = self._build_log()
        self._nser = {0: TruncSeries.zero(("u",), self.D), 1: _uvar(self.D)}
        self._weights = {}
        self._live = {}

    # -- construction -------------------------------------------------------

    def _build_log(self):
        """l(u) = u + sum_i c_i u^(i+1), written as its numerator table: the
        universal law's c_i = m_i (i <= Dc) over 1, a specialization's
        rationals over the lcm of their denominators."""
        if self.specialization is None:
            num = {(1,): {0: 1}}
            for i in range(1, min(self.Dc, self.D - 1) + 1):
                num[(i + 1,)] = {generator(i): 1}
            return _series(("u",), num, 1, self.D)
        values = [spec_value(self.specialization, i) for i in range(1, self.D)]
        den = math.lcm(*(q.denominator for q in values))
        num = {(1,): {0: den}}
        for i, q in enumerate(values, 1):
            if q:
                num[(i + 1,)] = {0: q.numerator * (den // q.denominator)}
        return _series(("u",), num, den, self.D)

    @functools.cached_property
    def exp(self) -> TruncSeries:
        """The exponential e, the compositional inverse of l, built and checked on first read."""
        e = self.log.compositional_inverse()
        if e.substitute({"u": self.log}) != _uvar(self.D):
            raise ArithmeticError("exponential fails e(l(u)) = u")
        return e

    @property
    def rho(self) -> TruncSeries:
        """The formal inverse rho(u) = e(-l(u)) = [-1]u, built on first read."""
        return self.n_series(-1)

    @functools.cached_property
    def F(self) -> TruncSeries:
        """F(u, v) = e(l(u) + l(v)), built on first use."""
        uv = ("u", "v")
        lu = self.log.substitute({"u": TruncSeries.variable(uv, "u", self.D)})
        lv = self.log.substitute({"u": TruncSeries.variable(uv, "v", self.D)})
        return self.exp.substitute({"u": lu + lv})

    @property
    def is_specialized(self) -> bool:
        return self.specialization is not None

    def spec_value(self, i: int) -> Fraction:
        """Rational value of m_i under the specialization (see ``spec_value``)."""
        return spec_value(self.specialization, i)

    # -- operations ----------------------------------------------------------

    def a_coeff(self, i: int, j: int) -> GradedCoeff:
        """Coefficient of u^i v^j in F; homogeneous of degree 1 - i - j."""
        if i < 0 or j < 0:
            raise ValueError(f"a[{i},{j}] has a negative index")
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
        to the integer polynomial den^p * q_p / j as an {m-key: int} map
        (packed keys, as in ``kernels``), where p is its last part and j the
        multiplicity of p; the empty partition maps to 1.  The weight of mu
        is the product of the factors of mu and of its nonempty prefixes,
        over den^|mu|, and den is the lcm of the denominators of the q_p / j.
        The factor of mu depends only on (p, j) and is one map shared by
        those mu.  Reads l through degree dim + 1, so the weights respect Dc
        and the specialization; cached per dim.
        """
        out = self._weights.get(dim)
        if out is None:
            if dim + 1 > self.D:
                raise TruncationInsufficient(f"weights of degree {dim} need truncation {dim + 1}")
            # q_p / j = -P_p / (d^p p j), with l(u) = u (1 + M(u)) over d = den(l);
            # each map goes over its least denominator, and den is their lcm
            d = self.log.den
            M = {k - 1: c for (k,), c in self.log.num.items()}
            P = inverse_powers(M, d, dim, 0)
            reduced = {}
            for p in range(1, dim + 1):
                for j in range(1, dim // p + 1):
                    q = d ** p * p * j
                    g = math.gcd(q, *P[p].values())
                    reduced[p, j] = ({m: -x // g for m, x in P[p].items()}, q // g)
            den = math.lcm(*(q for _, q in reduced.values()))
            by_part = {pj: {m: x * (den ** pj[0] // q) for m, x in c.items()}
                       for pj, (c, q) in reduced.items()}
            factors = {(): {0: 1}}
            for mu in partitions(dim)[1:]:
                factors[mu] = by_part[mu[-1], mu.count(mu[-1])]
            out = self._weights[dim] = (den, factors)
        return out

    def live_partitions(self, dim: int, k: int) -> list:
        """The partitions mu with |mu| <= k of ``weight_factors(dim)``, in its
        order, whose factor and every prefix's factor are nonzero.

        The others have zero weight, and so do their extensions, so the
        integral's partition walk skips them; under the additive law only the
        empty partition is left.  Cached per (dim, k).
        """
        out = self._live.get((dim, k))
        if out is None:
            if k == dim:
                _, factors = self.weight_factors(dim)
                out, live = [], set()
                for mu in factors:
                    if not mu or (factors[mu] and mu[:-1] in live):
                        live.add(mu)
                        out.append(mu)
            else:
                out = [mu for mu in self.live_partitions(dim, dim) if sum(mu) <= k]
            self._live[(dim, k)] = out
        return out

    def plus(self, a: TruncSeries, b: TruncSeries) -> TruncSeries:
        """a +_F b."""
        return self.F.substitute({"u": a, "v": b})


def _uvar(guarantee):
    return TruncSeries.variable(("u",), "u", guarantee)


def normalize_spec(spec):
    """None, (ADDITIVE,), (MULTIPLICATIVE, beta) or ("custom", {i: q}).

    Reads the normalized forms and the command line's ``--spec`` text:
    "universal", "additive", "multiplicative" (beta = 1) and
    "multiplicative:BETA" with BETA a rational.  Idempotent, so a context
    can be rebuilt from its ``specialization``.  Anything else is a
    ValueError.
    """
    if spec is None or spec == UNIVERSAL:
        return None
    if spec in (ADDITIVE, (ADDITIVE,)):
        return (ADDITIVE,)
    if spec == MULTIPLICATIVE:
        return (MULTIPLICATIVE, Fraction(1))
    if isinstance(spec, str) and spec.startswith(MULTIPLICATIVE + ":"):
        try:
            return (MULTIPLICATIVE, Fraction(spec.split(":", 1)[1]))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad multiplicative parameter in {spec!r}") from exc
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
