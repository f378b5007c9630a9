"""The one-variable residue route of Bott integration, kept as a test oracle.

A class is restricted along t_i -> [lambda_i](u), and each vertex value is
divided by the unit U_v(u) = e_v(u) / u^dim, a product of the units
([k](u)/u)^-d.  The integral is the coefficient of u^dim of the sum over the
vertices, certified by the vanishing of every coefficient below it.  This
route forms series and shares no step with ``gkm.integrate``'s sum in the
logarithmic coordinate beyond the cocharacter; ``two_routes`` is the
dispatch that ``integrate`` had while it kept both, the logarithmic route
for constant classes and this one for every other class.
"""

import weakref
from collections import Counter

from torcob import gkm
from torcob.coeff import GradedCoeff
from torcob.errors import NotDivisible
from torcob.kernels import pack
from torcob.series import TruncSeries, _series

_UNITS = weakref.WeakKeyDictionary()  # context -> {(m, d): ([m]u / u)^(-d)}


def _unit_inverse_power(ctx, m: int, d: int) -> TruncSeries:
    """([m]u / u)^(-d) as a one-variable series, exact through u^(D-1).

    [m](u) is exact through u^D, so [m](u) / u only through u^(D-1).
    Cached per context.
    """
    cache = _UNITS.setdefault(ctx, {})
    out = cache.get((m, d))
    if out is None:
        nser = ctx.fgl.n_series(m)
        unit = {(k - 1,): c for (k,), c in nser.num.items()}
        out = cache[(m, d)] = _series(("u",), unit, nser.den, nser.guarantee - 1).invert_unit() ** d
    return out


def _along(ctx, lam) -> dict:
    """The restriction t_i -> [lambda_i](u) to the one-parameter subgroup lambda."""
    return {t: ctx.fgl.n_series(x) for t, x in zip(ctx.vars, lam)}


def _over_unit(ctx, g, v, lam, value: TruncSeries, assignment) -> TruncSeries:
    """value(u) / U_v(u) through u^dim, where ``assignment`` restricts value to u.

    Here e_v(u) = prod_chi [<chi, lambda>](u) = u^dim * U_v(u).  Every pairing
    must be nonzero and the guarantees must reach dim.
    """
    term = value.truncated(g.dim).substitute(assignment)
    for k, d in Counter(gkm._pairing(chi, lam) for _, chi in g.incident(v)).items():
        term = term * _unit_inverse_power(ctx, k, d)
    return term


def _top_coefficient(total: TruncSeries, dim: int) -> GradedCoeff:
    """The coefficient of u^dim of a residue sum, certified by the vanishing below it."""
    if any(k < dim for (k,) in total.num):
        raise NotDivisible(gkm._NOT_DIVISIBLE)
    return total.coefficient((dim,))


def _residue_along(ctx, g, alpha, lam) -> TruncSeries:
    """sum_v alpha_v(u) / U_v(u) through u^dim, restricted along lambda."""
    restrict = _along(ctx, lam)
    total = TruncSeries.zero(("u",), g.dim)
    for v in g.vertices:
        total = total + _over_unit(ctx, g, v, lam, alpha.values[v], restrict)
    return total


def residues(ctx, g, alpha) -> GradedCoeff:
    """The integral of alpha by residues along the graph's cocharacter."""
    return _top_coefficient(_residue_along(ctx, g, alpha, g.cocharacter), g.dim)


def _constant_value(alpha):
    """The coefficient c when every vertex value is the same t-constant c, else None."""
    values = iter(alpha.values.values())
    first = next(values)
    if any(sum(t) for t in first.num):
        return None
    if any(s.den != first.den or s.num != first.num for s in values):
        return None
    return first.constant_term()


def _fundamental_class(ctx, g) -> GradedCoeff:
    """[X] = R_dim in the logarithmic coordinate; NotDivisible unless R_k = 0 for k < dim."""
    terms = [(v, (0,) * g.rank, 1) for v in g.vertices]
    num, den = gkm._log_integral(ctx.fgl, g, {(0, pack(())): terms})
    return GradedCoeff.from_numerators(num, den)


def two_routes(ctx, g, alpha) -> GradedCoeff:
    """c [X] for a class with the one t-constant value c everywhere, else ``residues``."""
    c = _constant_value(alpha)
    if c is None:
        return residues(ctx, g, alpha)
    if c.is_zero():
        return c  # as the residue route: a zero sum has no term below u^dim to refuse
    return c * _fundamental_class(ctx, g)
