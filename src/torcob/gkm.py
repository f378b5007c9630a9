"""Moment graphs: fixed points, character-labelled curves, and piecewise classes.

A graph stores one character per edge, the tangent character at the first
vertex (the second sees its negative); every vertex must have the same
valence with pairwise non-proportional characters, matching smooth varieties
with isolated fixed points and finitely many invariant curves.

A piecewise class assigns a series to each fixed point; it is an honest
equivariant class when every edge difference is divisible by the Chern class
of the edge character.

Integration runs the fixed-point residue sum along a generic one-parameter
subgroup (Ellingsrud-Stromme): pick a cocharacter lambda pairing nonzero
with every edge character and restrict along t_i -> [lambda_i](u).  The
Euler class at v becomes u^dim times a unit U_v(u), a product of
[k](u)/u, so the integral is the coefficient of u^dim in the one-variable
series sum_v alpha_v(u) / U_v(u); the coefficients below u^dim must vanish,
which certifies the sum.  Only series through u^dim are needed, so the
truncation demand is the dimension plus one.

A class whose vertex values are all one t-constant c is c times the
fundamental class [X], which is summed in the logarithmic coordinate
z = l(u) instead.  There [a](u) = e(a z), so with the characteristic
series Q(x) = x / e(x) = exp(sum q_k x^k) of the law (see ``fgl``) and
a_vj = <chi_j, lambda> over the tangent characters at v,

    sum_v u^dim / e_v(u) = (u/z)^dim * sum_k R_k z^k,
    R_k = sum_(|mu| = k) q_mu N_mu / aut(mu),
    N_mu = sum_v p_mu(a_v) / prod_j a_vj,

with p_mu the power sums.  Each N_mu is a rational number (a power-sum
Chern number by Atiyah-Bott at the integer point lambda), so Q[m] is
touched once per partition, not once per vertex.  Since u/z is a unit
with constant term 1 and z = u + O(u^2), the residue sum has no term below
u^dim exactly when R_k = 0 for every k < dim, and then [X] = R_dim: the
same certificate and the same answer as the residue sum.

The same sum integrates a class whose value at each vertex v is one
t-monomial t^(e_v), all of one degree d (``_log_integral``): t_i restricts
to e(lambda_i z) = lambda_i z / Q(lambda_i z), which folds into the
exponential beside the Euler class, so the integral is R_(dim - d) with
p_mu(a_v) replaced by products of s_r(v) = p_r(a_v) - sum_i e_vi lambda_i^r
and each vertex weighted by lambda^(e_v).  ``flag.artin_pairing`` pairs
x-polynomials this way, with no series formed.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from fractions import Fraction

from torcob.coeff import GradedCoeff
from torcob.errors import (
    Ambiguous,
    GraphInvalid,
    NoSolution,
    NotAClass,
    NotDivisible,
    TooLarge,
    TruncationInsufficient,
)
from torcob.kernels import mul_acc
from torcob.linalg import INCONSISTENT, UNDERDETERMINED, solve
from torcob.linalg import rank as matrix_rank
from torcob.series import TruncSeries
from torcob.torus import TorusContext, content, proportional


class GKMGraph:
    """rank, common valence dim, vertex ids, and signed edges.

    The edges are fixed at construction, so the generic cocharacter and the
    tangent power sums they determine are computed once, on first use, and
    kept; threads racing on that first use both compute them and store equal
    values.
    """

    def __init__(self, rank, dim, vertices, edges):
        self.rank = rank
        self.dim = dim
        self.vertices = list(vertices)
        self.edges = [(v, w, tuple(chi)) for v, w, chi in edges]
        self._incident = {v: [] for v in self.vertices}
        for v, w, chi in self.edges:
            self._incident[v].append((w, chi))
            self._incident[w].append((v, tuple(-x for x in chi)))
        self._cocharacter = None
        self._moments = None

    @property
    def cocharacter(self) -> tuple:
        """The generic cocharacter of ``_generic_cocharacter``, kept after first use."""
        if self._cocharacter is None:
            self._cocharacter = _generic_cocharacter(self)
        return self._cocharacter

    @property
    def moments(self) -> tuple:
        """The tangent power sums of ``_tangent_moments``, kept after first use."""
        if self._moments is None:
            self._moments = _tangent_moments(self)
        return self._moments

    def incident(self, v):
        """(other vertex, tangent character at v) pairs."""
        return self._incident[v]

    def validate(self):
        """List of violation messages; empty means the graph is valid."""
        problems = []
        for v, w, chi in self.edges:
            if v not in self._incident or w not in self._incident:
                problems.append(f"edge ({v},{w}) references an unknown vertex")
            if content(chi) == 0:
                problems.append(f"edge ({v},{w}) has the zero character")
        for v in self.vertices:
            inc = self._incident[v]
            if len(inc) != self.dim:
                problems.append(f"vertex {v} has valence {len(inc)}, expected {self.dim}")
            for (_, chi_a), (_, chi_b) in itertools.combinations(inc, 2):
                if content(chi_a) and content(chi_b) and proportional(chi_a, chi_b):
                    problems.append(
                        f"vertex {v} has proportional edge characters {chi_a} and {chi_b}"
                    )
        return problems

    def require_valid(self):
        problems = self.validate()
        if problems:
            raise GraphInvalid("; ".join(problems))

    def to_json(self):
        return {
            "rank": self.rank,
            "dim": self.dim,
            "vertices": list(self.vertices),
            "edges": [{"v": v, "w": w, "char": list(chi)} for v, w, chi in self.edges],
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            int(obj["rank"]),
            int(obj["dim"]),
            [str(v) for v in obj["vertices"]],
            [(str(e["v"]), str(e["w"]), tuple(int(x) for x in e["char"])) for e in obj["edges"]],
        )


class PiecewiseClass:
    """Tuple of series indexed by the fixed points, sharing variables."""

    def __init__(self, values):
        self.values = dict(values)
        its = list(self.values.values())
        for s in its[1:]:
            if s.vars != its[0].vars:
                raise ValueError("components disagree on variables")

    @property
    def guarantee(self):
        return min(s.guarantee for s in self.values.values())

    def restrict(self, v) -> TruncSeries:
        return self.values[v]

    def __add__(self, other):
        return PiecewiseClass({v: s + other.values[v] for v, s in self.values.items()})

    def __sub__(self, other):
        return PiecewiseClass({v: s - other.values[v] for v, s in self.values.items()})

    def __mul__(self, other):
        return PiecewiseClass({v: s * other.values[v] for v, s in self.values.items()})

    def mul_coeff(self, c):
        return PiecewiseClass({v: s.mul_coeff(c) for v, s in self.values.items()})

    def mul_series(self, f):
        return PiecewiseClass({v: s * f for v, s in self.values.items()})

    def __eq__(self, other):
        if not isinstance(other, PiecewiseClass):
            return NotImplemented
        return self.values == other.values

    def is_zero(self):
        return all(s.is_zero() for s in self.values.values())


def constant_class(ctx: TorusContext, g: GKMGraph, value) -> PiecewiseClass:
    return PiecewiseClass({v: ctx.constant(value) for v in g.vertices})


def is_class(ctx: TorusContext, g: GKMGraph, alpha: PiecewiseClass) -> bool:
    """Edge congruence test: alpha_v - alpha_w divisible by c(chi) throughout."""
    if alpha.guarantee < 1:
        raise TruncationInsufficient("guarantee below 1 cannot see any congruence")
    for v, w, chi in g.edges:
        a, b = alpha.values[v], alpha.values[w]
        if a == b:
            continue
        diff = a - b
        if diff.is_zero():
            continue
        if not ctx.chern_divides(diff, chi, 1):
            return False
    return True


def euler_class(ctx: TorusContext, g: GKMGraph, v) -> TruncSeries:
    """Product of the tangent Chern classes at v (top Chern class of T_v X)."""
    out = ctx.one()
    for _, chi in g.incident(v):
        out = out * ctx.character_series(chi)
    return out


def pushforward_point(ctx: TorusContext, g: GKMGraph, v, s: TruncSeries) -> PiecewiseClass:
    """Class supported at v with value s times the Euler class there."""
    values = {w: ctx.zero() for w in g.vertices}
    values[v] = s * euler_class(ctx, g, v)
    return PiecewiseClass(values)


def required_guarantee(g: GKMGraph, alpha: PiecewiseClass) -> int:
    """Up-front truncation demand of ``integrate``: the dimension plus one.

    The residue sum reads its series through u^dim, and the unit [k](u)/u is
    exact one degree below the truncation; the logarithmic route of
    fundamental classes reads l through degree dim + 1.  The demand does not
    depend on the class; ``alpha`` is accepted so that callers can pass the
    one they are about to integrate.
    """
    return g.dim + 1


def _generic_cocharacter(g: GKMGraph) -> tuple:
    """Smallest lambda with <chi, lambda> != 0 on every edge character.

    Smallest by max-norm, then lexicographically with the entries ordered
    0, 1, -1, 2, -2, ...; a depth-first search tests each character as soon
    as its last nonzero entry is assigned.
    """
    checks = [[] for _ in range(g.rank)]
    for chi in {chi for _, _, chi in g.edges}:
        checks[max(i for i, x in enumerate(chi) if x)].append(chi)

    def search(lam, values):
        if len(lam) == g.rank:
            return tuple(lam)
        for x in values:
            lam.append(x)
            if all(_pairing(chi, lam) for chi in checks[len(lam) - 1]):
                found = search(lam, values)
                if found:
                    return found
            lam.pop()
        return None

    radius = 0
    while True:
        values = [0] + [s * k for k in range(1, radius + 1) for s in (1, -1)]
        found = search([], values)
        if found:
            return found
        radius += 1


def _pairing(chi, lam) -> int:
    return sum(map(operator.mul, chi, lam))


def _along(ctx: TorusContext, lam) -> dict:
    """The restriction t_i -> [lambda_i](u) to the one-parameter subgroup lambda."""
    return {t: ctx.fgl.n_series(x) for t, x in zip(ctx.vars, lam)}


def _over_unit(ctx: TorusContext, g: GKMGraph, v, lam, value: TruncSeries, assignment) -> TruncSeries:
    """value(u) / U_v(u) through u^dim, where ``assignment`` restricts value to u.

    Here e_v(u) = prod_chi [<chi, lambda>](u) = u^dim * U_v(u).  Every pairing
    must be nonzero and the guarantees must reach dim.
    """
    term = value.truncated(g.dim).substitute(assignment)
    for k, d in Counter(_pairing(chi, lam) for _, chi in g.incident(v)).items():
        term = term * ctx._unit_inverse_power(k, d)
    return term


_NOT_DIVISIBLE = "residue sum not divisible; class condition or guarantee violated"


def _top_coefficient(total: TruncSeries, dim: int) -> GradedCoeff:
    """The coefficient of u^dim of a residue sum, certified by the vanishing below it."""
    if any(k < dim for (k,) in total.num):
        raise NotDivisible(_NOT_DIVISIBLE)
    return total.coefficient((dim,))


def _residue_along(ctx: TorusContext, g: GKMGraph, alpha: PiecewiseClass, lam) -> TruncSeries:
    """sum_v alpha_v(u) / U_v(u) through u^dim, restricted along lambda."""
    restrict = _along(ctx, lam)
    total = TruncSeries.zero(("u",), g.dim)
    for v in g.vertices:
        total = total + _over_unit(ctx, g, v, lam, alpha.values[v], restrict)
    return total


def _constant_value(alpha: PiecewiseClass):
    """The coefficient c when every vertex value is the same t-constant c, else None."""
    values = iter(alpha.values.values())
    first = next(values)
    if any(sum(t) for t in first.num):
        return None
    if any(s.den != first.den or s.num != first.num for s in values):
        return None
    return first.constant_term()


def _tangent_moments(g: GKMGraph) -> tuple:
    """(den, rows, row_of): the tangent pairings as power sums over one denominator.

    With a_vj = <chi_j, lambda> the pairings of the tangent characters at v
    with the graph's cocharacter, vertex v has the row ``rows[row_of[v]]``,
    (den / prod_j a_vj, (p_1(a_v), ..., p_dim(a_v))), and den is the lcm of
    the |prod_j a_vj|.  Vertices with the same pairings share one row.
    """
    lam = g.cocharacter
    at = {v: [] for v in g.vertices}
    for v, w, chi in g.edges:
        a = _pairing(chi, lam)
        at[v].append(a)
        at[w].append(-a)
    index = {}
    row_of = {v: index.setdefault(tuple(sorted(a)), len(index)) for v, a in at.items()}
    den = math.lcm(*(math.prod(a) for a in index))
    rows = [
        (den // math.prod(a), tuple(sum(x ** k for x in a) for k in range(1, g.dim + 1)))
        for a in index
    ]
    return den, rows, row_of


def _power_sum_numbers(g: GKMGraph, partitions, exps) -> dict:
    """{mu: den * N_mu} over ``partitions``, all integers.

    The class is the t-monomial t^(e_v) at each vertex v, e_v = ``exps[v]``
    (all zero for the fundamental class).  Along lambda, in the
    logarithmic coordinate z, t_i is e(lambda_i z), so the term of v is
    lambda^(e_v) z^(|e_v| - dim) / prod_j a_vj times exp(sum_r q_r s_r(v) z^r)
    with the integers s_r(v) = p_r(a_v) - sum_i e_vi lambda_i^r, and

        N_mu = sum_v lambda^(e_v) s_mu(v) / prod_j a_vj

    over the common denominator den of ``GKMGraph.moments``.  Vertices with
    the same (s_r(v)) are summed once.  ``partitions`` must list every
    prefix before its extensions; each N_mu then costs one multiplication
    per distinct (s_r(v)) with a nonzero term.
    """
    _, rows, row_of = g.moments
    top = max((mu[0] for mu in partitions if mu), default=0)
    groups = Counter((row_of[v], exps[v]) for v in g.vertices)
    lam = g.cocharacter
    lam_powers = [[x ** r for r in range(1, top + 1)] for x in lam]
    shifts = {}  # e -> (lambda^e, [sum_i e_i lambda_i^r for r = 1..top])
    weights = {}
    for (i, e), count in groups.items():
        shift = shifts.get(e)
        if shift is None:
            scale, vec = 1, [0] * top
            for x, xp, k in zip(lam, lam_powers, e):
                if k:
                    scale *= x ** k
                    if not scale:
                        break
                    vec = [y + k * z for y, z in zip(vec, xp)]
            shift = shifts[e] = (scale, vec)
        if shift[0]:
            unit, psums = rows[i]
            s = tuple(map(operator.sub, psums, shift[1]))
            weights[s] = weights.get(s, 0) + count * unit * shift[0]
    columns = [s for s, w in weights.items() if w]
    powers = [None] + [[s[r] for s in columns] for r in range(top)]
    path = [[weights[s] for s in columns]]
    sums = {}
    for mu in partitions:
        if mu:
            del path[len(mu):]
            path.append([x * y for x, y in zip(path[-1], powers[mu[-1]])])
        sums[mu] = sum(path[-1])
    return sums


def _weighted_sum(factors: dict, sums: dict, k: int) -> dict:
    """den^k * sum_(|mu| = k) sums[mu] * q_mu / aut(mu) as an {m-exponents: int} map.

    ``factors`` and den are those of ``FGLContext.weight_factors``.  Horner's
    rule on the prefixes costs one integer polynomial product per partition.
    """
    inner = {}
    for mu in reversed(factors):
        size = sum(mu)
        if size == k:
            acc = {(): sums[mu]} if sums[mu] else None
        elif size < k:
            acc = inner.pop(mu, None)
        else:
            continue
        if not acc:
            continue
        if not mu:
            return acc
        mul_acc(inner.setdefault(mu[:-1], {}), factors[mu].items(), acc)
    return {}


def _log_integral(law, g: GKMGraph, exps) -> tuple:
    """(num, den): the integral of the class t^(e_v) over X as numerators over den.

    ``exps`` is as for ``_power_sum_numbers``, every e_v of one degree d.
    The sum over the vertices is z^(d - dim) sum_k R_k z^k with
    R_k = sum_(|mu| = k) q_mu N_mu / aut(mu), so the integral is R_(dim - d)
    (0 when d > dim), as an {m-exponents: int} map; NotDivisible unless
    R_k = 0 for k < dim - d.  den depends on the graph and the law only, not
    on ``exps``, so integrals of different monomials add numerator to
    numerator.  The formal group law ``law`` needs truncation dim + 1
    (``FGLContext.weight_factors``).
    """
    wden, factors = law.weight_factors(g.dim)
    k = g.dim - sum(exps[g.vertices[0]])
    partitions = factors if k == g.dim else [mu for mu in factors if sum(mu) <= k]
    sums = _power_sum_numbers(g, partitions, exps)
    # R_j is zero when every N_mu of size j is; only the others are summed
    sizes = {sum(mu) for mu, n in sums.items() if n}
    if any(_weighted_sum(factors, sums, j) for j in sizes if j < k):
        raise NotDivisible(_NOT_DIVISIBLE)
    lift = wden ** (g.dim - k)
    den = g.moments[0] * wden ** g.dim
    return {m: x * lift for m, x in _weighted_sum(factors, sums, k).items()}, den


def _fundamental_class(ctx: TorusContext, g: GKMGraph) -> GradedCoeff:
    """[X] = R_dim in the logarithmic coordinate; NotDivisible unless R_k = 0 for k < dim."""
    num, den = _log_integral(ctx.fgl, g, dict.fromkeys(g.vertices, (0,) * g.rank))
    return GradedCoeff({m: Fraction(x, den) for m, x in num.items()})


def integrate(ctx: TorusContext, g: GKMGraph, alpha: PiecewiseClass, check_class=True) -> GradedCoeff:
    """Fixed-point residue sum pushed down to the Lazard ring.

    Restricts along the graph's generic cocharacter (``_generic_cocharacter``,
    kept on the graph).  A class whose vertex values are all one t-constant
    c returns c times ``_fundamental_class``, the sum of the module
    docstring in the logarithmic coordinate; every other class returns the
    coefficient of u^dim of ``_residue_along``.  Either way a nonzero term
    below u^dim raises NotDivisible.  Exact over Q; the answer does not
    depend on the cocharacter or on the vertex order.  The graph must pass
    ``validate()`` (the logarithmic route relies on every valence being
    dim); the command line checks it on load.
    """
    need = required_guarantee(g, alpha)
    have = min(alpha.guarantee, ctx.D)
    if have < need:
        raise TruncationInsufficient(f"guarantee {have} below required {need}")
    if check_class and not is_class(ctx, g, alpha):
        raise NotAClass("piecewise values violate an edge congruence")
    c = _constant_value(alpha)
    if c is None:
        return _top_coefficient(_residue_along(ctx, g, alpha, g.cocharacter), g.dim)
    if c.is_zero():
        return c  # as the residue route: a zero sum has no term below u^dim to refuse
    return c * _fundamental_class(ctx, g)


def basis_expand(ctx: TorusContext, g: GKMGraph, basis, alpha: PiecewiseClass):
    """Coefficients c_k in S(T) with sum c_k * basis_k = alpha through the guarantee.

    Classes supported at one vertex each, one per vertex, are read off by
    exact division at that vertex.  Any other basis is lifted by t-degree,
    the matrix form of ``TruncSeries.divide_exact``: for d = 0, ..., G (G the
    common guarantee, low_k the lowest t-degree of basis_k) one rational
    system A_d y = r_d is solved.  Its columns (k, t-monomial of degree
    d - low_k) hold the lowest part of basis_k, its rows are (vertex,
    t-monomial of degree d), and r_d is what is left of alpha at t-degree d;
    every m-monomial of r_d is one more right-hand side of the same
    elimination.  The solved parts times the basis are then subtracted from
    the higher degrees.  Each c_k carries its exact guarantee: divide_exact's
    for a point class, min(G, D) - low_k from the lifting (D the context's
    truncation).  On both routes a coordinate that needs a generator above
    ``Dc`` (any generator under a specialized law) is NoSolution.

    With every A_d injective the system in all coefficients at once is
    block lower-triangular with injective diagonal blocks, so the
    coordinates and the status are that system's: NoSolution when some r_d
    leaves the image of A_d or a coordinate needs a generator out of range.
    With some A_d singular the basis is not free through the truncation:
    NoSolution when a residual leaves the image below the first singular
    degree, Ambiguous otherwise.  A lowest part that carries a generator
    gives zero columns, so it is Ambiguous; no basis has one, since at m = 0
    a basis reduces to a basis of equivariant cohomology.  A zero element is
    Ambiguous, a non-homogeneous one under the universal law a ValueError,
    and more than MAX_EXPAND_COLUMNS columns in A_G raise TooLarge before
    any matrix is built.
    """
    if len(basis) != len(g.vertices):
        raise ValueError("basis size must equal the number of fixed points")
    guar = min([alpha.guarantee] + [b.guarantee for b in basis])
    supports = []
    for b in basis:
        supp = [v for v, s in b.values.items() if not s.is_zero()]
        supports.append(supp)
    top = 0 if ctx.fgl.is_specialized else ctx.fgl.Dc  # highest generator a coordinate may use
    if all(len(s) == 1 for s in supports) and len({s[0] for s in supports}) == len(basis):
        out = []
        for b, supp in zip(basis, supports):
            v = supp[0]
            try:
                c = alpha.values[v].divide_exact(b.values[v])
            except NotDivisible as exc:
                raise NoSolution(f"component at {v} is not a multiple of the basis value") from exc
            if any(len(m) > top for x in c.coeffs.values() for m in x.terms):
                raise NoSolution(_OUT_OF_SPAN)
            out.append(c)
        return out
    return _expand_linear(ctx, g, basis, alpha, guar, top)


_OUT_OF_SPAN = "class is not in the span of the basis"


# Expansion refuses a basis whose largest lifting matrix has more columns.
MAX_EXPAND_COLUMNS = 20000


def _expand_linear(ctx, g, basis, alpha, guar, top):
    """The t-degree lifting of ``basis_expand``."""
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
    width = sum(math.comb(guar - low + ctx.rank - 1, ctx.rank - 1) for low in lows if low <= guar)
    if width > MAX_EXPAND_COLUMNS:
        raise TooLarge(
            f"expansion needs {width} unknowns in one t-degree, above the limit {MAX_EXPAND_COLUMNS}"
        )
    leads, tails = _split_lowest(basis, lows)
    tmons = [_t_monomials(ctx.rank, e) for e in range(guar + 1)]
    residual = [{} for _ in range(guar + 1)]  # per t-degree: {(vertex, t-exps): {m-exps: q}}
    for v, s in alpha.values.items():
        for t, c in s.coeffs.items():
            if sum(t) <= guar:
                residual[sum(t)][(v, t)] = dict(c.terms)
    coords = [{} for _ in basis]
    for d in range(guar + 1):
        cols = [(k, s) for k, low in enumerate(lows) if low <= d for s in tmons[d - low]]
        rows, rhs = _lifting_system(cols, leads, residual[d])
        if not cols and not rows:
            continue
        status, y = solve(rows, rhs, len(cols))
        if status == UNDERDETERMINED or (
            status == INCONSISTENT and matrix_rank(rows) < len(cols)
        ):
            raise Ambiguous("basis is not free through the truncation")
        if status == INCONSISTENT or any(len(m) > top for part in y for m in part):
            raise NoSolution(_OUT_OF_SPAN)
        for (k, s), part in zip(cols, y):
            if not part:
                continue
            coords[k][s] = GradedCoeff(part)
            neg = [(m, -q) for m, q in part.items()]
            for v, t, dt, c in tails[k]:
                if d + dt <= guar:
                    key = (v, tuple(map(operator.add, s, t)))
                    mul_acc(residual[d + dt].setdefault(key, {}), neg, c)
    return [TruncSeries(ctx.vars, c, min(guar, ctx.D) - low) for c, low in zip(coords, lows)]


def _split_lowest(basis, lows):
    """(leads, tails): each basis element split at its lowest t-degree.

    A lead lists (vertex, t-exps, q) over the lowest part, or nothing when
    that part carries a Lazard generator; a tail lists (vertex, t-exps,
    t-degree above the lowest, coefficient map) over the rest.
    """
    leads, tails = [], []
    for b, low in zip(basis, lows):
        lead, tail = [], []
        for v, s in b.values.items():
            for t, c in s.coeffs.items():
                if sum(t) == low:
                    lead.append((v, t, c))
                else:
                    tail.append((v, t, sum(t) - low, c.terms))
        rational = all(c.is_rational() for _, _, c in lead)
        leads.append([(v, t, c.rational_part()) for v, t, c in lead] if rational else [])
        tails.append(tail)
    return leads, tails


def _lifting_system(cols, leads, part):
    """Rows of A_d over ``cols`` and right-hand sides from the residual ``part``.

    A row is a (vertex, t-monomial) met by a column or by the residual; the
    right-hand side of a row is its residual coefficient map.
    """
    index, rows = {}, []
    for ci, (k, s) in enumerate(cols):
        for v, t, q in leads[k]:
            key = (v, tuple(map(operator.add, s, t)))
            ri = index.get(key)
            if ri is None:
                ri = index[key] = len(rows)
                rows.append({})
            rows[ri][ci] = q
    rhs = [{} for _ in rows]
    for key, c in part.items():
        if not c:
            continue
        ri = index.get(key)
        if ri is None:
            rows.append({})
            rhs.append(c)
        else:
            rhs[ri] = c
    return rows, rhs


def _t_monomials(rank, deg):
    """Every t-exponent tuple of total degree ``deg``."""
    out = []
    for c in itertools.combinations_with_replacement(range(rank), deg):
        exps = [0] * rank
        for i in c:
            exps[i] += 1
        out.append(tuple(exps))
    return out


def tensor_with_L(ctx: TorusContext, g: GKMGraph, basis, alpha: PiecewiseClass):
    """Augmented expansion coordinates: the non-equivariant class in the basis."""
    return [ctx.augment(c) for c in basis_expand(ctx, g, basis, alpha)]


# -- generated graphs -----------------------------------------------------------


def p1_graph(chi) -> GKMGraph:
    """The projective line with a weight-chi torus action."""
    chi = tuple(chi)
    if content(chi) == 0:
        raise ValueError("the action character must be nonzero")
    return GKMGraph(len(chi), 1, ["0", "inf"], [("0", "inf", chi)])


def pn_graph(n: int) -> GKMGraph:
    """Projective n-space for the rank-n torus; vertices 0..n, e_0 = 0."""
    if n < 1:
        raise ValueError("need n >= 1")

    def e(i):
        return tuple(1 if k == i - 1 else 0 for k in range(n)) if i else (0,) * n

    vertices = [str(i) for i in range(n + 1)]
    edges = []
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            chi = tuple(a - b for a, b in zip(e(i), e(j)))
            edges.append((str(i), str(j), chi))
    return GKMGraph(n, n, vertices, edges)


# flag_graph refuses n above this (n! vertices; vertex ids are single digits).
MAX_FLAG_GRAPH_N = 8


def flag_graph(n: int) -> GKMGraph:
    """Complete flag variety of GL_n: vertices are permutations of 1..n."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > MAX_FLAG_GRAPH_N:
        raise TooLarge(f"flag graph n = {n} is above the limit {MAX_FLAG_GRAPH_N}")
    perms = sorted(itertools.permutations(range(1, n + 1)))
    ident = {w: "".join(str(x) for x in w) for w in perms}
    edges = []
    for w in perms:
        for i in range(n):
            for j in range(i + 1, n):
                wp = list(w)
                wp[i], wp[j] = wp[j], wp[i]
                wp = tuple(wp)
                if ident[w] < ident[wp]:
                    chi = [0] * n
                    chi[w[i] - 1] += 1
                    chi[w[j] - 1] -= 1
                    edges.append((ident[w], ident[wp], tuple(chi)))
    return GKMGraph(n, n * (n - 1) // 2, [ident[w] for w in perms], edges)


def pn_hyperplane(ctx: TorusContext, g: GKMGraph) -> PiecewiseClass:
    """Tautological hyperplane class on pn: restriction c(e_v) at vertex v."""
    n = g.rank
    values = {}
    for v in g.vertices:
        i = int(v)
        chi = tuple(1 if k == i - 1 else 0 for k in range(n)) if i else (0,) * n
        values[v] = ctx.character_series(chi)
    return PiecewiseClass(values)


def flag_tautological(ctx: TorusContext, g: GKMGraph, k: int) -> PiecewiseClass:
    """The class x_k with restriction t_{w(k)} at the flag w (k is 1-based)."""
    values = {}
    for v in g.vertices:
        w = [int(c) for c in v]
        values[v] = ctx.var(w[k - 1] - 1)
    return PiecewiseClass(values)


def generate(kind: str, *, char=None, n=None) -> GKMGraph:
    """Dispatch for the CLI: p1(char), pn(n), flag(n)."""
    if kind == "p1":
        if char is None:
            raise ValueError("p1 needs a character")
        return p1_graph(char)
    if kind == "pn":
        if n is None:
            raise ValueError("pn needs n")
        return pn_graph(n)
    if kind == "flag":
        if n is None:
            raise ValueError("flag needs n")
        return flag_graph(n)
    raise ValueError(f"unsupported graph kind {kind!r}")


def distinguished_classes(ctx: TorusContext, g: GKMGraph, kind: str) -> dict:
    """Named tautological classes shipped with a generated graph."""
    out = {}
    if kind == "pn":
        out["h"] = pn_hyperplane(ctx, g)
    elif kind == "flag":
        for k in range(1, g.rank + 1):
            out[f"x{k}"] = flag_tautological(ctx, g, k)
    elif kind == "p1":
        out["point0"] = pushforward_point(ctx, g, "0", ctx.one())
        out["pointinf"] = pushforward_point(ctx, g, "inf", ctx.one())
    return out


def class_to_json(g: GKMGraph, alpha: PiecewiseClass) -> dict:
    """Class JSON: truncation plus canonical series text per vertex."""
    return {
        "truncation": alpha.guarantee,
        "values": {v: str(alpha.restrict(v)) for v in g.vertices},
    }
