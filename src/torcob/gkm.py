"""Moment graphs: fixed points, character-labelled curves, and piecewise classes.

A graph stores one character per edge, the tangent character at the first
vertex (the second sees its negative); every vertex must have the same
valence with pairwise non-proportional characters, matching smooth varieties
with isolated fixed points and finitely many invariant curves.

A piecewise class assigns a series to each fixed point; it is an honest
equivariant class when every edge difference is divisible by the Chern class
of the edge character.

Integration runs the fixed-point residue sum along a generic one-parameter
subgroup (Ellingsrud-Stromme) in the logarithmic coordinate z = l(u): pick
a cocharacter lambda pairing nonzero with every edge character and restrict
along t_i -> [lambda_i](u) = e(lambda_i z).  The integral is the constant
term of sum_v alpha_v / e_v, and its terms in negative powers must vanish,
which certifies the sum.  With the characteristic series
Q(x) = x / e(x) = exp(sum q_k x^k) of the law (see ``fgl``) and
a_vj = <chi_j, lambda> over the tangent characters at v, both the Euler
class e_v = prod_j e(a_vj z) and a t-monomial t^e = prod_i e(lambda_i z)^e_i
are monomials in z times one exponential, so a term n t^e of alpha_v gives

    n t^e / e_v = z^(|e| - dim) * sum_mu q_mu N_mu z^|mu| / aut(mu),
    N_mu = n lambda^e s_mu(v, e) / prod_j a_vj,
    s_k(v, e) = p_k(a_v) - sum_i e_i lambda_i^k,

with p_k the power sums and q_mu, s_mu the products over the parts of mu.
A term of t-degree d thus lands at the levels L = d + |mu|, and with R_L
the total at level L, sum_v alpha_v / e_v = z^-dim * sum_L R_L z^L.  Each
N_mu is an integer over one denominator (a power-sum Chern number by
Atiyah-Bott at the integer point lambda), so Q[m] is touched once per
partition, not once per vertex.  Since z = u + O(u^2), the sum has no
negative powers of u exactly when R_L = 0 for every L < dim, and then the
integral is R_dim (``_log_integral``).  Only the weights with |mu| <= dim
are read, from l through degree dim + 1, so the truncation demand is the
dimension plus one.  ``flag.artin_pairing`` pairs x-polynomials by the
same sum, with no series formed.
"""

from __future__ import annotations

import itertools
import math
import operator
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

    The sum reads the weights q_mu / aut(mu) with |mu| <= dim, which
    ``FGLContext.weight_factors`` takes from l through degree dim + 1, and
    the vertex values through t-degree dim.  The demand does not depend on
    the class; ``alpha`` is accepted so that callers can pass the one they
    are about to integrate.
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


def _power_sum_numbers(g: GKMGraph, partitions, terms) -> dict:
    """{mu: den * N_mu} over ``partitions``, all integers.

    ``terms`` lists (vertex v, t-exponent e, integer n) triples, the class
    whose value at v is the sum of n t^e over the triples of v.  Along
    lambda, in the logarithmic coordinate z, t_i is e(lambda_i z), so the
    term n t^e at v is n lambda^e z^(|e| - dim) / prod_j a_vj times
    exp(sum_r q_r s_r(v, e) z^r) with the integers
    s_r(v, e) = p_r(a_v) - sum_i e_i lambda_i^r, and

        N_mu = sum over the triples of n lambda^e s_mu(v, e) / prod_j a_vj

    over the common denominator den of ``GKMGraph.moments``.  Terms with
    the same (s_r(v, e)) are summed once.  ``partitions`` must list every
    prefix before its extensions; each N_mu then costs one multiplication
    per distinct (s_r(v, e)) with a nonzero weight.
    """
    _, rows, row_of = g.moments
    top = max((mu[0] for mu in partitions if mu), default=0)
    lam = g.cocharacter
    lam_powers = [[x ** r for r in range(1, top + 1)] for x in lam]
    shifts = {}  # e -> (lambda^e, [sum_i e_i lambda_i^r for r = 1..top])
    weights = {}
    for v, e, n in terms:
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
            unit, psums = rows[row_of[v]]
            s = tuple(map(operator.sub, psums, shift[1]))
            weights[s] = weights.get(s, 0) + n * unit * shift[0]
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


def _weighted_sums(factors: dict, sums: dict) -> dict:
    """{k: den^k * sum_(|mu| = k) sums[mu] * q_mu / aut(mu)} as {m-exponents: int} maps.

    ``factors`` and den are those of ``FGLContext.weight_factors``; ``sums``
    is keyed by partitions that start with the empty one and list every
    prefix before its extensions.  One reversed walk serves every size k:
    Horner's rule on the prefixes costs one integer polynomial product per
    partition and size above it.
    """
    inner = {}
    for mu in reversed(sums):
        acc = inner.pop(mu, {})
        if sums[mu]:
            acc[sum(mu)] = {(): sums[mu]}
        if not mu:
            return acc
        if acc:
            out = inner.setdefault(mu[:-1], {})
            factor = factors[mu].items()
            for k, a in acc.items():
                mul_acc(out.setdefault(k, {}), factor, a)
    return {}


_NOT_DIVISIBLE = "residue sum not divisible; class condition or guarantee violated"


def _log_integral(law, g: GKMGraph, groups) -> tuple:
    """(num, den): the integral over X of a class given by its terms, numerators over den.

    ``groups`` maps (d, beta) to the (v, e, n) triples of
    ``_power_sum_numbers`` with |e| = d <= dim: the class whose value at v
    is the sum of m^beta n t^e over every group's triples of v.  A group
    contributes z^(d - dim) sum_mu q_mu m^beta N_mu z^|mu| / aut(mu), so it
    lands at the levels d + |mu|.  With R_L the total at level L, summed
    over every group, the integral is R_dim, as an {m-exponents: int} map;
    NotDivisible unless every R_L with L < dim vanishes as a polynomial in
    m.  Partitions of zero weight (a zero factor on them or on a prefix)
    are not walked; under the additive law only the empty one is.  den is
    the moments' den times den_q^dim (den_q that of the weights), so it
    depends on the graph and the law only, and integrals of different
    classes add numerator to numerator.  The formal group law ``law`` needs
    truncation dim + 1 (``FGLContext.weight_factors``).
    """
    wden, factors = law.weight_factors(g.dim)
    walk, live = [], set()
    for mu in factors:
        if not mu or (factors[mu] and mu[:-1] in live):
            live.add(mu)
            walk.append(mu)
    by_size = {g.dim: walk}
    levels = [{} for _ in range(g.dim + 1)]
    for (d, beta), terms in groups.items():
        k = g.dim - d
        partitions = by_size.get(k)
        if partitions is None:
            partitions = by_size[k] = [mu for mu in walk if sum(mu) <= k]
        lift = [(beta, wden ** d)]
        for j, w in _weighted_sums(factors, _power_sum_numbers(g, partitions, terms)).items():
            mul_acc(levels[d + j], lift, w)
    if any(levels[:g.dim]):
        raise NotDivisible(_NOT_DIVISIBLE)
    return levels[g.dim], g.moments[0] * wden ** g.dim


def integrate(ctx: TorusContext, g: GKMGraph, alpha: PiecewiseClass, check_class=True) -> GradedCoeff:
    """The Bott residue sum of alpha, pushed down to the Lazard ring.

    Every term m^beta t^e of degree at most dim of a vertex value is summed
    in the logarithmic coordinate along the graph's generic cocharacter
    (``_generic_cocharacter``, kept on the graph), grouped by (|e|, beta),
    by ``_log_integral``; terms above dim only feed positive powers of z.
    A nonzero total below the top level raises NotDivisible.  Exact over Q;
    the answer does not depend on the cocharacter or on the vertex order.
    The graph must pass ``validate()`` (the route relies on every valence
    being dim); the command line checks it on load.
    """
    need = required_guarantee(g, alpha)
    have = min(alpha.guarantee, ctx.D)
    if have < need:
        raise TruncationInsufficient(f"guarantee {have} below required {need}")
    if check_class and not is_class(ctx, g, alpha):
        raise NotAClass("piecewise values violate an edge congruence")
    den = math.lcm(*(s.den for s in alpha.values.values()))
    groups = {}
    for v in g.vertices:
        s = alpha.values[v]
        scale = den // s.den
        for e, c in s.num.items():
            d = sum(e)
            if d <= g.dim:
                for beta, n in c.items():
                    groups.setdefault((d, beta), []).append((v, e, n * scale))
    num, log_den = _log_integral(ctx.fgl, g, groups)
    return GradedCoeff({m: Fraction(x, den * log_den) for m, x in num.items()})


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
