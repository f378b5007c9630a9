"""Moment graphs: fixed points, character-labelled curves, and piecewise classes.

A graph stores one character per edge, the tangent character at the first
vertex (the second sees its negative); vertex ids are distinct, and an edge
between ids not listed, or with a character whose length is not the rank,
is refused on construction (``GraphInvalid``), as is a rank below 1
(``ValueError``).
Every vertex must have the same valence with pairwise non-proportional
characters (``GKMGraph.validate``), matching smooth varieties with isolated
fixed points and finitely many invariant curves.

A piecewise class assigns a series to each fixed point; it is an honest
equivariant class when every edge difference is divisible by the Chern class
of the edge character.  ``is_class`` runs tests compiled once per graph
(``GKMGraph.edge_tests``), one per distinct character, chosen by its shape
(``torus.character_shape``): for m*e_a the two vertex values must agree on
every term free of t_a, for m*(e_a - e_b) after t_a -> t_b, each through the
lower of the two guarantees and across their denominators, so no difference
series is formed; any other character divides the formed difference
(``TorusContext.chern_divides``).

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

import functools
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
    VariableMismatch,
)
from torcob.kernels import above_generator, mul_acc
from torcob.linalg import INCONSISTENT, UNDERDETERMINED, solve
from torcob.linalg import rank as matrix_rank
from torcob.series import TruncSeries, _is_rational, from_table
from torcob.torus import (
    TorusContext,
    agree_off_axis,
    agree_on_diagonal,
    character_shape,
    content,
)


class GKMGraph:
    """rank, common valence dim, vertex ids, and signed edges.

    The edges are fixed at construction, so the generic cocharacter, the
    tangent power sums and the edge tests they determine are computed on
    first use and kept (``functools.cached_property``).  Threads sharing a
    graph get the same values: Python 3.11 locks the first computation, and
    from 3.12 threads racing on it may both compute it and store equal values.
    """

    def __init__(self, rank, dim, vertices, edges):
        if rank < 1:
            raise ValueError("rank must be positive")
        self.rank = rank
        self.dim = dim
        self.vertices = list(vertices)
        self.edges = [(v, w, tuple(chi)) for v, w, chi in edges]
        self._incident = {}
        for v in self.vertices:
            if v in self._incident:
                raise GraphInvalid(f"vertex {v} is listed more than once")
            self._incident[v] = []
        for v, w, chi in self.edges:
            if v not in self._incident or w not in self._incident:
                raise GraphInvalid(f"edge ({v},{w}) references an unknown vertex")
            if len(chi) != rank:
                raise GraphInvalid(
                    f"edge ({v},{w}) has a character of length {len(chi)}, not the rank {rank}"
                )
            self._incident[v].append((w, chi))
            self._incident[w].append((v, tuple(-x for x in chi)))

    @functools.cached_property
    def cocharacter(self) -> tuple:
        """The generic cocharacter of ``_generic_cocharacter``, kept after first use."""
        return _generic_cocharacter(self)

    @functools.cached_property
    def moments(self) -> tuple:
        """The tangent power sums of ``_tangent_moments``, kept after first use."""
        return _tangent_moments(self)

    @functools.cached_property
    def edge_tests(self) -> list:
        """The congruence tests of ``_edge_tests``, kept after first use."""
        return _edge_tests(self)

    def incident(self, v):
        """(other vertex, tangent character at v) pairs."""
        return self._incident[v]

    def validate(self):
        """List of violation messages; empty means the graph is valid.

        Two nonzero characters are proportional exactly when they have the
        same primitive direction up to sign (``_direction``), so each vertex
        groups the nonzero characters of its star by direction, reducing each
        distinct character once.  Every pair of star positions i < j inside
        one group is reported, in increasing (i, j): the order of a pairwise
        test over the star.
        """
        problems = _zero_characters(self)
        direction = functools.cache(_direction)
        for v in self.vertices:
            inc = self._incident[v]
            if len(inc) != self.dim:
                problems.append(f"vertex {v} has valence {len(inc)}, expected {self.dim}")
            groups = {}
            for i, (_, chi) in enumerate(inc):
                if any(chi):
                    groups.setdefault(direction(chi), []).append(i)
            for i, j in sorted(p for ix in groups.values() for p in itertools.combinations(ix, 2)):
                problems.append(
                    f"vertex {v} has proportional edge characters {inc[i][1]} and {inc[j][1]}"
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
        """The graph of ``to_json``'s object; a float or a boolean where an
        integer belongs raises TypeError (``_json_int``)."""
        return cls(
            _json_int(obj["rank"]),
            _json_int(obj["dim"]),
            [str(v) for v in obj["vertices"]],
            [(str(e["v"]), str(e["w"]), tuple(map(_json_int, e["char"]))) for e in obj["edges"]],
        )


def _json_int(x) -> int:
    """int(x) for a JSON value, refusing with TypeError a float or a boolean,
    which int() would truncate or read as 0 or 1."""
    if isinstance(x, (bool, float)):
        raise TypeError(f"expected an integer, got {x!r}")
    return int(x)


def _zero_characters(g: GKMGraph) -> list:
    """One ``validate`` message per edge of g whose character is zero, in edge order."""
    return [f"edge ({v},{w}) has the zero character" for v, w, chi in g.edges if not any(chi)]


def _direction(chi) -> tuple:
    """The primitive direction of a nonzero chi up to sign: chi over its
    content, signed so that the first nonzero entry is positive."""
    c = content(chi) if next(filter(None, chi)) > 0 else -content(chi)
    return tuple(x // c for x in chi)


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
    """Edge congruence test: alpha_v - alpha_w divisible by c(chi) throughout.

    Runs the graph's compiled ``edge_tests``, each on the two values alone
    (no difference series is formed for an axis or a difference character).
    Equal values pass before the character is read.  TruncationInsufficient
    when the guarantee is below 1; values on different variables raise
    VariableMismatch, and a zero character on an edge whose values differ
    ZeroCharacter.
    """
    if alpha.guarantee < 1:
        raise TruncationInsufficient("guarantee below 1 cannot see any congruence")
    values = alpha.values
    for v, w, test in g.edge_tests:
        x, y = values[v], values[w]
        if x == y:
            continue
        if x.vars != y.vars:
            raise VariableMismatch(f"{x.vars} vs {y.vars}")
        if not test(ctx, x, y):
            return False
    return True


def _edge_tests(g: GKMGraph) -> list:
    """(v, w, test) per edge: test(ctx, x, y) decides whether the differing
    values x at v and y at w are congruent modulo c(chi), through the lower
    of their guarantees.  The shape of chi (``torus.character_shape``) picks
    the test, once per distinct character:

    - chi = m*e_a: x and y agree on every term free of t_a
      (``torus.agree_off_axis``);
    - chi = m*(e_a - e_b): they agree after t_a -> t_b
      (``torus.agree_on_diagonal``);
    - any other chi: ``TorusContext.chern_divides`` of x - y.
    """
    tests = {}
    out = []
    for v, w, chi in g.edges:
        test = tests.get(chi)
        if test is None:
            test = tests[chi] = _edge_test(chi)
        out.append((v, w, test))
    return out


def _edge_test(chi):
    shape = character_shape(chi)
    if shape is None:
        return lambda ctx, x, y: _difference_divides(ctx, x - y, chi)
    a, b = shape
    if b is None:
        return lambda ctx, x, y: agree_off_axis(x, y, a)
    return lambda ctx, x, y: agree_on_diagonal(x, y, a, b)


def _difference_divides(ctx: TorusContext, diff: TruncSeries, chi) -> bool:
    return diff.is_zero() or ctx.chern_divides(diff, chi, 1)


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
    """A lambda with <chi, lambda> != 0 on every edge character, by a greedy rule.

    The entries are assigned in index order.  A character whose last nonzero
    entry is i pairs with lambda linearly in lambda_i, with the nonzero
    coefficient chi_i, once the entries before i are set, so it forbids at
    most one value of lambda_i; lambda_i is the first of 0, 1, -1, 2, -2, ...
    that no such character forbids.  This takes time linear in the edges.
    No lambda pairs nonzero with the zero character, so an edge that
    carries it raises GraphInvalid, with ``validate``'s message for each
    such edge.
    """
    zero = _zero_characters(g)
    if zero:
        raise GraphInvalid("; ".join(zero))
    checks = [[] for _ in range(g.rank)]
    for chi in {chi for _, _, chi in g.edges}:
        checks[max(i for i, x in enumerate(chi) if x)].append(chi)
    lam = []
    for i, chars in enumerate(checks):
        forbidden = set()
        for chi in chars:
            partial = _pairing(chi[:i], lam)
            if partial % chi[i] == 0:
                forbidden.add(-partial // chi[i])
        x = 0
        while x in forbidden:
            x = -x if x > 0 else 1 - x
        lam.append(x)
    return tuple(lam)


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
    at = {v: [_pairing(chi, lam) for _, chi in g.incident(v)] for v in g.vertices}
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
    """{k: den^k * sum_(|mu| = k) sums[mu] * q_mu / aut(mu)} as {m-key: int} maps.

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
            acc[sum(mu)] = {0: sums[mu]}
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
    ``_power_sum_numbers`` with |e| = d <= dim, beta an m-key (packed, as in
    ``kernels``): the class whose value at v is the sum of m^beta n t^e over
    every group's triples of v.  A group contributes
    z^(d - dim) sum_mu q_mu m^beta N_mu z^|mu| / aut(mu), so it lands at the
    levels d + |mu|.  With R_L the total at level L, summed
    over every group, the integral is R_dim, as an {m-key: int} map;
    NotDivisible unless every R_L with L < dim vanishes as a polynomial in
    m.  Partitions of zero weight are not walked
    (``FGLContext.live_partitions``, kept with the weights).  den is
    the moments' den times den_q^dim (den_q that of the weights), so it
    depends on the graph and the law only, and integrals of different
    classes add numerator to numerator.  The formal group law ``law`` needs
    truncation dim + 1 (``FGLContext.weight_factors``).
    """
    wden, factors = law.weight_factors(g.dim)
    levels = [{} for _ in range(g.dim + 1)]
    for (d, beta), terms in groups.items():
        partitions = law.live_partitions(g.dim, g.dim - d)
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
    return GradedCoeff.from_numerators(num, den * log_den)


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

    Whether every A_d is injective is decided once, before the lifting
    (``_free_at_cocharacter``).  With Lambda the lead matrix, Lambda[v][k]
    the lowest part of basis_k at v (zero where basis_k starts higher at
    v), A_d y = 0 exactly when sum_k Lambda[v][k] Y_k = 0 at every vertex,
    Y_k homogeneous of t-degree d - low_k.  So det Lambda != 0 in Q(t)
    makes every A_d injective, and a nonzero det Lambda(lambda) at the
    graph's generic cocharacter lambda certifies it.  Then a degree whose
    residual is zero has the zero solution and is skipped, with no system
    built; the degrees solved see the residuals they would see otherwise.
    When the certificate fails (a lowest part that carries a generator, a
    zero edge character, or det Lambda(lambda) = 0) every degree is solved.
    Non-injectivity is monotone in d: the kernel is a graded
    S(T)-submodule, so t_1 times a kernel vector of degree d is one of
    degree d + 1, and the first singular degree is well defined.

    With every A_d injective the system in all coefficients at once is
    block lower-triangular with injective diagonal blocks, so the
    coordinates and the status are that system's: NoSolution when some r_d
    leaves the image of A_d or a coordinate needs a generator out of range.
    With some A_d singular the basis is not free through the truncation:
    NoSolution when a residual leaves the image below the first singular
    degree, Ambiguous otherwise.  A lowest part that carries a generator
    gives zero columns, so it is Ambiguous; no basis has one, since at m = 0
    a basis reduces to a basis of equivariant cohomology.  A zero element is
    Ambiguous, a non-homogeneous one under the universal law a ValueError.
    A system of more than MAX_EXPAND_COLUMNS columns raises TooLarge before
    its columns are listed or its matrix is built; the degrees below it
    are solved first, so their NoSolution or Ambiguous comes first, and a
    certified basis never lists the columns of a degree it skips.
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
            if above_generator(c.num.values(), top):
                raise NoSolution(_OUT_OF_SPAN)
            out.append(c)
        return out
    return _expand_linear(ctx, g, basis, alpha, guar, top)


_OUT_OF_SPAN = "class is not in the span of the basis"


# Expansion refuses a lifting system with more columns.
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
    leads, tails = _split_lowest(basis, lows)
    free = _free_at_cocharacter(ctx, g, leads)
    tmons = functools.cache(functools.partial(_t_monomials, ctx.rank))
    residual = [{} for _ in range(guar + 1)]  # per t-degree: {(vertex, t-exps): {m-key: q}}
    for v, s in alpha.values.items():
        for t, c in s.num.items():
            if sum(t) <= guar:
                residual[sum(t)][(v, t)] = _over(c, s.den)
    coords = [{} for _ in basis]
    for d in range(guar + 1):
        if free and not any(residual[d].values()):
            continue  # A_d is injective, so a zero residual has the zero solution
        width = sum(math.comb(d - low + ctx.rank - 1, ctx.rank - 1) for low in lows if low <= d)
        if width > MAX_EXPAND_COLUMNS:
            raise TooLarge(
                f"expansion needs {width} unknowns at t-degree {d}, above the limit {MAX_EXPAND_COLUMNS}"
            )
        cols = [(k, s) for k, low in enumerate(lows) if low <= d for s in tmons(d - low)]
        rows, rhs = _lifting_system(cols, leads, residual[d])
        if not cols and not rows:
            continue
        status, y = solve(rows, rhs, len(cols))
        if status == UNDERDETERMINED or (
            status == INCONSISTENT and matrix_rank(rows) < len(cols)
        ):
            raise Ambiguous("basis is not free through the truncation")
        if status == INCONSISTENT or above_generator(y, top):
            raise NoSolution(_OUT_OF_SPAN)
        for (k, s), part in zip(cols, y):
            if not part:
                continue
            coords[k][s] = part
            neg = [(m, -q) for m, q in part.items()]
            for v, t, dt, c in tails[k]:
                if d + dt <= guar:
                    key = (v, tuple(map(operator.add, s, t)))
                    mul_acc(residual[d + dt].setdefault(key, {}), neg, c)
    return [from_table(ctx.vars, c, min(guar, ctx.D) - low) for c, low in zip(coords, lows)]


def _free_at_cocharacter(ctx, g, leads) -> bool:
    """Whether the lead matrix has full column rank at the generic cocharacter.

    Lambda[v][k] is the lowest part of basis_k at v (``leads[k]``, zero
    where basis_k starts higher at v), evaluated at t = lambda, the graph's
    cocharacter.  A nonzero maximal minor at one integer point is nonzero as
    a polynomial, and then every A_d of the lifting is injective.  False,
    without reading the cocharacter, on a graph with a zero edge character
    (it has none) or of another rank than the context.
    """
    if g.rank != ctx.rank or _zero_characters(g):
        return False
    lam = g.cocharacter
    rows = {}
    for k, lead in enumerate(leads):
        for v, t, q in lead:
            row = rows.setdefault(v, {})
            row[k] = row.get(k, 0) + q * math.prod(map(pow, lam, t))
    return matrix_rank([{k: x for k, x in r.items() if x} for r in rows.values()]) == len(leads)


def _split_lowest(basis, lows):
    """(leads, tails): each basis element split at its lowest t-degree.

    A lead lists (vertex, t-exps, q) over the lowest part, or nothing when
    that part carries a Lazard generator; a tail lists (vertex, t-exps,
    t-degree above the lowest, {m-key: q} coefficient map) over the rest.
    """
    leads, tails = [], []
    for b, low in zip(basis, lows):
        lead, tail = [], []
        for v, s in b.values.items():
            for t, c in s.num.items():
                c = _over(c, s.den)
                if sum(t) == low:
                    lead.append((v, t, c))
                else:
                    tail.append((v, t, sum(t) - low, c))
        rational = all(_is_rational(c) for _, _, c in lead)
        leads.append([(v, t, c[0]) for v, t, c in lead] if rational else [])
        tails.append(tail)
    return leads, tails


def _over(c, den) -> dict:
    """The coefficient map of the numerators c over den."""
    return {m: Fraction(x, den) for m, x in c.items()}


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


def _pn_characters(n: int) -> list:
    """The vertex characters of P^n, by vertex: e_0 = 0, then e_1, ..., e_n."""
    return [(0,) * n] + [tuple(int(k == i) for k in range(n)) for i in range(n)]


def pn_graph(n: int) -> GKMGraph:
    """Projective n-space for the rank-n torus; vertices 0..n, e_0 = 0."""
    if n < 1:
        raise ValueError("need n >= 1")
    e = _pn_characters(n)
    vertices = [str(i) for i in range(n + 1)]
    edges = [
        (vertices[i], vertices[j], tuple(map(operator.sub, e[i], e[j])))
        for i, j in itertools.combinations(range(n + 1), 2)
    ]
    return GKMGraph(n, n, vertices, edges)


# flag_cosets refuses n above this (n! cosets; vertex ids are single digits).
MAX_FLAG_GRAPH_N = 8


def flag_cosets(n: int) -> list:
    """[(vertex id, w)] over the cosets of the flag variety of GL_n, in vertex order.

    A coset is a permutation w of 1..n in one-line notation
    (w(1), ..., w(n)), and its vertex id is that notation written as
    digits, so the ids sort as the permutations do.  This is the only code
    that reads or writes a flag vertex id: the graph, its tautological
    classes, ``flag.flag_restriction`` and ``flag.artin_pairing`` take w
    from this table.  TooLarge above MAX_FLAG_GRAPH_N, before any
    permutation is listed.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > MAX_FLAG_GRAPH_N:
        raise TooLarge(f"flag graph n = {n} is above the limit {MAX_FLAG_GRAPH_N}")
    return [("".join(map(str, w)), w) for w in itertools.permutations(range(1, n + 1))]


def flag_graph(n: int) -> GKMGraph:
    """Complete flag variety of GL_n, on the cosets of ``flag_cosets``.

    The tangent characters at w are e_{w(i)} - e_{w(j)} for i < j, and the
    curve along that character ends at w with positions i and j
    transposed.  Each edge is listed once, from the coset that comes first
    in vertex order: the two agree before position i, so that is w exactly
    when w(i) < w(j), and no ids are compared.
    """
    cosets = flag_cosets(n)
    ids = {w: v for v, w in cosets}
    pairs = list(itertools.combinations(range(n), 2))
    roots = {}  # e_a - e_b by (a, b), a < b
    for i, j in pairs:
        chi = [0] * n
        chi[i], chi[j] = 1, -1
        roots[i + 1, j + 1] = tuple(chi)
    edges = []
    for v, w in cosets:
        for i, j in pairs:
            a, b = w[i], w[j]
            if a < b:
                u = list(w)
                u[i], u[j] = b, a
                edges.append((v, ids[tuple(u)], roots[a, b]))
    return GKMGraph(n, n * (n - 1) // 2, [v for v, _ in cosets], edges)


def pn_hyperplane(ctx: TorusContext, g: GKMGraph) -> PiecewiseClass:
    """Tautological hyperplane class on pn: restriction c(e_v) at vertex v."""
    e = _pn_characters(g.rank)
    return PiecewiseClass({v: ctx.character_series(e[int(v)]) for v in g.vertices})


def flag_tautological(ctx: TorusContext, g: GKMGraph, k: int) -> PiecewiseClass:
    """The class x_k with restriction t_{w(k)} at the coset w (k is 1-based)."""
    return PiecewiseClass({v: ctx.var(w[k - 1] - 1) for v, w in flag_cosets(g.rank)})


def generate(kind: str, *, char=None, n=None) -> GKMGraph:
    """The graph of ``gkm gen``: p1(char), pn(n), flag(n).

    A missing argument is a ValueError worded as the command line's.
    """
    if kind == "p1":
        if char is None:
            raise ValueError("p1 needs --char")
        return p1_graph(char)
    if kind not in ("pn", "flag"):
        raise ValueError(f"unsupported graph kind {kind!r}")
    if n is None:
        raise ValueError(f"{kind} needs --n")
    return pn_graph(n) if kind == "pn" else flag_graph(n)


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
