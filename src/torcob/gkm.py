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
"""

from __future__ import annotations

import itertools
from collections import Counter

from torcob.coeff import GradedCoeff
from torcob.errors import (
    Ambiguous,
    GraphInvalid,
    NoSolution,
    NotAClass,
    NotDivisible,
    TruncationInsufficient,
)
from torcob.kernels import madd
from torcob.linalg import INCONSISTENT, UNDERDETERMINED, solve
from torcob.series import TruncSeries
from torcob.torus import TorusContext, content, proportional


class GKMGraph:
    """rank, common valence dim, vertex ids, and signed edges."""

    def __init__(self, rank, dim, vertices, edges):
        self.rank = rank
        self.dim = dim
        self.vertices = list(vertices)
        self.edges = [(v, w, tuple(chi)) for v, w, chi in edges]
        self._incident = {v: [] for v in self.vertices}
        for v, w, chi in self.edges:
            self._incident[v].append((w, chi))
            self._incident[w].append((v, tuple(-x for x in chi)))

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

    def homogeneous_components(self):
        degs = set()
        for s in self.values.values():
            degs.update(s.homogeneous_components())
        out = {}
        for j in sorted(degs):
            out[j] = PiecewiseClass(
                {
                    v: s.homogeneous_components().get(j, TruncSeries.zero(s.vars, s.guarantee))
                    for v, s in self.values.items()
                }
            )
        return out


def constant_class(ctx: TorusContext, g: GKMGraph, value) -> PiecewiseClass:
    return PiecewiseClass({v: ctx.constant(value) for v in g.vertices})


def is_class(ctx: TorusContext, g: GKMGraph, alpha: PiecewiseClass) -> bool:
    """Edge congruence test: alpha_v - alpha_w divisible by c(chi) throughout."""
    if alpha.guarantee < 1:
        raise TruncationInsufficient("guarantee below 1 cannot see any congruence")
    for v, w, chi in g.edges:
        diff = alpha.values[v] - alpha.values[w]
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
    exact one degree below the truncation.  The demand does not depend on
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
    return sum(a * b for a, b in zip(chi, lam))


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


def _top_coefficient(total: TruncSeries, dim: int) -> GradedCoeff:
    """The coefficient of u^dim of a residue sum, certified by the vanishing below it."""
    if any(k < dim for (k,) in total.coeffs):
        raise NotDivisible("residue sum not divisible; class condition or guarantee violated")
    return total.coefficient((dim,))


def _residue_along(ctx: TorusContext, g: GKMGraph, alpha: PiecewiseClass, lam) -> TruncSeries:
    """sum_v alpha_v(u) / U_v(u) through u^dim, restricted along lambda."""
    restrict = _along(ctx, lam)
    total = TruncSeries.zero(("u",), g.dim)
    for v in g.vertices:
        total = total + _over_unit(ctx, g, v, lam, alpha.values[v], restrict)
    return total


def integrate(ctx: TorusContext, g: GKMGraph, alpha: PiecewiseClass, check_class=True) -> GradedCoeff:
    """Fixed-point residue sum pushed down to the Lazard ring.

    Restricts along the generic cocharacter of ``_generic_cocharacter`` and
    returns the coefficient of u^dim of ``_residue_along``; a nonzero
    coefficient below u^dim raises NotDivisible.  Exact over Q; the answer
    does not depend on the cocharacter or on the vertex order.
    """
    need = required_guarantee(g, alpha)
    have = min(alpha.guarantee, ctx.D)
    if have < need:
        raise TruncationInsufficient(f"guarantee {have} below required {need}")
    if check_class and not is_class(ctx, g, alpha):
        raise NotAClass("piecewise values violate an edge congruence")
    return _top_coefficient(_residue_along(ctx, g, alpha, _generic_cocharacter(g)), g.dim)


def basis_expand(ctx: TorusContext, g: GKMGraph, basis, alpha: PiecewiseClass):
    """Coefficients c_k in S(T) with sum c_k * basis_k = alpha through the guarantee.

    Fails with NoSolution when alpha is outside the span and with Ambiguous
    when the basis is not free through the truncation.  Uniqueness is what
    the free-module structure theorems predict for honest bases.
    """
    if len(basis) != len(g.vertices):
        raise ValueError("basis size must equal the number of fixed points")
    guar = min([alpha.guarantee] + [b.guarantee for b in basis])
    supports = []
    for b in basis:
        supp = [v for v, s in b.values.items() if not s.is_zero()]
        supports.append(supp)
    if all(len(s) == 1 for s in supports) and len({s[0] for s in supports}) == len(basis):
        out = []
        for b, supp in zip(basis, supports):
            v = supp[0]
            try:
                out.append(alpha.values[v].divide_exact(b.values[v]))
            except NotDivisible as exc:
                raise NoSolution(f"component at {v} is not a multiple of the basis value") from exc
        return out
    return _expand_linear(ctx, g, basis, alpha, guar)


def _expand_linear(ctx, g, basis, alpha, guar):
    lows = []
    for b in basis:
        degs = [s.lowest_degree() for s in b.values.values() if not s.is_zero()]
        if not degs:
            raise Ambiguous("zero basis element")
        lows.append(min(degs))
    if ctx.fgl.is_specialized:
        jobs = [(None, alpha, [None] * len(basis))]
    else:
        comps = alpha.homogeneous_components()
        bdegs = []
        for b in basis:
            degs = {s.homogeneous_degree() for s in b.values.values() if not s.is_zero()}
            if len(degs) != 1:
                raise ValueError("basis element is not homogeneous")
            bdegs.append(degs.pop())
        if not comps:
            comps = {0: constant_class(ctx, g, 0)}
        jobs = [(j, comp, bdegs) for j, comp in comps.items()]
    totals = [ctx.zero().truncated(min(guar, ctx.D)) for _ in basis]
    for j, comp, bdegs in jobs:
        sols = _expand_component(ctx, g, basis, comp, guar, lows, j, bdegs)
        totals = [t + s for t, s in zip(totals, sols)]
    return totals


def _m_monomials(weight, max_index):
    """All m-exponent tuples of the given weight with parts <= max_index."""
    if weight == 0:
        return [()]
    out = []

    def rec(remaining, index, acc):
        if remaining == 0:
            exps = [0] * max_index
            for i, e in acc:
                exps[i - 1] = e
            n = len(exps)
            while n and exps[n - 1] == 0:
                n -= 1
            out.append(tuple(exps[:n]))
            return
        if index == 0:
            return
        for e in range(remaining // index, -1, -1):
            rec(remaining - e * index, index - 1, acc + [(index, e)] if e else acc)

    rec(weight, max_index, [])
    return sorted(out)


def _t_monomials(rank, max_deg):
    out = []
    for deg in range(max_deg + 1):
        for c in itertools.combinations_with_replacement(range(rank), deg):
            exps = [0] * rank
            for i in c:
                exps[i] += 1
            out.append(tuple(exps))
    return out


def _expand_component(ctx, g, basis, alpha, guar, lows, j, bdegs):
    rank = ctx.rank
    dc = ctx.fgl.Dc
    specialized = ctx.fgl.is_specialized
    slots = []
    by_weight = {}  # m-monomials of each weight, enumerated once per component
    for k, b in enumerate(basis):
        cap = guar - lows[k]
        if cap < 0:
            continue
        for tmon in _t_monomials(rank, cap):
            e = sum(tmon)
            if specialized:
                slots.append((k, tmon, ()))
            else:
                w = e + bdegs[k] - j
                if w < 0:
                    continue
                mmons = by_weight.get(w)
                if mmons is None:
                    mmons = by_weight[w] = _m_monomials(w, dc)
                for mmon in mmons:
                    slots.append((k, tmon, mmon))
    eq_index = {}
    columns = []
    for k, tmon, mmon in slots:
        col = {}
        b = basis[k]
        sd = sum(tmon)
        for v, s in b.values.items():
            for texp, c in s.coeffs.items():
                if sd + sum(texp) > guar:
                    continue
                tkey = tuple(x + y for x, y in zip(tmon, texp))
                for mexp, q in c.terms.items():
                    key = (v, tkey, madd(mmon, mexp))
                    row = eq_index.setdefault(key, len(eq_index))
                    col[row] = col.get(row, 0) + q
        columns.append(col)
    rhs_map = {}
    for v in g.vertices:
        s = alpha.values[v]
        for texp, c in s.coeffs.items():
            if sum(texp) > guar:
                continue
            for mexp, q in c.terms.items():
                key = (v, texp, mexp)
                row = eq_index.setdefault(key, len(eq_index))
                rhs_map[row] = q
    nrows = len(eq_index)
    rows = [{} for _ in range(nrows)]
    for ci, col in enumerate(columns):
        for ri, q in col.items():
            rows[ri][ci] = q
    rhs = [rhs_map.get(i, 0) for i in range(nrows)]
    status, x = solve(rows, rhs, len(slots))
    if status == INCONSISTENT:
        raise NoSolution("class is not in the span of the basis")
    if status == UNDERDETERMINED:
        raise Ambiguous("basis is not free through the truncation")
    out = []
    for k in range(len(basis)):
        coeffs = {}
        for ci, (kk, tmon, mmon) in enumerate(slots):
            if kk != k or not x[ci]:
                continue
            gc = coeffs.setdefault(tmon, {})
            gc[mmon] = gc.get(mmon, 0) + x[ci]
        series = TruncSeries(
            ctx.vars,
            {t: GradedCoeff({m: q for m, q in mm.items() if q}) for t, mm in coeffs.items()},
            min(guar, ctx.D),
        )
        out.append(series)
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


def flag_graph(n: int) -> GKMGraph:
    """Complete flag variety of GL_n: vertices are permutations of 1..n."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > 9:
        raise ValueError("vertex ids use single digits; n <= 9")
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
