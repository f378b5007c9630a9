"""The rational cobordism ring of the full flag variety of GL_n.

The ring is the coinvariant algebra: polynomials in x_1..x_n over the
Lazard coefficients modulo the ideal of positive-degree symmetric
polynomials.  Normal forms live on the Artin staircase {x^a : a_i <= n-i};
reduction divides by the Groebner basis h_i(x_1, ..., x_{n+1-i}) (the
complete homogeneous polynomials; lexicographic order with x_n largest),
whose leading terms are the staircase walls x_{n+1-i}^i.  The division runs
one pass per wall, i = 1, ..., n: pass i lowers the power of x_{n+1-i}
below i, highest power first, and no later pass raises it again.  No global
term order is kept, as none is needed: the remainder of a division by a
Groebner basis is the same whatever order the reductions run in.

The bridge to the moment-graph model evaluates a polynomial at the
tautological weights t_{w(1)}, ..., t_{w(n)} of each coset w, read from
the coset table ``gkm.flag_cosets``: x^c restricts to the t-monomial whose
exponents are c permuted by w (``_t_exponent``), so restriction permutes
the polynomial's exponent keys and does no arithmetic.  Membership
in the ideal is decided by the normal form, and each answer is certified by
a second route.  The division records its cofactors g_i, and every answer
checks p = nf(p) + sum_i h_i g_i in one integer table, so p and nf(p) are
congruent modulo the ideal.  That settles a zero normal form.  A nonzero
one is certified by pairing nf(p), not p, against the Artin basis: the
pairing integrates x-monomials by the sum of ``gkm.integrate``, in the
logarithmic coordinate (integer power-sum moments over the cosets, weighted
by the law's characteristic series), one integral per monomial with no
class or series formed; ``kernel_check`` pairs in descending Artin degree
and stops at the first nonzero pairing.  ``artin_pairing``, the whole
pairing of p, is the test oracle for both answers.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator

from torcob.coeff import GradedCoeff
from torcob.errors import TooLarge, TruncationInsufficient
from torcob.fgl import build
from torcob.gkm import PiecewiseClass, _log_integral, flag_cosets, flag_graph
# Looked up here by the benchmark's tracer (e2ebench/spans.py); unused in this module.
from torcob.gkm import basis_expand  # noqa: F401
from torcob.kernels import convolve, mul_acc
from torcob.series import TruncSeries, _canonical, _series
from torcob.torus import TorusContext

XBOUND = 1 << 30  # polynomials: no truncation in practice
_ONE = {0: 1}  # the numerator map of 1

# Size guards: kernel_check above this rank, coinv_rank above this one, and
# a division that would build a Groebner wall h_i of more terms.
MAX_KERNEL_RANK = 6
MAX_COINV_RANK = 9
MAX_WALL_TERMS = 50000


def xvars(n: int):
    return tuple(f"x{i + 1}" for i in range(n))


def x_poly(n: int, terms) -> TruncSeries:
    return TruncSeries(xvars(n), terms, XBOUND)


def x_var(n: int, k: int) -> TruncSeries:
    """x_k, 1-based."""
    return TruncSeries.variable(xvars(n), f"x{k}", XBOUND)


def elementary_symmetric(n: int, k: int) -> TruncSeries:
    if not 0 <= k <= n:
        raise ValueError("elementary symmetric index out of range")
    terms = {}
    for c in itertools.combinations(range(n), k):
        exps = [0] * n
        for i in c:
            exps[i] = 1
        terms[tuple(exps)] = GradedCoeff.one()
    return x_poly(n, terms)


def _wall(n: int, i: int) -> list:
    """The exponents of h_i(x_1, ..., x_m), m = n + 1 - i: every monomial of
    degree i in those variables, read off i stars and m - 1 bars, with the
    lead x_m^i first.

    Every h_i is monic with all coefficients 1, so its exponents are the
    whole polynomial.  It has C(n, i) terms; above MAX_WALL_TERMS it is
    refused with TooLarge before any is built.
    """
    size = math.comb(n, i)
    if size > MAX_WALL_TERMS:
        raise TooLarge(f"the wall h_{i} at rank {n} has {size} terms, above the limit {MAX_WALL_TERMS}")
    m = n + 1 - i
    return [tuple(b - a - 1 for a, b in zip((-1, *c), (*c, i + m - 1))) + (0,) * (i - 1)
            for c in itertools.combinations(range(i + m - 1), m - 1)]


def normal_form(n: int, p: TruncSeries) -> TruncSeries:
    """Reduce onto the Artin staircase; a ring map to the quotient.

    The basis is homogeneous and the quotient is zero above degree
    n(n-1)/2, so the parts of p above that degree are dropped unreduced.
    """
    return _divide(n, p, n * (n - 1) // 2)[0]


def _divide(n: int, p: TruncSeries, top=None) -> tuple:
    """(normal form, cofactors): the division of p by the Groebner basis.

    Runs on p's integer numerators, one pass per wall i = 1, ..., n.  With
    k = n + 1 - i, the lead x_k^i of h_i is the only lead in x_k, and every
    other term of h_i has a lower power of x_k and no variable above x_k.
    So pass i takes the terms c x^t with t_k >= i, the highest power of x_k
    first, and subtracts c x^(t - lead) h_i from each: the numerator map -c
    is added to every other term of the shifted h_i.  Those terms have a
    lower power of x_k, and the same powers of x_(k+1), ..., x_n, so no term
    is reduced twice and no later pass undoes an earlier one; what is left
    lies on the staircase.  The remainder of a division by a Groebner basis
    is unique whatever order the reductions run in (Cox, Little, O'Shea,
    Ideals, Varieties, and Algorithms, ch. 2 sec. 6), so it is the normal
    form, over p's denominator.  The cofactors are one table per wall used,
    {i: {shift: numerator map}} over p's denominator, so that
    p = sum_i h_i g_i + nf(p); h_i is built only when some term needs it.
    With ``top``, the terms of p above that degree are dropped first, and no
    cofactor accounts for them.
    """
    if p.vars != xvars(n):
        raise ValueError("polynomial is not in the expected x-variables")
    work = {t: dict(c) for t, c in p.num.items() if top is None or sum(t) <= top}
    cofactors = {}
    for i, k in enumerate(reversed(range(n)), start=1):  # x_(k+1) carries the lead of h_i
        heap = sorted((-t[k], t) for t in work if t[k] >= i)  # a sorted list is a heap
        if not heap:
            continue
        rest = _wall(n, i)[1:]
        g = cofactors[i] = {}
        while heap:
            t = heapq.heappop(heap)[1]
            c = work.pop(t, None)
            if c is None:  # cancelled after it was queued
                continue
            shift = t[:k] + (t[k] - i,) + t[k + 1:]
            g[shift] = c
            neg = [(m, -x) for m, x in c.items()]
            for e in rest:
                key = tuple(map(operator.add, e, shift))
                tgt = work.get(key)
                if tgt is None:
                    work[key] = dict(neg)
                    if key[k] >= i:
                        heapq.heappush(heap, (-key[k], key))
                elif not mul_acc(tgt, neg, _ONE):
                    del work[key]
    return _canonical(p.vars, work, p.den, XBOUND), cofactors


def _certify(n: int, p: TruncSeries, nf: TruncSeries, cofactors) -> None:
    """Check p = nf + sum_i h_i g_i; raise ArithmeticError if not.

    One integer table over p's denominator, which nf's divides (``_divide``
    settles nf over p's denominator): nf rescaled to it, then each product
    h_i g_i added by ``kernels.convolve``, with h_i built afresh from the
    exponents of ``_wall(n, i)`` and every coefficient 1.  The table must
    equal p's numerators.  The walls' exponents (``_wall``) and the
    accumulate step (``kernels.mul_acc``, inside ``convolve``) are shared
    with ``_divide``; what the check tests apart from it is the bookkeeping
    of its passes: their order, the shifts and the cofactors recorded.
    """
    f = p.den // nf.den
    acc = {t: {m: x * f for m, x in c.items()} for t, c in nf.num.items()}
    for i, g in cofactors.items():
        convolve({e: _ONE for e in _wall(n, i)}, g, None, out=acc)
    if acc != p.num:
        raise ArithmeticError("the division's cofactors do not recombine to the polynomial")


def artin_exponents(n: int):
    """The staircase exponents a with a_i <= n - i, in graded-lex order."""
    ranges = [range(n - i + 1) for i in range(1, n + 1)]
    exps = [tuple(a) for a in itertools.product(*ranges)]
    return sorted(exps, key=lambda e: (sum(e), tuple(-x for x in e)))


def coinv_rank(n: int):
    """(n!, Artin staircase): the free rank over the Lazard ring."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > MAX_COINV_RANK:
        raise TooLarge(f"rank {n} is above the limit {MAX_COINV_RANK}")
    basis = artin_exponents(n)
    count = math.factorial(n)
    if len(basis) != count:
        raise ArithmeticError("staircase does not enumerate n! monomials")
    return count, basis


def require_degree(p: TruncSeries, D: int):
    """Refuse a polynomial of degree above the truncation D."""
    deg = p.max_degree() or 0
    if deg > D:
        raise TruncationInsufficient(f"polynomial degree {deg} exceeds series truncation {D}")


def _t_exponent(w):
    """The map from an x-exponent c to its t-exponent at the coset w.

    x_k restricts to t_{w(k)}, so t_i carries the exponent c_k with w(k) = i.
    """
    inverse = [0] * len(w)
    for k, i in enumerate(w):
        inverse[i - 1] = k
    return operator.itemgetter(*inverse) if len(w) > 1 else tuple


def flag_restriction(ctx: TorusContext, n: int, p: TruncSeries) -> PiecewiseClass:
    """Evaluate p at the tautological weights of each coset: x_k -> t_{w(k)}.

    At each coset the t-exponents are p's x-exponents permuted
    (``_t_exponent``), over p's numerators and denominator, so the value
    is canonical as it stands; its guarantee is the lower of p's and the
    context's truncation, which bounds p's degree.
    """
    if ctx.rank != n:
        raise ValueError("torus rank must equal n")
    if p.vars != xvars(n):
        raise ValueError("polynomial is not in the expected x-variables")
    cosets = flag_cosets(n)
    require_degree(p, ctx.D)
    guarantee = min(p.guarantee, ctx.D)
    values = {}
    for v, w in cosets:
        at = _t_exponent(w)
        values[v] = _series(ctx.vars, {at(c): x for c, x in p.num.items()}, p.den, guarantee)
    return PiecewiseClass(values)


def artin_pairing(ctx: TorusContext, n: int, p: TruncSeries) -> list:
    """[integral of p * x^a over Fl_n for a in artin_exponents(n)].

    The integrals are summed in the logarithmic coordinate of ``gkm``, with
    no series formed: at the coset w, x_k restricts to t_{w(k)}, so x^c has
    the vertex values t^(e_w), each of weight 1, and ``gkm._log_integral``
    gives its integral R_dim(c) = sum_(|mu| = dim - |c|) q_mu N_mu(c) / aut(mu)
    in integers, every lower level certified zero.  Each R_dim(c) is
    computed once per call, and the integral of p x^a is
    sum_b p_b R_dim(a + b) over the monomials p_b x^b of p, accumulated
    with ``mul_acc``.  A truncation at or below dim = n(n-1)/2 is raised to
    dim + 1 in a law built here.  The cosets and their exponent maps come
    from ``gkm.flag_cosets`` and ``_t_exponent``; the flag graph is built
    only for its tangent moments.
    """
    return list(_pairings(ctx, n, p, artin_exponents(n)))


def _pairings(ctx, n, p, exponents):
    """Yield the integral of p * x^a for each a of ``exponents`` in turn, as
    ``artin_pairing`` computes it; nothing is computed for an a not reached."""
    if ctx.rank != n:
        raise ValueError("torus rank must equal n")
    if p.vars != xvars(n):
        raise ValueError("polynomial is not in the expected x-variables")
    g = flag_graph(n)
    law = ctx.fgl
    if law.D <= g.dim:
        law = build(law.Dc, g.dim + 1, law.specialization)
    cosets = [(v, _t_exponent(w)) for v, w in flag_cosets(n)]
    integrals = {}
    den = 1  # shared by every integral, set by the first
    for a in exponents:
        acc = {}
        for b, pb in p.num.items():
            c = tuple(map(operator.add, a, b))
            if sum(c) > g.dim:
                continue
            if c not in integrals:
                terms = [(v, get(c), 1) for v, get in cosets]
                integrals[c], den = _log_integral(law, g, {(sum(c), 0): terms})
            mul_acc(acc, pb.items(), integrals[c])
        yield GradedCoeff.from_numerators(acc, den * p.den)


def kernel_check(ctx: TorusContext, n: int, p: TruncSeries) -> bool:
    """True iff p maps to zero in the flag cobordism ring.

    The coinvariant normal form decides, and each answer is certified by a
    second route past the reduction's passes.  Both answers check the
    division's cofactors, p = nf + sum_i h_i g_i (``_certify``); every h_i
    lies in the ideal of positive-degree symmetric polynomials, so p and nf
    are congruent modulo it, and a zero nf is certified.  A nonzero nf is
    certified by the Bott residue pairing of ``artin_pairing``, summed as
    integer power-sum moments, of nf itself: nf is nonzero in the quotient
    iff its integral against some Artin monomial is (Poincare duality; the
    pairing matrix is unimodular).  Pairing p would give the same numbers,
    but its ideal part pairs to zero only as a sum, not term by term, so
    nf's few staircase terms are paired instead.  The pairings run in
    descending Artin degree and stop at the first nonzero one, so a
    polynomial outside the kernel usually needs one integral (under the
    additive law only |a| = dim - deg nf pairs nonzero), and a polynomial in
    the kernel needs none.  A failed certificate raises ArithmeticError.  A
    polynomial above the truncation, or a rank above MAX_KERNEL_RANK, is
    refused.
    """
    if n > MAX_KERNEL_RANK:
        raise TooLarge(f"rank {n} is above the limit {MAX_KERNEL_RANK}")
    if ctx.rank != n:
        raise ValueError("torus rank must equal n")
    require_degree(p, ctx.D)
    nf, cofactors = _divide(n, p)
    _certify(n, p, nf, cofactors)
    if nf.is_zero():
        return True
    descending = reversed(artin_exponents(n))
    if all(c.is_zero() for c in _pairings(ctx, n, nf, descending)):
        raise ArithmeticError("the normal form is nonzero but every Artin pairing vanishes")
    return False
