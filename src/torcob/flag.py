"""The rational cobordism ring of the full flag variety of GL_n.

The ring is the coinvariant algebra: polynomials in x_1..x_n over the
Lazard coefficients modulo the ideal of positive-degree symmetric
polynomials.  Normal forms live on the Artin staircase {x^a : a_i <= n-i};
reduction divides by the Groebner basis h_i(x_1, ..., x_{n+1-i}) under the
lexicographic order with x_n largest, whose leading terms are the staircase
walls x_{n+1-i}^i.

The bridge to the moment-graph model evaluates a polynomial at the
tautological weights t_{w(1)}, ..., t_{w(n)} of each coset w, read from
the coset table ``gkm.flag_cosets``: x^c restricts to the t-monomial whose
exponents are c permuted by w (``_t_exponent``), so restriction permutes
the polynomial's exponent keys and does no arithmetic.  Membership
in the ideal is decided by the normal form, and each answer is certified by
a second route.  The division records its cofactors g_i, so that
p = sum_i h_i g_i + nf(p); a zero normal form is certified by forming
p - sum_i h_i g_i with series products and finding zero.  A nonzero one is
certified by pairing against the Artin basis: the pairing integrates
x-monomials by the sum of ``gkm.integrate``, in the logarithmic coordinate
(integer power-sum moments over the cosets, weighted by the law's
characteristic series), one integral per monomial with no class or series
formed; ``kernel_check`` pairs in descending Artin degree and stops at the
first nonzero pairing.  ``artin_pairing``, the whole pairing, is the test
oracle for both answers.
"""

from __future__ import annotations

import itertools
import math
import operator

from torcob.coeff import GradedCoeff
from torcob.errors import TooLarge, TruncationInsufficient
from torcob.fgl import build
from torcob.gkm import PiecewiseClass, _log_integral, flag_cosets, flag_graph
# Looked up here by the benchmark's tracer (e2ebench/spans.py); unused in this module.
from torcob.gkm import basis_expand  # noqa: F401
from torcob.kernels import mul_acc
from torcob.series import TruncSeries, _canonical, _series, signed_sum
from torcob.torus import TorusContext

XBOUND = 1 << 30  # polynomials: no truncation in practice
_ONE = {0: 1}  # the numerator map of 1

# Size guards: kernel_check above this rank, coinv_rank above this one.
MAX_KERNEL_RANK = 6
MAX_COINV_RANK = 9


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


def _order_key(exps):
    # lexicographic with x_n > ... > x_1
    return tuple(reversed(exps))


def _groebner_basis(n: int, top: int):
    """(leading exponent, the other exponents) of each h_i(x_1, ..., x_{n+1-i})
    with i <= ``top``.

    Every h_i is monic with all coefficients 1, so its exponents are the
    whole polynomial.  Its lead has degree i, so the h_i above a polynomial's
    degree divide none of its terms, and they are not built.
    """
    out = []
    for i in range(1, min(n, top) + 1):
        lead = [0] * n
        lead[n - i] = i
        lead = tuple(lead)
        rest = []
        for c in itertools.combinations_with_replacement(range(n + 1 - i), i):
            exps = [0] * n
            for j in c:
                exps[j] += 1
            if tuple(exps) != lead:
                rest.append(tuple(exps))
        out.append((lead, rest))
    return out


def normal_form(n: int, p: TruncSeries) -> TruncSeries:
    """Reduce onto the Artin staircase; a ring map to the quotient.

    The basis is homogeneous and the quotient is zero above degree
    n(n-1)/2, so the parts of p above that degree are dropped unreduced.
    """
    return _divide(n, p, n * (n - 1) // 2)[0]


def _divide(n: int, p: TruncSeries, top=None) -> tuple:
    """(normal form, cofactors): the division of p by the Groebner basis.

    Runs on p's integer numerators: each step takes the largest term c x^t
    left, and where a leading term x^lead divides it subtracts
    c x^(t - lead) h_i, that is the numerator map -c added to every other
    term of the shifted h_i; the normal form is p's denominator over the
    terms no lead divides.  The cofactors are one table per h_i,
    {shift: numerator map} over p's denominator, so that
    p = sum_i h_i g_i + nf(p); a term, once reduced, never comes back (every
    term of the shifted h_i lies below it), so each (i, shift) is recorded
    once and is never added to.  With ``top``, the terms of p above that
    degree are dropped first, and no cofactor accounts for them.  Only the
    h_i up to the degree of what is left are built, one cofactor each.
    """
    if p.vars != xvars(n):
        raise ValueError("polynomial is not in the expected x-variables")
    work = {t: dict(c) for t, c in p.num.items() if top is None or sum(t) <= top}
    gb = _groebner_basis(n, max(map(sum, work), default=0))
    cofactors = [{} for _ in gb]
    done = {}
    while work:
        t = max(work, key=_order_key)
        c = work.pop(t)
        for (lead, rest), g in zip(gb, cofactors):
            if all(l <= e for l, e in zip(lead, t)):
                shift = tuple(e - l for e, l in zip(t, lead))
                g[shift] = c
                neg = [(m, -x) for m, x in c.items()]
                for gt in rest:
                    key = tuple(a + b for a, b in zip(gt, shift))
                    tgt = work.get(key)
                    if tgt is None:
                        work[key] = dict(neg)
                    elif not mul_acc(tgt, neg, _ONE):
                        del work[key]
                break
        else:
            done[t] = c
    return _canonical(p.vars, done, p.den, XBOUND), cofactors


def _certify(n: int, p: TruncSeries, cofactors) -> None:
    """Check p = sum_i h_i g_i by ``TruncSeries`` products; raise ArithmeticError if not.

    Each h_i is built afresh from its exponents as a series with every
    coefficient 1, and each g_i from its table over p's denominator; the
    products and the signed sum share no code with ``_divide``'s loop.
    """
    summands = [(1, p)]
    for (lead, rest), g in zip(_groebner_basis(n, len(cofactors)), cofactors):
        if g:
            h = _series(p.vars, {e: _ONE for e in (lead, *rest)}, 1, XBOUND)
            summands.append((-1, h * _canonical(p.vars, g, p.den, XBOUND)))
    if not signed_sum(summands).is_zero():
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
    route that shares no code with the reduction.  A zero normal form is
    certified by the division's cofactors: p = sum_i h_i g_i is checked by
    ``TruncSeries`` products (``_certify``), and every h_i lies in the
    ideal of positive-degree symmetric polynomials.  A nonzero normal form
    is certified by the Bott residue pairing of ``artin_pairing``, summed as
    integer power-sum moments: p is nonzero iff its integral against some
    Artin monomial is (Poincare duality; the pairing matrix is unimodular).
    The pairings run in descending Artin degree and stop at the first
    nonzero one, so a polynomial outside the kernel usually needs one
    integral (under the additive law only |a| = dim - deg p pairs nonzero),
    and a polynomial in the kernel needs none.  A failed certificate raises
    ArithmeticError.  A polynomial above the truncation, or a rank above
    MAX_KERNEL_RANK, is refused.
    """
    if n > MAX_KERNEL_RANK:
        raise TooLarge(f"rank {n} is above the limit {MAX_KERNEL_RANK}")
    if ctx.rank != n:
        raise ValueError("torus rank must equal n")
    require_degree(p, ctx.D)
    nf, cofactors = _divide(n, p)
    if nf.is_zero():
        _certify(n, p, cofactors)
        return True
    descending = reversed(artin_exponents(n))
    if all(c.is_zero() for c in _pairings(ctx, n, p, descending)):
        raise ArithmeticError("the normal form is nonzero but every Artin pairing vanishes")
    return False
