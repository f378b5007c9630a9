"""The rational cobordism ring of the full flag variety of GL_n.

The ring is the coinvariant algebra: polynomials in x_1..x_n over the
Lazard coefficients modulo the ideal of positive-degree symmetric
polynomials.  Normal forms live on the Artin staircase {x^a : a_i <= n-i};
reduction divides by the Groebner basis h_i(x_1, ..., x_{n+1-i}) under the
lexicographic order with x_n largest, whose leading terms are the staircase
walls x_{n+1-i}^i.

The bridge to the moment-graph model evaluates a polynomial at the
tautological weights t_{w(1)}, ..., t_{w(n)} of each coset w.  Membership
in the ideal is decided twice: by the normal form, and by pairing against
the Artin basis.  The pairing integrates x-monomials by the sum of
``gkm.integrate``, in the logarithmic coordinate (integer power-sum moments
over the cosets, weighted by the law's characteristic series), one
integral per monomial with no class or series formed.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from torcob.coeff import GradedCoeff
from torcob.errors import TooLarge, TruncationInsufficient
from torcob.fgl import build
from torcob.gkm import PiecewiseClass, _log_integral, flag_graph
# Looked up here by the benchmark's tracer (e2ebench/spans.py); unused in this module.
from torcob.gkm import basis_expand  # noqa: F401
from torcob.kernels import mul_acc
from torcob.series import TruncSeries
from torcob.torus import TorusContext

XBOUND = 1 << 30  # polynomials: no truncation in practice

# Size guards: kernel_check above this rank, coinv_rank above this one.
MAX_KERNEL_RANK = 6
MAX_COINV_RANK = 9


def xvars(n: int):
    return tuple(f"x{i + 1}" for i in range(n))


def x_poly(n: int, terms) -> TruncSeries:
    return TruncSeries(xvars(n), terms, XBOUND)


def x_zero(n: int) -> TruncSeries:
    return TruncSeries.zero(xvars(n), XBOUND)


def x_one(n: int) -> TruncSeries:
    return TruncSeries.constant(xvars(n), 1, XBOUND)


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


def complete_homogeneous(n: int, k: int, nvars: int) -> TruncSeries:
    """h_k(x_1, ..., x_nvars) inside the n-variable ring."""
    terms = {}
    for c in itertools.combinations_with_replacement(range(nvars), k):
        exps = [0] * n
        for i in c:
            exps[i] += 1
        terms[tuple(exps)] = GradedCoeff.one()
    return x_poly(n, terms)


def _order_key(exps):
    # lexicographic with x_n > ... > x_1
    return tuple(reversed(exps))


def _groebner_basis(n: int):
    """(leading exponent, polynomial terms) pairs for the symmetric ideal."""
    out = []
    for i in range(1, n + 1):
        g = complete_homogeneous(n, i, n + 1 - i)
        lead = [0] * n
        lead[n - i] = i
        out.append((tuple(lead), g.coeffs))
    return out


def normal_form(n: int, p: TruncSeries) -> TruncSeries:
    """Reduce onto the Artin staircase; a ring map to the quotient."""
    if p.vars != xvars(n):
        raise ValueError("polynomial is not in the expected x-variables")
    gb = _groebner_basis(n)
    work = dict(p.coeffs)
    done = {}
    while work:
        t = max(work, key=_order_key)
        c = work.pop(t)
        if c.is_zero():
            continue
        for lead, gterms in gb:
            if all(l <= e for l, e in zip(lead, t)):
                shift = tuple(e - l for e, l in zip(t, lead))
                for gt, gc in gterms.items():
                    key = tuple(a + b for a, b in zip(gt, shift))
                    if key == t:
                        continue
                    prev = work.get(key, GradedCoeff.zero())
                    nxt = prev - gc * c
                    if nxt.is_zero():
                        work.pop(key, None)
                    else:
                        work[key] = nxt
                break
        else:
            done[t] = c
    return x_poly(n, done)


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


def flag_restriction(ctx: TorusContext, n: int, p: TruncSeries) -> PiecewiseClass:
    """Evaluate p at the tautological weights of each coset: x_k -> t_{w(k)}."""
    if ctx.rank != n:
        raise ValueError("torus rank must equal n")
    g = flag_graph(n)
    require_degree(p, ctx.D)
    values = {}
    for v in g.vertices:
        w = [int(c) for c in v]
        assignment = {f"x{k + 1}": ctx.var(w[k] - 1) for k in range(n)}
        values[v] = p.substitute(assignment)
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
    dim + 1 in a law built here.
    """
    if ctx.rank != n:
        raise ValueError("torus rank must equal n")
    if p.vars != xvars(n):
        raise ValueError("polynomial is not in the expected x-variables")
    g = flag_graph(n)
    law = ctx.fgl
    if law.D <= g.dim:
        law = build(law.Dc, g.dim + 1, law.specialization)
    # at the coset w, t_i carries the exponent of x_k with w(k) = i
    cosets = []
    for v in g.vertices:
        inverse = sorted(range(n), key=lambda k: v[k])
        cosets.append((v, operator.itemgetter(*inverse) if n > 1 else tuple))
    integrals = {}
    den = 1  # shared by every integral, set by the first
    out = []
    for a in artin_exponents(n):
        acc = {}
        for b, pb in p.num.items():
            c = tuple(map(operator.add, a, b))
            if sum(c) > g.dim:
                continue
            if c not in integrals:
                terms = [(v, get(c), 1) for v, get in cosets]
                integrals[c], den = _log_integral(law, g, {(sum(c), ()): terms})
            mul_acc(acc, pb.items(), integrals[c])
        out.append(acc)
    den *= p.den
    return [GradedCoeff({m: Fraction(x, den) for m, x in acc.items()}) for acc in out]


def kernel_check(ctx: TorusContext, n: int, p: TruncSeries) -> bool:
    """True iff p maps to zero in the flag cobordism ring.

    Two independent routes must agree: the coinvariant normal form, and the
    Bott residue pairing of ``artin_pairing``, summed as integer power-sum
    moments: p is zero iff its integral against every Artin monomial
    vanishes (Poincare duality; the pairing matrix is unimodular).  A
    polynomial above the truncation, or a rank above MAX_KERNEL_RANK, is
    refused.
    """
    if n > MAX_KERNEL_RANK:
        raise TooLarge(f"rank {n} is above the limit {MAX_KERNEL_RANK}")
    require_degree(p, ctx.D)
    nf_zero = normal_form(n, p).is_zero()
    pairing_zero = all(c.is_zero() for c in artin_pairing(ctx, n, p))
    if nf_zero != pairing_zero:
        raise ArithmeticError(
            f"normal-form route ({nf_zero}) disagrees with the residue-pairing route ({pairing_zero})"
        )
    return nf_zero
