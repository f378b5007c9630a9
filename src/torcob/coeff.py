"""Coefficient ring arithmetic: the rationalized Lazard ring.

With rational coefficients the Lazard ring is the free polynomial ring
Q[m1, m2, ...] on the logarithm coefficients, so a coefficient is a sparse
polynomial with exact rational coefficients.  The generator ``m_i`` sits in
cohomological degree ``-i``; no floating point is used anywhere.

A ``GradedCoeff`` is the coefficient type of answers and rendering.  Its
exponent vectors are tuples with trailing zeros trimmed, position ``p``
holding the exponent of ``m_{p+1}``; the empty tuple is the constant
monomial.  Below it, coefficients are maps {m-key: number} on the packed
integer keys of ``kernels``, and this module and ``series`` are the only
ones that convert: ``__mul__`` packs on entry and unpacks on exit, and
``GradedCoeff.from_numerators`` is the one step from a map of integer
numerators over a denominator to a ``GradedCoeff``.  ``inverse_powers``
takes and returns key maps of integer numerators, so the law's sums never
leave that format and form no ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from torcob.kernels import mul_acc, pack, unpack


def _trim(exps):
    n = len(exps)
    while n and exps[n - 1] == 0:
        n -= 1
    return tuple(exps[:n])


def mweight(exps: tuple) -> int:
    """Weight of an m-monomial: sum of i * exp(m_i).  Cohomological degree is -weight."""
    return sum((p + 1) * e for p, e in enumerate(exps))


def _sort_key(exps: tuple):
    # graded order: weight first, then lexicographically largest exponent
    # vector first (so m1^2 precedes m2)
    return (mweight(exps), tuple(-e for e in exps))


class GradedCoeff:
    """Element of Q[m1, m2, ...], stored as {exponent tuple: Fraction}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms if terms is not None else {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> GradedCoeff:
        return cls({})

    @classmethod
    def one(cls) -> GradedCoeff:
        return cls({(): Fraction(1)})

    @classmethod
    def from_rational(cls, q) -> GradedCoeff:
        q = Fraction(q)
        return cls({(): q} if q else {})

    @classmethod
    def generator(cls, i: int) -> GradedCoeff:
        """The Lazard generator m_i, of cohomological degree -i."""
        if i < 1:
            raise ValueError("generator index must be >= 1")
        exps = (0,) * (i - 1) + (1,)
        return cls({exps: Fraction(1)})

    @classmethod
    def from_numerators(cls, num, den) -> GradedCoeff:
        """The coefficient of the {m-key: int} map ``num`` over ``den``."""
        return cls({unpack(m): Fraction(x, den) for m, x in num.items()})

    @classmethod
    def monomial(cls, exps, q=1) -> GradedCoeff:
        q = Fraction(q)
        return cls({_trim(exps): q} if q else {})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    # -- grading -----------------------------------------------------------

    def degrees(self):
        """Sorted list of cohomological degrees present."""
        return sorted({-mweight(e) for e in self.terms})

    def homogeneous_degree(self):
        """The single cohomological degree, or None if zero or mixed."""
        degs = self.degrees()
        if len(degs) == 1:
            return degs[0]
        return None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: GradedCoeff) -> GradedCoeff:
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for e, q in other.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = q
            else:
                s = s + q
                if s:
                    out[e] = s
                else:
                    del out[e]
        return GradedCoeff(out)

    def __neg__(self) -> GradedCoeff:
        return GradedCoeff({e: -q for e, q in self.terms.items()})

    def __sub__(self, other: GradedCoeff) -> GradedCoeff:
        return self + (-other)

    def __mul__(self, other: GradedCoeff) -> GradedCoeff:
        prod = mul_acc({}, _packed(self.terms).items(), _packed(other.terms))
        return GradedCoeff({unpack(m): q for m, q in prod.items()})

    def scale(self, q) -> GradedCoeff:
        q = Fraction(q)
        if not q:
            return GradedCoeff.zero()
        return GradedCoeff({e: c * q for e, c in self.terms.items()})

    def __pow__(self, n: int) -> GradedCoeff:
        if n < 0:
            raise ValueError("negative power of a coefficient")
        out = GradedCoeff.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedCoeff):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- substitution ------------------------------------------------------

    def specialize(self, value_of) -> GradedCoeff:
        """Substitute m_i -> value_of(i) (an exact rational) everywhere."""
        out = Fraction(0)
        for e, q in self.terms.items():
            v = q
            for p, k in enumerate(e):
                if k:
                    v *= Fraction(value_of(p + 1)) ** k
            out += v
        return GradedCoeff.from_rational(out)

    # -- rendering ---------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _sort_key(kv[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for e, q in self.sorted_terms():
            pieces.append((q < 0, _term_text(e, abs(q))))
        return join_signed(pieces)

    def __repr__(self) -> str:
        return f"GradedCoeff({self})"


def _mon_text(exps: tuple) -> str:
    parts = []
    for p, k in enumerate(exps):
        if k == 0:
            continue
        parts.append(f"m{p + 1}" if k == 1 else f"m{p + 1}^{k}")
    return "*".join(parts)


def _term_text(exps: tuple, mag: Fraction, tmon: str = "") -> str:
    """The term mag * m^exps * tmon, with a factor 1 left out unless it stands alone."""
    factors = [f for f in (_mon_text(exps), tmon) if f]
    if mag != 1 or not factors:
        factors.insert(0, str(mag))
    return "*".join(factors)


def partitions(n: int) -> list:
    """Every partition of size <= n, parts nonincreasing, in depth-first preorder.

    Starts at the empty partition, and each partition is followed by those
    that extend it by one more part, so a prefix always comes first.  A
    partition with part multiplicities k_j is the m-monomial prod_j m_j^(k_j).
    """
    out = []

    def grow(mu, size, largest):
        out.append(mu)
        for p in range(1, min(largest, n - size) + 1):
            grow(mu + (p,), size + p, p)

    grow((), 0, n)
    return out


def inverse_powers(M: dict, den: int, n: int, shift: int) -> list:
    """[P_0, ..., P_n], {m-key: int} maps with P_k / den^k = [u^k] (1 + M(u))^-(k + shift).

    ``M`` maps j to the {m-key: int} numerators, over ``den``, of u^j in
    M(u), with no entry where that is zero; only the keys 1..n are read.
    For shift >= 0 and N = k + shift, the binomial series gives

        p_k = sum over partitions lambda of k of
              (-1)^l (N + l - 1)! / ((N - 1)! aut(lambda)) * M^lambda,

    where l is the length of lambda, M^lambda = prod_j M_j^(k_j) and
    aut(lambda) = prod_j k_j! over the part multiplicities k_j.  The weight
    is the integer +-C(N + l - 1, l) l! / aut(lambda), taken by exact floor
    division, and over den^k the term M^lambda carries den^(k - l): each
    part j enters as den^(j - 1) times the numerators of M_j.  So the sums
    run on integers only.  One depth-first walk over the partitions of size
    <= n, along their prefixes, makes one coefficient product per step and
    skips the parts j with M_j = 0.  These are the Lagrange-Burmann sums of
    the law's exponential and characteristic series (see ``fgl``).
    """
    out = [{0: 1}] + [{} for _ in range(n)]
    parts = {j: {m: x * den ** (j - 1) for m, x in c.items()} for j, c in M.items() if 1 <= j <= n}

    def grow(prod, size, last, run, length, aut):
        # prod = M^mu den^(|mu| - l) and aut = (-1)^l aut(mu) for the prefix mu,
        # run = multiplicity of last
        for p in range(1, min(last, n - size) + 1):
            c = parts.get(p)
            if c is not None:
                k, r = size + p, run + 1 if p == last else 1
                prod_p = mul_acc({}, prod.items(), c)
                w = factorial(k + shift + length) // (-factorial(k + shift - 1) * aut * r)
                mul_acc(out[k], prod_p.items(), {0: w})
                grow(prod_p, k, p, r, length + 1, -aut * r)

    grow({0: 1}, 0, n, 0, 0, 1)
    return out


def _packed(terms) -> dict:
    """A coefficient map with its exponent tuples packed into m-keys."""
    return {pack(e): q for e, q in terms.items()}


def join_signed(pieces) -> str:
    """Join (negative, text) pairs canonically: 'a - b + c'."""
    out = []
    for i, (neg, text) in enumerate(pieces):
        if i == 0:
            out.append("-" + text if neg else text)
        else:
            out.append((" - " if neg else " + ") + text)
    return "".join(out)
