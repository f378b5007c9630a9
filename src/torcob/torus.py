"""The equivariant base ring S(T) and character-level operations.

S(T) is the graded power series ring over the Lazard coefficients in
t_1..t_n, one variable per chosen basis character.  The first Chern class of
the line bundle of a character is the formal sum of n-series of the basis
variables; dividing by such classes is the effective form of the edge
congruences used by the moment-graph machinery.

Division by c(chi)^d is one exact division against the cached power
c(chi)^d, for every character.  The lowest homogeneous part of c(chi)^d is
(chi_1 t_1 + ... + chi_n t_n)^d, a nonzero polynomial with rational
coefficients, so ``TruncSeries.divide_exact`` solves q * c(chi)^d = f one
t-degree slice at a time in the domain Q[m][t]: each step clears the
remainder's leading t-monomial, dividing its whole coefficient in Q[m] by
the divisor's rational leading coefficient in one scaled copy.  That
decides each slice exactly, and the quotient is unique.  Membership has two
short cuts that need no division: when chi = m*e_a, c(chi) is t_a times a
unit, and when chi = m*(e_a - e_b) with d = 1, c(chi) is t_a - t_b times a
unit, so f is a multiple iff it vanishes at t_a = t_b.  One classifier,
``character_shape``, tells the axis, the difference and every other
character apart, for ``chern_divides`` and for the edge tests of ``gkm``.
Those tests ask whether two values x and y are congruent modulo c(chi)
without forming x - y: ``agree_off_axis`` compares their terms free of
t_a, ``agree_on_diagonal`` their restrictions to t_a = t_b, both through
the lower of the two guarantees and across the two denominators.

Membership that needs a division, of one factor (``chern_divides`` past its
short cuts) or of a product (``ideal_membership_product``), is decided by
one helper, ``_divides``: one exact division.  Each c(chi)^d is a
non-zero-divisor (its lowest part is nonzero in the domain Q[m][t]), so the
product P = prod c(chi_j)^(d_j) is one too, and f lies in (P) iff
``divide_exact`` of f by P succeeds.  ``chern_product`` caches P per
context under the sorted factor list, so the quotient of a multiple is the
small cofactor, reached without a dense intermediate quotient.  When the
characters extend pairwise to a lattice basis, the c(chi_j)^(d_j) form a
regular sequence, so the product of the ideals (c(chi_j)^(d_j)) equals
their intersection; acceptance criterion 9 tests that identity.  In any
ring (a*b) lies in (a) and in (b), so a product that holds certifies the
intersection.  Only when a product of several factors fails is the
intersection tested factor by factor, f itself against each factor without
a short cut, so the non-trivial inclusion (intersection in product) is
still computed wherever it could fail.  Truncation does not change either
answer: if q*P = f through G, then
(q * prod_{k != j} c(chi_k)^(d_k)) * c(chi_j)^(d_j) = f through G, so a
product that holds through G puts f in every factor's ideal through G.
Nor does the division run out of guarantee: the lowest parts
(chi_j . t)^(d_j) are pairwise coprime, so a nonzero f in every factor's
ideal has lowest degree at least sum d_j, which is then at most G.  A
nonzero f with a term below t-degree d is no multiple of c(chi)^d, whose
multiples start at degree d; the short cuts refuse it before any division.
"""

from __future__ import annotations

import math

from torcob.coeff import GradedCoeff
from torcob.errors import NotDivisible, TruncationInsufficient, ZeroCharacter
from torcob.fgl import FGLContext
from torcob.kernels import mul_acc
from torcob.series import TruncSeries, _times

Character = tuple


# -- character lattice helpers ----------------------------------------------


def content(chi) -> int:
    """gcd of the entries (0 for the zero vector)."""
    g = 0
    for x in chi:
        g = math.gcd(g, abs(x))
    return g


def character_shape(chi):
    """The shape of chi for the short cuts: (a, None) when chi = m*e_a,
    (a, b) when chi = m*(e_a - e_b) with m > 0, and None for every other
    character, the zero one included.

    The one classifier of the module docstring.
    """
    nz = [(i, x) for i, x in enumerate(chi) if x]
    if len(nz) == 1:
        return nz[0][0], None
    if len(nz) == 2 and nz[0][1] == -nz[1][1]:
        (i, x), (j, _) = nz
        return (i, j) if x > 0 else (j, i)
    return None


# -- congruences modulo an axis or difference Chern class -----------------------


def agree_off_axis(x: TruncSeries, y: TruncSeries, a: int) -> bool:
    """Whether x = y modulo t_a through min(G_x, G_y): they agree on every
    term free of t_a.  Compared on the numerators, cross-multiplied by the
    two denominators."""
    top = min(x.guarantee, y.guarantee)
    fx, fy = _free_of(x, a, top), _free_of(y, a, top)
    if fx.keys() != fy.keys():
        return False
    xd, yd = x.den, y.den
    if xd == yd:
        return fx == fy
    return all(_times(c, yd) == _times(fy[t], xd) for t, c in fx.items())


def agree_on_diagonal(x: TruncSeries, y: TruncSeries, a: int, b: int) -> bool:
    """Whether x = y modulo t_a - t_b through min(G_x, G_y): they agree
    after t_a -> t_b.  y.den * x - x.den * y is accumulated at t_a = t_b on
    the numerators and must cancel."""
    top = min(x.guarantee, y.guarantee)
    acc = {}
    for s, f in ((x, {0: y.den}), (y, {0: -x.den})):
        cut = s.guarantee > top
        for t, c in s.num.items():
            if cut and sum(t) > top:
                continue
            k = t[a]
            if k:
                t = list(t)
                t[b] += k
                t[a] = 0
                t = tuple(t)
            mul_acc(acc.setdefault(t, {}), c.items(), f)
    return not any(acc.values())


def _free_of(s: TruncSeries, a: int, top: int) -> dict:
    """The numerators of s's terms free of t_a, through degree top."""
    if s.guarantee > top:
        return {t: c for t, c in s.num.items() if not t[a] and sum(t) <= top}
    return {t: c for t, c in s.num.items() if not t[a]}


# -- the equivariant context --------------------------------------------------


class TorusContext:
    """Rank-n torus with a formal group law context; pure and cache-backed.

    Chern classes and products of their powers are cached on first use,
    with the same thread-sharing guarantee as ``FGLContext``.
    """

    def __init__(self, rank: int, fgl: FGLContext):
        if rank < 1:
            raise ValueError("rank must be positive")
        self.rank = rank
        self.fgl = fgl
        self.D = fgl.D
        self.vars = tuple(f"t{i + 1}" for i in range(rank))
        self._chern = {}
        self._chern_prod = {}

    # -- basic series --------------------------------------------------------

    def zero(self) -> TruncSeries:
        return TruncSeries.zero(self.vars, self.D)

    def one(self) -> TruncSeries:
        return TruncSeries.constant(self.vars, 1, self.D)

    def var(self, i: int) -> TruncSeries:
        """The basis Chern class t_{i+1} (0-indexed argument)."""
        return TruncSeries.variable(self.vars, self.vars[i], self.D)

    def constant(self, value) -> TruncSeries:
        return TruncSeries.constant(self.vars, value, self.D)

    def character_series(self, chi) -> TruncSeries:
        """c^T_1 of the character's line bundle: the formal sum of n-series."""
        chi = tuple(chi)
        if len(chi) != self.rank:
            raise ValueError("character length does not match the rank")
        cached = self._chern.get(chi)
        if cached is not None:
            return cached
        parts = []
        for i, m in enumerate(chi):
            if m == 0:
                continue
            nser = self.fgl.n_series(m)
            parts.append(nser.substitute({"u": self.var(i)}))
        out = parts[0] if parts else self.zero()
        for p in parts[1:]:
            out = self.fgl.plus(out, p)
        self._chern[chi] = out
        return out

    chern = character_series

    def chern_power(self, chi, d: int) -> TruncSeries:
        """c(chi)^d, the one-factor case of ``chern_product``."""
        key = ((tuple(chi), d),)
        out = self._chern_prod.get(key)
        return self.chern_product(key) if out is None else out

    def chern_product(self, factors) -> TruncSeries:
        """prod c(chi_j)^(d_j) over the (chi, d) pairs, cached like the Chern
        classes themselves under the sorted pairs, so the order of the
        factors does not matter.  A product of several factors multiplies
        their cached powers.
        """
        key = tuple(sorted((tuple(chi), d) for chi, d in factors))
        out = self._chern_prod.get(key)
        if out is None:
            if len(key) == 1:
                (chi, d), = key
                out = self.character_series(chi) ** d
            else:
                out = self.one()
                for chi, d in key:
                    out = out * self.chern_power(chi, d)
            self._chern_prod[key] = out
        return out

    def augment(self, f: TruncSeries) -> GradedCoeff:
        """Image in the Lazard ring under t -> 0 (the forgetful map on S)."""
        return f.constant_term()

    # -- division by Chern classes ----------------------------------------------

    def chern_divides(self, f: TruncSeries, chi, d: int = 1) -> bool:
        """Whether c(chi)^d divides f through its guarantee.

        The two short cuts of the module docstring answer axis characters and
        e_a - e_b with d = 1 without dividing; every other case is one
        ``_divides``.  Always a bool: when d exceeds the guarantee, a
        nonzero f keeps a term below degree d, which no multiple of c(chi)^d
        has.
        """
        _check_factor(chi, d)
        decided = self._divides_without_division(f, chi, d)
        if decided is not None:
            return decided
        return self._divides(f, [(chi, d)])

    def _divides_without_division(self, f: TruncSeries, chi, d: int):
        """``chern_divides`` where no division is needed, else None."""
        if f.is_zero() or d == 0:
            return True
        if f.lowest_degree() < d:  # also when d exceeds the guarantee
            return False
        shape = character_shape(chi)
        if shape is None:
            return None
        a, b = shape
        if b is None:
            return min(t[a] for t in f.num) >= d
        if d == 1:
            return agree_on_diagonal(f, TruncSeries.zero(f.vars, f.guarantee), a, b)
        return None

    def divide_by_chern(self, f: TruncSeries, chi, d: int = 1) -> TruncSeries:
        """q with q * c(chi)^d = f through the guarantee; guarantee drops by d.

        One exact division against ``chern_power(chi, d)`` for every
        character.  Raises NotDivisible when f is not a multiple, and
        TruncationInsufficient when d exceeds f's guarantee.
        """
        _check_factor(chi, d)
        if d > f.guarantee:
            raise TruncationInsufficient(
                f"multiplicity {d} exceeds the guarantee {f.guarantee}"
            )
        return f.divide_exact(self.chern_power(chi, d))

    def _divides(self, f: TruncSeries, factors) -> bool:
        """Whether prod c(chi_j)^(d_j) divides the nonzero f through its
        guarantee, for checked factors with every d_j > 0.

        One exact division of f by the cached ``chern_product`` (module
        docstring), for any factors.  An f whose guarantee is below sum d_j
        is not a multiple: it keeps a term below the product's lowest degree.
        """
        if sum(d for _, d in factors) > f.guarantee:
            return False
        try:
            f.divide_exact(self.chern_product(factors))
        except NotDivisible:
            return False
        return True

    # -- ideal membership ---------------------------------------------------

    def ideal_membership_product(self, factors, f: TruncSeries):
        """(in_product, in_intersection) for the ideal generated by
        prod c(chi_j)^(d_j) versus the intersection of the (c(chi_j)^(d_j)).

        Every pair of distinct characters must extend to a lattice basis
        (checked through the gcd of the 2x2 minors of the pair matrix), so
        the c(chi_j)^(d_j) form a regular sequence and the two answers agree.
        Each factor is checked once.  A zero f, or no factor with d > 0, lies
        in both.  The short cuts of ``chern_divides`` run on every factor
        first; a factor that fails ends both tests.  A single factor that a
        short cut answers needs nothing more; otherwise the product is one
        ``_divides`` by the cached product, which for a single factor
        answers both.  A product that holds certifies the intersection with
        no further division; when a product of several factors fails, the
        intersection tests f by ``chern_divides`` against each factor
        without a short cut.
        """
        factors = [(tuple(chi), int(d)) for chi, d in factors]
        for chi, d in factors:
            _check_factor(chi, d)
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                if not pair_extends_to_basis(factors[i][0], factors[j][0]):
                    raise ValueError(
                        f"{factors[i][0]} and {factors[j][0]} do not extend to a basis"
                    )
        active = [(chi, d) for chi, d in factors if d > 0]
        if f.is_zero() or not active:
            return True, True
        # a factor that fails ends both tests, so the short cuts run first
        decided = [self._divides_without_division(f, chi, d) for chi, d in active]
        if False in decided:
            return False, False
        if (len(active) == 1 and decided[0]) or self._divides(f, active):
            return True, True
        rest = [fac for fac, dec in zip(active, decided) if dec is None]
        return False, len(active) > 1 and all(self.chern_divides(f, chi, d) for chi, d in rest)


def pair_extends_to_basis(a, b) -> bool:
    """{a, b} extends to a Z-basis iff the 2x2 minors of the pair have gcd 1."""
    g = 0
    n = len(a)
    for i in range(n):
        for j in range(i + 1, n):
            g = math.gcd(g, abs(a[i] * b[j] - a[j] * b[i]))
    return g == 1


def _check_factor(chi, d):
    if content(chi) == 0:
        raise ZeroCharacter("division by the zero character")
    if d < 0:
        raise ValueError("negative multiplicity")

