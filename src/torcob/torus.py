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
t-degree slice at a time in the domain Q[m][t]: leading-term division by
that single divisor decides each slice exactly, and the quotient is unique.
Membership has two short cuts that need no division: when chi = m*e_a,
c(chi) is t_a times a unit, and when chi = m*(e_a - e_b) with d = 1, c(chi)
is t_a - t_b times a unit, so f is a multiple iff it vanishes at t_a = t_b.
"""

from __future__ import annotations

import math

from torcob.coeff import GradedCoeff
from torcob.errors import NotDivisible, TruncationInsufficient, ZeroCharacter
from torcob.fgl import FGLContext
from torcob.kernels import mul_acc
from torcob.series import TruncSeries

Character = tuple


# -- character lattice helpers ----------------------------------------------


def content(chi) -> int:
    """gcd of the entries (0 for the zero vector)."""
    g = 0
    for x in chi:
        g = math.gcd(g, abs(x))
    return g


def is_primitive(chi) -> bool:
    return content(chi) == 1


def primitive_part(chi):
    """(m, chi0) with chi = m * chi0, m > 0, chi0 primitive."""
    g = content(chi)
    if g == 0:
        raise ZeroCharacter("zero character has no primitive part")
    return g, tuple(x // g for x in chi)


def proportional(a, b) -> bool:
    """Exact Q-proportionality for nonzero vectors: all 2x2 minors vanish."""
    n = len(a)
    for i in range(n):
        for j in range(i + 1, n):
            if a[i] * b[j] - a[j] * b[i] != 0:
                return False
    return True


# -- the equivariant context --------------------------------------------------


class TorusContext:
    """Rank-n torus with a formal group law context; pure and cache-backed.

    Chern classes and their powers are cached on first use, with the same
    thread-sharing guarantee as ``FGLContext``.
    """

    def __init__(self, rank: int, fgl: FGLContext):
        if rank < 1:
            raise ValueError("rank must be positive")
        self.rank = rank
        self.fgl = fgl
        self.D = fgl.D
        self.vars = tuple(f"t{i + 1}" for i in range(rank))
        self._chern = {}
        self._chern_pow = {}

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
        if not parts:
            out = self.zero()
        elif len(parts) == 1:
            out = parts[0]
        else:
            out = parts[0]
            for p in parts[1:]:
                out = self.fgl.plus(out, p)
        self._chern[chi] = out
        return out

    chern = character_series

    def chern_power(self, chi, d: int) -> TruncSeries:
        """c(chi)^d, cached like the Chern classes themselves."""
        key = (tuple(chi), d)
        out = self._chern_pow.get(key)
        if out is None:
            out = self.character_series(chi) ** d
            self._chern_pow[key] = out
        return out

    def augment(self, f: TruncSeries) -> GradedCoeff:
        """Image in the Lazard ring under t -> 0 (the forgetful map on S)."""
        return f.constant_term()

    # -- division by Chern classes ----------------------------------------------

    def _single_axis(self, chi):
        """(axis, entry) when chi is supported on one coordinate, else None."""
        nz = [(i, x) for i, x in enumerate(chi) if x]
        if len(nz) == 1:
            return nz[0]
        return None

    def _difference_axes(self, chi0):
        """(a, b) when chi0 = e_a - e_b, else None."""
        nz = [(i, x) for i, x in enumerate(chi0) if x]
        if len(nz) == 2 and {nz[0][1], nz[1][1]} == {1, -1}:
            a = nz[0][0] if nz[0][1] == 1 else nz[1][0]
            b = nz[0][0] if nz[0][1] == -1 else nz[1][0]
            return a, b
        return None

    def chern_divides(self, f: TruncSeries, chi, d: int = 1) -> bool:
        """Whether c(chi)^d divides f through its guarantee.

        The two short cuts of the module docstring answer axis characters and
        e_a - e_b with d = 1 without dividing; every other case is
        ``divide_by_chern``.  Always a bool: when d exceeds the guarantee, a
        nonzero f keeps a term below degree d, which no multiple of c(chi)^d
        has.
        """
        _check_factor(chi, d)
        if f.is_zero() or d == 0:
            return True
        if d > f.guarantee:
            return False
        axis = self._single_axis(chi)
        if axis is not None:
            a, _ = axis
            return min(t[a] for t in f.num) >= d
        _, chi0 = primitive_part(chi)
        diff = self._difference_axes(chi0)
        if diff is not None and d == 1:
            # f at t_a = t_b, on the numerators over f's one denominator
            a, b = diff
            merged = {}
            for t, c in f.num.items():
                lt = list(t)
                lt[b] += lt[a]
                lt[a] = 0
                mul_acc(merged.setdefault(tuple(lt), {}), c.items(), {(): 1})
            return not any(merged.values())
        return _try(lambda: self.divide_by_chern(f, chi, d))

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

    # -- ideal membership ---------------------------------------------------

    def ideal_membership_product(self, factors, f: TruncSeries):
        """(in_product, in_intersection) for the ideal generated by
        prod c(chi_j)^(d_j) versus the intersection of the (c(chi_j)^(d_j)).

        Every pair of distinct characters must extend to a lattice basis
        (checked through the gcd of the 2x2 minors of the pair matrix).
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
        in_intersection = all(self.chern_divides(f, chi, d) for chi, d in active)
        if sum(d for _, d in active) > f.guarantee:
            # as in chern_divides: a nonzero f keeps a term below the product's degree
            return f.is_zero(), in_intersection
        product = self.chern_power(*active[0]) if active else self.one()
        for chi, d in active[1:]:
            product = product * self.chern_power(chi, d)
        in_product = _try(lambda: f.divide_exact(product))
        return in_product, in_intersection


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


def _try(thunk) -> bool:
    try:
        thunk()
        return True
    except NotDivisible:
        return False
