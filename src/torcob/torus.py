"""The equivariant base ring S(T) and character-level operations.

S(T) is the graded power series ring over the Lazard coefficients in
t_1..t_n, one variable per chosen basis character.  The first Chern class of
the line bundle of a character is the formal sum of n-series of the basis
variables; dividing by such classes is the effective form of the edge
congruences used by the moment-graph machinery.

Division by c(chi)^d factors chi = m*chi0 with chi0 primitive, passes to
coordinates adapted to chi0 (where c(chi) is t'_1 times a unit with rational
constant term m), strips t'_1^d, and transforms back.  Two cheap short cuts
apply when the primitive direction is +-e_a (strip t_a) or e_a - e_b (divide
by the linear form t_a - t_b, a unit multiple of the Chern class).
"""

from __future__ import annotations

import math
from fractions import Fraction

from torcob.coeff import GradedCoeff
from torcob.errors import NotDivisible, ZeroCharacter
from torcob.fgl import FGLContext
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


def egcd(a: int, b: int):
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0, deterministic."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def complete_basis(chi0):
    """Integer matrix with first row chi0 and determinant +-1.

    Built by an extended-gcd ladder on the leading entries; deterministic.
    """
    chi0 = tuple(chi0)
    if not is_primitive(chi0):
        raise ValueError(f"character {chi0} is not primitive")
    n = len(chi0)
    if n == 1:
        return [[chi0[0]]]
    head, z = chi0[:-1], chi0[-1]
    g = content(head)
    if g == 0:
        # z = +-1; append the standard basis of the head coordinates
        rows = [list(chi0)]
        for i in range(n - 1):
            rows.append([1 if j == i else 0 for j in range(n)])
        return rows
    _, a, b = egcd(g, z)
    u = tuple(x // g for x in head)
    sub = complete_basis(u)
    rows = [list(chi0), [-b * x for x in u] + [a]]
    for r in sub[1:]:
        rows.append(list(r) + [0])
    return rows


def mat_inv_unimodular(rows):
    """Inverse of an integer matrix with determinant +-1, as integer rows."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            v = aug[i][n + j]
            if v.denominator != 1:
                raise ValueError("matrix is not unimodular")
            row.append(int(v))
        out.append(row)
    return out


# -- the equivariant context --------------------------------------------------


class CoordinateTransform:
    """Substitution pair between standard and chi0-adapted coordinates."""

    def __init__(self, ctx: TorusContext, chi0):
        self.chi0 = tuple(chi0)
        self.basis = complete_basis(chi0)
        self.inverse = mat_inv_unimodular(self.basis)
        # old t_i = formal sum over j of [Binv[i][j]] t'_j, and the adapted
        # variable t'_j is the Chern class of basis row j in old coordinates
        self._fwd = {
            ctx.vars[i]: ctx.character_series(tuple(self.inverse[i]))
            for i in range(ctx.rank)
        }
        self._bwd = {
            ctx.vars[j]: ctx.character_series(tuple(self.basis[j]))
            for j in range(ctx.rank)
        }

    def to_adapted(self, f: TruncSeries) -> TruncSeries:
        return f.substitute(self._fwd)

    def from_adapted(self, f: TruncSeries) -> TruncSeries:
        return f.substitute(self._bwd)


class TorusContext:
    """Rank-n torus with a formal group law context; pure and cache-backed.

    Chern classes, coordinate transforms and unit inverse powers are cached
    on first use, with the same thread-sharing guarantee as ``FGLContext``.
    """

    def __init__(self, rank: int, fgl: FGLContext):
        if rank < 1:
            raise ValueError("rank must be positive")
        self.rank = rank
        self.fgl = fgl
        self.D = fgl.D
        self.vars = tuple(f"t{i + 1}" for i in range(rank))
        self._chern = {}
        self._transforms = {}
        self._unit_inv_pow = {}

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

    def linear_form(self, chi) -> TruncSeries:
        coeffs = {}
        for i, m in enumerate(chi):
            if m:
                exp = tuple(1 if j == i else 0 for j in range(self.rank))
                coeffs[exp] = GradedCoeff.from_rational(m)
        return TruncSeries(self.vars, coeffs, self.D)

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

    def augment(self, f: TruncSeries) -> GradedCoeff:
        """Image in the Lazard ring under t -> 0 (the forgetful map on S)."""
        return f.constant_term()

    # -- adapted coordinates ---------------------------------------------------

    def transform(self, chi0) -> CoordinateTransform:
        chi0 = tuple(chi0)
        if not is_primitive(chi0):
            raise ValueError(f"character {chi0} is not primitive")
        t = self._transforms.get(chi0)
        if t is None:
            t = CoordinateTransform(self, chi0)
            self._transforms[chi0] = t
        return t

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

    def _unit_inverse_power(self, m: int, d: int) -> TruncSeries:
        """([m]u / u)^(-d) as a one-variable series."""
        key = (m, d)
        out = self._unit_inv_pow.get(key)
        if out is None:
            nser = self.fgl.n_series(m)
            stripped = {(k - 1,): c for (k,), c in nser.coeffs.items()}
            w = TruncSeries(("u",), stripped, self.fgl.D)
            out = w.invert_unit() ** d
            self._unit_inv_pow[key] = out
        return out

    def chern_divides(self, f: TruncSeries, chi, d: int = 1, use_linear_form=False) -> bool:
        """Whether c(chi)^d divides f through its guarantee (cheap paths first)."""
        if content(chi) == 0:
            raise ZeroCharacter("division by the zero character")
        if f.is_zero():
            return True
        if use_linear_form:
            return _try(lambda: f.divide_exact(self.linear_form(chi) ** d))
        axis = self._single_axis(chi)
        if axis is not None:
            a, _ = axis
            return min(t[a] for t in f.coeffs) >= d
        _, chi0 = primitive_part(chi)
        diff = self._difference_axes(chi0)
        if diff is not None and d == 1:
            a, b = diff
            merged = {}
            for t, c in f.coeffs.items():
                lt = list(t)
                lt[b] += lt[a]
                lt[a] = 0
                key = tuple(lt)
                s = merged.get(key)
                merged[key] = c if s is None else s + c
            return all(c.is_zero() for c in merged.values())
        return _try(lambda: self.divide_by_chern(f, chi, d))

    def divide_by_chern(self, f: TruncSeries, chi, d: int = 1, use_linear_form=False) -> TruncSeries:
        """q with q * c(chi)^d = f through the guarantee; guarantee drops by d."""
        if d < 1:
            raise ValueError("multiplicity must be at least 1")
        if content(chi) == 0:
            raise ZeroCharacter("division by the zero character")
        if use_linear_form:
            return f.divide_exact(self.linear_form(chi) ** d)
        m, chi0 = primitive_part(chi)
        axis = self._single_axis(chi)
        if axis is not None:
            a, entry = axis
            if any(t[a] < d for t in f.coeffs):
                raise NotDivisible(f"t{a + 1}-exponent below {d}")
            stripped = {
                tuple(x - d if i == a else x for i, x in enumerate(t)): c
                for t, c in f.coeffs.items()
            }
            q0 = TruncSeries(self.vars, stripped, f.bound, f.guarantee - d)
            uinv = self._unit_inverse_power(entry, d)
            return q0 * uinv.substitute({"u": self.var(a)})
        diff = self._difference_axes(chi0)
        if diff is not None:
            a, b = diff
            ell = self.linear_form(chi0)
            q0 = f.divide_exact(ell ** d)
            v = self._diff_unit_inverse(chi, chi0, m, d)
            return q0 * v
        transform = self.transform(chi0)
        fa = transform.to_adapted(f)
        if any(t[0] < d for t in fa.coeffs):
            raise NotDivisible("adapted first-variable exponent too small")
        uinv = self._unit_inverse_power(m, d)
        fa = fa * uinv.substitute({"u": self.var(0)})
        stripped = {
            (t[0] - d,) + t[1:]: c for t, c in fa.coeffs.items()
        }
        qa = TruncSeries(self.vars, stripped, fa.bound, fa.guarantee - d)
        return transform.from_adapted(qa)

    def _diff_unit_inverse(self, chi, chi0, m, d):
        """(c(chi) / (t_a - t_b))^(-d), cached; constant term is m."""
        key = (tuple(chi), d)
        out = self._unit_inv_pow.get(key)
        if out is None:
            c = self.character_series(chi)
            w = c.divide_exact(self.linear_form(chi0))
            out = w.invert_unit() ** d
            self._unit_inv_pow[key] = out
        return out

    # -- ideal membership ---------------------------------------------------

    def ideal_membership_product(self, factors, f: TruncSeries):
        """(in_product, in_intersection) for the ideal generated by
        prod c(chi_j)^(d_j) versus the intersection of the (c(chi_j)^(d_j)).

        Every pair of distinct characters must extend to a lattice basis
        (checked through the gcd of the 2x2 minors of the pair matrix).
        """
        factors = [(tuple(chi), int(d)) for chi, d in factors]
        for chi, d in factors:
            if content(chi) == 0:
                raise ZeroCharacter("zero character in the factor list")
            if d < 0:
                raise ValueError("negative multiplicity")
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                if not pair_extends_to_basis(factors[i][0], factors[j][0]):
                    raise ValueError(
                        f"{factors[i][0]} and {factors[j][0]} do not extend to a basis"
                    )
        active = [(chi, d) for chi, d in factors if d > 0]
        in_intersection = all(self.chern_divides(f, chi, d) for chi, d in active)
        product = self.one()
        for chi, d in active:
            product = product * (self.character_series(chi) ** d)
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


def _try(thunk) -> bool:
    try:
        thunk()
        return True
    except NotDivisible:
        return False
