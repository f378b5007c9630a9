"""Degree-truncated graded multivariate power series over the Lazard coefficients.

A series is stored sparsely as {t-exponent tuple: GradedCoeff} together with
one trusted degree ``guarantee``: coefficients of total t-degree up to
``guarantee`` are exact, nothing above it is stored.  Every operation states
how it propagates the guarantee.  Products and exact division both run on
the kernel's {t-exponents: {m-exponents: Fraction}} tables, the coefficient
maps being the ``terms`` of each GradedCoeff.  Values are immutable after
construction and all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction

from torcob.coeff import GradedCoeff, join_signed
from torcob.errors import (
    NotDivisible,
    NotInvertible,
    TruncationInsufficient,
    VariableMismatch,
)
from torcob.kernels import convolve, mdiv


class TruncSeries:
    __slots__ = ("vars", "coeffs", "guarantee")

    def __init__(self, vars, coeffs, guarantee):
        self.vars = tuple(vars)
        self.guarantee = guarantee
        clean = {}
        for t, c in coeffs.items():
            if sum(t) <= guarantee and not c.is_zero():
                clean[t] = c
        self.coeffs = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars, guarantee) -> TruncSeries:
        return cls(vars, {}, guarantee)

    @classmethod
    def constant(cls, vars, value, guarantee) -> TruncSeries:
        c = value if isinstance(value, GradedCoeff) else GradedCoeff.from_rational(value)
        n = len(tuple(vars))
        return cls(vars, {(0,) * n: c}, guarantee)

    @classmethod
    def variable(cls, vars, name, guarantee) -> TruncSeries:
        vars = tuple(vars)
        i = vars.index(name)
        exp = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls(vars, {exp: GradedCoeff.one()}, guarantee)

    @classmethod
    def monomial(cls, vars, exps, coeff, guarantee) -> TruncSeries:
        c = coeff if isinstance(coeff, GradedCoeff) else GradedCoeff.from_rational(coeff)
        return cls(vars, {tuple(exps): c}, guarantee)

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def constant_term(self) -> GradedCoeff:
        return self.coeffs.get((0,) * len(self.vars), GradedCoeff.zero())

    def lowest_degree(self):
        """Smallest total t-degree with a nonzero coefficient, None if zero."""
        if not self.coeffs:
            return None
        return min(sum(t) for t in self.coeffs)

    def max_degree(self):
        if not self.coeffs:
            return None
        return max(sum(t) for t in self.coeffs)

    def coefficient(self, exps) -> GradedCoeff:
        return self.coeffs.get(tuple(exps), GradedCoeff.zero())

    def homogeneous_degree(self):
        """Cohomological degree if homogeneous and nonzero, else None.

        A t-monomial of degree d with coefficient of coefficient-degree j - d
        contributes to degree j.
        """
        degs = set()
        for t, c in self.coeffs.items():
            d = sum(t)
            for j in c.degrees():
                degs.add(j + d)
            if len(degs) > 1:
                return None
        if len(degs) == 1:
            return degs.pop()
        return None

    def homogeneous_components(self) -> dict:
        out = {}
        for t, c in self.coeffs.items():
            d = sum(t)
            for j in c.degrees():
                comp = c.degree_component(j)
                tgt = out.setdefault(j + d, {})
                tgt[t] = tgt.get(t, GradedCoeff.zero()) + comp
        return {
            j: TruncSeries(self.vars, cs, self.guarantee)
            for j, cs in sorted(out.items())
        }

    def eq_through(self, other: TruncSeries, deg: int) -> bool:
        diff = self - other
        return all(sum(t) > deg for t in diff.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.vars == other.vars and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.vars, frozenset((t, c) for t, c in self.coeffs.items())))

    # -- ring operations ---------------------------------------------------

    def _check_vars(self, other: TruncSeries):
        if self.vars != other.vars:
            raise VariableMismatch(f"{self.vars} vs {other.vars}")

    def __add__(self, other: TruncSeries) -> TruncSeries:
        self._check_vars(other)
        out = dict(self.coeffs)
        for t, c in other.coeffs.items():
            s = out.get(t)
            out[t] = c if s is None else s + c
        return TruncSeries(self.vars, out, min(self.guarantee, other.guarantee))

    def __neg__(self) -> TruncSeries:
        return TruncSeries(self.vars, {t: -c for t, c in self.coeffs.items()}, self.guarantee)

    def __sub__(self, other: TruncSeries) -> TruncSeries:
        return self + (-other)

    def __mul__(self, other: TruncSeries) -> TruncSeries:
        """Product truncated to degree min(G_a, G_b)."""
        self._check_vars(other)
        g = min(self.guarantee, other.guarantee)
        raw = convolve(
            {t: c.terms for t, c in self.coeffs.items()},
            {t: c.terms for t, c in other.coeffs.items()},
            g,
        )
        out = {t: GradedCoeff(m) for t, m in raw.items()}
        return TruncSeries(self.vars, out, g)

    def __pow__(self, n: int) -> TruncSeries:
        if n < 0:
            raise ValueError("negative series power")
        out = TruncSeries.constant(self.vars, 1, self.guarantee)
        for _ in range(n):
            out = out * self
        return out

    def scale(self, q) -> TruncSeries:
        q = Fraction(q)
        return TruncSeries(
            self.vars, {t: c.scale(q) for t, c in self.coeffs.items()}, self.guarantee
        )

    def mul_coeff(self, c: GradedCoeff) -> TruncSeries:
        return TruncSeries(self.vars, {t: x * c for t, x in self.coeffs.items()}, self.guarantee)

    def map_coeffs(self, fn) -> TruncSeries:
        return TruncSeries(self.vars, {t: fn(c) for t, c in self.coeffs.items()}, self.guarantee)

    def specialize(self, value_of) -> TruncSeries:
        """Substitute rationals for the Lazard generators in every coefficient."""
        return self.map_coeffs(lambda c: c.specialize(value_of))

    def truncated(self, guarantee: int) -> TruncSeries:
        if guarantee > self.guarantee:
            raise TruncationInsufficient(
                f"cannot raise guarantee {self.guarantee} to {guarantee}"
            )
        return TruncSeries(self.vars, self.coeffs, guarantee)

    # -- substitution ------------------------------------------------------

    def substitute(self, assignment: dict) -> TruncSeries:
        """Compose with ``var -> series`` maps, all with zero constant term.

        Every variable of ``self`` must be assigned; the result is trusted
        through the minimum of all guarantees involved.
        """
        targets = []
        for v in self.vars:
            if v not in assignment:
                raise KeyError(f"no assignment for variable {v}")
            targets.append(assignment[v])
        tvars = targets[0].vars
        for s in targets:
            if s.vars != tvars:
                raise VariableMismatch("assigned series disagree on variables")
            if not s.constant_term().is_zero():
                raise NotInvertible("assigned series has nonzero constant term")
        g = min([self.guarantee] + [s.guarantee for s in targets])

        simple = all(len(s.coeffs) == 1 for s in targets)
        if simple and all(
            next(iter(s.coeffs.values())).is_rational() for s in targets
        ):
            return self._substitute_monomials(targets, tvars, g)

        one = TruncSeries.constant(tvars, 1, g)
        powers = [[one, s.truncated(min(g, s.guarantee))] for s in targets]

        def pw(i, e):
            lst = powers[i]
            while len(lst) <= e:
                lst.append(lst[-1] * lst[1])
            return lst[e]

        out = TruncSeries.zero(tvars, g)
        for texp, c in self.coeffs.items():
            if sum(texp) > g:
                continue
            prod = None
            for i, e in enumerate(texp):
                if e:
                    prod = pw(i, e) if prod is None else prod * pw(i, e)
            term = one.mul_coeff(c) if prod is None else prod.mul_coeff(c)
            out = out + term
        return out

    def _substitute_monomials(self, targets, tvars, g):
        # every target is a single monomial with rational coefficient
        infos = []
        for s in targets:
            (exp, c), = s.coeffs.items()
            infos.append((exp, c.rational_part(), sum(exp)))
        out = {}
        for texp, c in self.coeffs.items():
            newexp = [0] * len(tvars)
            q = Fraction(1)
            deg = 0
            for i, e in enumerate(texp):
                if not e:
                    continue
                exp, rc, d = infos[i]
                deg += d * e
                if deg > g:
                    break
                q *= rc ** e
                for j, x in enumerate(exp):
                    newexp[j] += x * e
            else:
                if deg <= g:
                    key = tuple(newexp)
                    s = out.get(key)
                    add = c.scale(q)
                    out[key] = add if s is None else s + add
        return TruncSeries(tvars, out, g)

    # -- inversion and division --------------------------------------------

    def invert_unit(self) -> TruncSeries:
        """Inverse of a series whose constant term is a nonzero rational.

        One exact division of 1 by the series; the guarantee is unchanged.
        Lazard-generator content is fine at positive t-degrees but not in the
        constant term itself (no exact inverse exists there with polynomial
        coefficients).
        """
        c0 = self.constant_term()
        if c0.is_zero() or not c0.is_rational():
            raise NotInvertible("constant term must be a nonzero rational")
        return TruncSeries.constant(self.vars, 1, self.guarantee).divide_exact(self)

    def divide_exact(self, g: TruncSeries) -> TruncSeries:
        """Exact quotient q with q*g = self through the guarantee.

        Solved t-degree slice by t-degree slice, on the tables ``__mul__``
        uses.  Slice k of the dividend less sum_{d<k} q_d*g_{e+k-d} (e the
        lowest t-degree of ``g``) is divided by g_e with the leading-term
        algorithm in the lex order on (t-exponents, m-exponents).  With one
        divisor that algorithm decides membership exactly, so a leading term
        that g_e's does not divide raises NotDivisible, which certifies that
        ``self`` is not a multiple of ``g`` up to truncation; a zero ``g``
        raises NotInvertible.  The guarantee drops by e.
        """
        self._check_vars(g)
        if g.is_zero():
            raise NotInvertible("division by the zero series")
        e = g.lowest_degree()
        gq = min(self.guarantee, g.guarantee) - e
        if gq < 0:
            raise TruncationInsufficient("divisor degree exceeds the guarantee")
        if self.is_zero():
            return TruncSeries.zero(self.vars, gq)
        if self.lowest_degree() < e:
            raise NotDivisible("dividend has terms below the divisor's lowest degree")
        f_sl, g_sl = {}, {}  # slices by t-degree: {t-exps: {m-exps: q}}
        for t, c in self.coeffs.items():
            f_sl.setdefault(sum(t), {})[t] = c.terms
        for t, c in g.coeffs.items():
            g_sl.setdefault(sum(t), {})[t] = c.terms
        ge = g_sl[e]
        lt = max(ge)
        lm = max(ge[lt])
        lc = ge[lt][lm]
        neg_q = []  # -q by slice, so that each update is one accumulating product
        for k in range(gq + 1):
            r = {t: dict(c) for t, c in f_sl.get(e + k, {}).items()}
            for d, qd in enumerate(neg_q):
                gs = g_sl.get(e + k - d)
                if gs and qd:
                    convolve(qd, gs, None, out=r)
            qk = {}
            while r:
                rt = max(r)
                rc = r[rt]
                rm = max(rc)
                st = tuple(y - x for x, y in zip(lt, rt))
                sm = mdiv(rm, lm)
                if sm is None or min(st, default=0) < 0:
                    raise NotDivisible("leading term not divisible")
                c = -rc[rm] / lc
                qk.setdefault(st, {})[sm] = c
                convolve({st: {sm: c}}, ge, None, out=r)
            neg_q.append(qk)
        out = {t: GradedCoeff({m: -q for m, q in c.items()}) for qk in neg_q for t, c in qk.items()}
        return TruncSeries(self.vars, out, gq)

    def compositional_inverse(self) -> TruncSeries:
        """Inverse under composition for a one-variable series c*u + higher."""
        if len(self.vars) != 1:
            raise ValueError("compositional inverse needs a one-variable series")
        if not self.constant_term().is_zero():
            raise NotInvertible("nonzero constant term")
        c1 = self.coefficient((1,))
        if not c1.is_rational() or c1.rational_part() == 0:
            raise NotInvertible("linear coefficient must be an invertible rational")
        c = c1.rational_part()
        v = self.vars[0]
        g = self.guarantee
        h = {(1,): GradedCoeff.from_rational(Fraction(1) / c)}
        for k in range(2, g + 1):
            partial = TruncSeries(self.vars, h, g)
            comp = self.substitute({v: partial})
            ak = comp.coefficient((k,))
            if not ak.is_zero():
                h[(k,)] = ak.scale(Fraction(-1) / c)
        return TruncSeries(self.vars, h, g)

    # -- rendering ----------------------------------------------------------

    def sorted_terms(self):
        return sorted(
            self.coeffs.items(), key=lambda kv: (sum(kv[0]), tuple(-e for e in kv[0]))
        )

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        pieces = []
        for texp, c in self.sorted_terms():
            mon = _t_mon_text(self.vars, texp)
            if not mon:
                for e, q in c.sorted_terms():
                    pieces.append((q < 0, _coeff_term_text(e, abs(q), "")))
            elif len(c.terms) == 1:
                (e, q), = c.terms.items()
                pieces.append((q < 0, _coeff_term_text(e, abs(q), mon)))
            else:
                pieces.append((False, f"({c})*{mon}"))
        return join_signed(pieces)

    def __repr__(self) -> str:
        return f"TruncSeries[{','.join(self.vars)};G={self.guarantee}]({self})"


def _t_mon_text(vars, exps) -> str:
    parts = []
    for v, e in zip(vars, exps):
        if e == 0:
            continue
        parts.append(v if e == 1 else f"{v}^{e}")
    return "*".join(parts)


def _coeff_term_text(mexp, mag, mon) -> str:
    from torcob.coeff import _mon_text

    head = _mon_text(mexp) if mexp else ""
    factors = []
    if mag != 1 or (not head and not mon):
        factors.append(str(mag))
    if head:
        factors.append(head)
    if mon:
        factors.append(mon)
    return "*".join(factors)

