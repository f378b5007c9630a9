"""Degree-truncated graded multivariate power series over the Lazard coefficients.

A series is integer numerators over one denominator (FLINT's ``fmpq_poly``
layout): a table ``num`` {t-exps: {m-key: int}}, ``den > 0``, and one
trusted degree ``guarantee``, through which coefficients are exact; nothing
above it is stored.  The t-exponents are tuples; the m-monomials are the
packed integer keys of ``kernels`` (1 is the key 0), ordered as integers,
lexicographically with the highest generator most significant.  One
constructor, ``from_table``, puts a {t-exps: {m-key: Fraction}} table over
the lcm of its denominators; ``TruncSeries(vars, coeffs, guarantee)`` packs
its {t-exps: GradedCoeff} map into such a table first, so an exponent above
``kernels.MAX_EXP`` raises TooLarge there, and ``gkm``'s expansion
coordinates build their tables directly, as does ``term``, the one-term
series of a rational, a t-monomial and at most one generator, which
rational ``monomial``s (constants, variables) use.  The Lagrange inversion
writes integer numerators over one denominator, settled by one gcd sweep.
Sums go through ``signed_sum``, which adds any number of series in one
table.  ``coeffs`` and ``coefficient`` unpack through
``GradedCoeff.from_numerators``.  The form is canonical (no zero numerator,
gcd of den and the numerators 1), so equality, hashing and rendering are
structural.  The kernel runs on ``num`` with Python ints; one gcd sweep
settles each result.  Two views are built on first read and kept in a slot:
``coeffs``, the value as {t-exps: GradedCoeff}, and ``divisor``, the
t-degree slices and leading data that ``divide_exact`` reads of a divisor,
so a cached divisor such as a Chern power is sliced once.  Values are
immutable; inner tables may be shared and are never mutated.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from torcob.coeff import GradedCoeff, _term_text, inverse_powers, join_signed, mweight
from torcob.errors import (
    NotDivisible,
    NotInvertible,
    TruncationInsufficient,
    VariableMismatch,
)
from torcob.kernels import convolve, mdiv, mul_acc, pack, unpack
from torcob.kernels import generator as generator_key


class TruncSeries:
    __slots__ = ("vars", "num", "den", "guarantee", "_coeffs", "_divisor")

    def __init__(self, vars, coeffs, guarantee):
        """The series of {t-exps: GradedCoeff} ``coeffs``, truncated to ``guarantee``."""
        table = {
            t: {pack(m): q for m, q in c.terms.items()}
            for t, c in coeffs.items() if sum(t) <= guarantee
        }
        s = from_table(vars, table, guarantee)
        self.vars, self.num, self.den, self.guarantee = s.vars, s.num, s.den, guarantee
        self._coeffs = self._divisor = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars, guarantee) -> TruncSeries:
        return _series(tuple(vars), {}, 1, guarantee)

    @classmethod
    def constant(cls, vars, value, guarantee) -> TruncSeries:
        return cls.monomial(vars, (0,) * len(tuple(vars)), value, guarantee)

    @classmethod
    def variable(cls, vars, name, guarantee) -> TruncSeries:
        vars = tuple(vars)
        i = vars.index(name)
        exp = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls.monomial(vars, exp, 1, guarantee)

    @classmethod
    def monomial(cls, vars, exps, coeff, guarantee) -> TruncSeries:
        if isinstance(coeff, GradedCoeff):
            return cls(vars, {tuple(exps): coeff}, guarantee)
        return term(vars, exps, Fraction(coeff), guarantee)

    # -- inspection --------------------------------------------------------

    @property
    def coeffs(self) -> dict:
        """{t-exps: GradedCoeff}, built on first read; do not mutate."""
        out = self._coeffs
        if out is None:
            den = self.den
            out = self._coeffs = {
                t: GradedCoeff.from_numerators(c, den) for t, c in self.num.items()
            }
        return out

    def is_zero(self) -> bool:
        return not self.num

    def constant_term(self) -> GradedCoeff:
        return self.coefficient((0,) * len(self.vars))

    def lowest_degree(self):
        """Smallest total t-degree with a nonzero coefficient, None if zero."""
        return min(map(sum, self.num), default=None)

    def max_degree(self):
        return max(map(sum, self.num), default=None)

    def coefficient(self, exps) -> GradedCoeff:
        c = self.num.get(tuple(exps))
        return GradedCoeff.zero() if c is None else GradedCoeff.from_numerators(c, self.den)

    def homogeneous_degree(self):
        """Cohomological degree if homogeneous and nonzero, else None.

        A t-monomial of degree d with coefficient of coefficient-degree j - d
        contributes to degree j.
        """
        degs = {sum(t) - mweight(unpack(m)) for t, c in self.num.items() for m in c}
        return degs.pop() if len(degs) == 1 else None

    def eq_through(self, other: TruncSeries, deg: int) -> bool:
        return all(sum(t) > deg for t in (self - other).num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.vars == other.vars and self.den == other.den and self.num == other.num

    def __hash__(self):
        terms = frozenset((t, frozenset(c.items())) for t, c in self.num.items())
        return hash((self.vars, self.den, terms))

    # -- ring operations ---------------------------------------------------

    def _check_vars(self, other: TruncSeries):
        if self.vars != other.vars:
            raise VariableMismatch(f"{self.vars} vs {other.vars}")

    def __add__(self, other: TruncSeries) -> TruncSeries:
        return signed_sum(((1, self), (1, other)))

    def __sub__(self, other: TruncSeries) -> TruncSeries:
        return signed_sum(((1, self), (-1, other)))

    def __neg__(self) -> TruncSeries:
        num = {t: _times(c, -1) for t, c in self.num.items()}
        return _series(self.vars, num, self.den, self.guarantee)

    def __mul__(self, other: TruncSeries) -> TruncSeries:
        """Product truncated to degree min(G_a, G_b)."""
        self._check_vars(other)
        g = min(self.guarantee, other.guarantee)
        return _canonical(self.vars, convolve(self.num, other.num, g), self.den * other.den, g)

    def __pow__(self, n: int) -> TruncSeries:
        if n < 0:
            raise ValueError("negative series power")
        if n == 0:
            return TruncSeries.constant(self.vars, 1, self.guarantee)
        out, base = None, self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def scale(self, q) -> TruncSeries:
        q = Fraction(q)
        if not q:
            return TruncSeries.zero(self.vars, self.guarantee)
        num = {t: _times(c, q.numerator) for t, c in self.num.items()}
        return _canonical(self.vars, num, self.den * q.denominator, self.guarantee)

    def mul_coeff(self, c: GradedCoeff) -> TruncSeries:
        return self * TruncSeries.constant(self.vars, c, self.guarantee)

    def specialize(self, value_of) -> TruncSeries:
        """Substitute rationals for the Lazard generators in every coefficient."""
        return TruncSeries(
            self.vars, {t: c.specialize(value_of) for t, c in self.coeffs.items()}, self.guarantee
        )

    def truncated(self, guarantee: int) -> TruncSeries:
        if guarantee > self.guarantee:
            raise TruncationInsufficient(
                f"cannot raise guarantee {self.guarantee} to {guarantee}"
            )
        if guarantee == self.guarantee:
            return self
        num = {t: c for t, c in self.num.items() if sum(t) <= guarantee}
        if len(num) == len(self.num):
            return _series(self.vars, self.num, self.den, guarantee)
        return _canonical(self.vars, num, self.den, guarantee)

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
        origin = (0,) * len(tvars)
        for s in targets:
            if s.vars != tvars:
                raise VariableMismatch("assigned series disagree on variables")
            if origin in s.num:
                raise NotInvertible("assigned series has nonzero constant term")
        g = min([self.guarantee] + [s.guarantee for s in targets])

        if all(len(s.num) == 1 and _is_rational(*s.num.values()) for s in targets):
            return self._substitute_monomials(targets, tvars, g)

        powers = [[None, s.truncated(g)] for s in targets]

        def pw(i, e):
            lst = powers[i]
            while len(lst) <= e:
                lst.append(lst[-1] * lst[1])
            return lst[e]

        one = {origin: {0: 1}}
        terms = []  # (numerators of self's coefficient, numerators of the product, its den)
        for texp, c in self.num.items():
            if sum(texp) > g:
                continue
            prod = None
            for i, e in enumerate(texp):
                if e:
                    prod = pw(i, e) if prod is None else prod * pw(i, e)
            terms.append((c, one, 1) if prod is None else (c, prod.num, prod.den))
        den = lcm(*(d for _, _, d in terms))
        out = {}
        for c, pnum, d in terms:
            f = den // d
            convolve({origin: c if f == 1 else _times(c, f)}, pnum, None, out=out)
        return _canonical(tvars, out, self.den * den, g)

    def _substitute_monomials(self, targets, tvars, g):
        # every target is a single monomial with rational coefficient p/d
        infos = []
        for s in targets:
            (exp, c), = s.num.items()
            infos.append((exp, c[0], s.den, sum(exp)))
        terms = []  # (new t-exps, numerators, factor numerator, factor denominator)
        for texp, c in self.num.items():
            newexp = [0] * len(tvars)
            p = d = 1
            deg = 0
            for i, e in enumerate(texp):
                if not e:
                    continue
                exp, pi, di, dd = infos[i]
                deg += dd * e
                if deg > g:
                    break
                p *= pi ** e
                d *= di ** e
                for j, x in enumerate(exp):
                    newexp[j] += x * e
            else:
                terms.append((tuple(newexp), c, p, d))
        den = lcm(*(d for _, _, _, d in terms))
        out = {}
        for key, c, p, d in terms:
            tgt = out.setdefault(key, {})
            mul_acc(tgt, c.items(), {0: p * (den // d)})
            if not tgt:
                del out[key]
        return _canonical(tvars, out, self.den * den, g)

    # -- inversion and division --------------------------------------------

    def invert_unit(self) -> TruncSeries:
        """Inverse of a series whose constant term is a nonzero rational.

        One exact division of 1 by the series; the guarantee is unchanged.
        Lazard-generator content is fine at positive t-degrees but not in the
        constant term itself (no exact inverse exists there with polynomial
        coefficients).
        """
        origin = (0,) * len(self.vars)
        c0 = self.num.get(origin)
        if c0 is None or not _is_rational(c0):
            raise NotInvertible("constant term must be a nonzero rational")
        return _series(self.vars, {origin: {0: 1}}, 1, self.guarantee).divide_exact(self)

    @property
    def divisor(self) -> tuple:
        """(e, slices, lt, lc, lm, content, tail): what ``divide_exact``
        reads of a nonzero divisor, built on first read and kept like
        ``coeffs``.

        e is the lowest t-degree, slices the numerator table split by
        t-degree (``_slices``), lt the leading t-monomial of the slice at e,
        lc its coefficient map, lm the leading m-key of lc, content the gcd
        of lc's numerators and tail the slice at e without lt.  Do not
        mutate.
        """
        out = self._divisor
        if out is None:
            out = self._divisor = _divisor_slices(self.num)
        return out

    def divide_exact(self, g: TruncSeries) -> TruncSeries:
        """Exact quotient q with q*g = self through the guarantee.

        Solved t-degree slice by t-degree slice on the numerator tables; the
        divisor's slices and leading data are read from ``g.divisor``, so
        dividing many times by one series slices it once.  Slice k of the
        dividend less sum_{d<k} q_d*g_{e+k-d} (e the lowest t-degree of
        ``g``) is divided by g_e in Q[m][t] by leading t-monomials, one whole
        t-monomial per step: with rt the leading t-monomial of the remainder
        and lc the coefficient of g_e's leading t-monomial lt, the
        remainder's coefficient at rt is divided by lc in Q[m], and
        q_st*x^st*g_e (st = rt - lt) is subtracted: its term at rt cancels
        the remainder's there exactly, so that entry is deleted and only
        q_st*x^st times the rest of g_e is multiplied out.
        When lc is a rational, as for every Chern power, Euler class and
        unit, that quotient is one scaled copy; otherwise it is the
        leading-term algorithm over m-monomials.  In the domain Q[m][t] a
        leading coefficient of a multiple of g_e is a multiple of lc, so a
        step that does not divide raises NotDivisible, which certifies that
        ``self`` is not a multiple of ``g`` up to truncation; a zero ``g``
        raises NotInvertible.  The guarantee drops by e.  On the numerators,
        each step first scales the remainder and the quotient so far by
        c / gcd(c, the remainder's numerators at rt), c the content of lc,
        kept in the quotient's denominator; after it the quotient at rt, if
        any, is integral (Gauss's lemma), and scaling moves no support, so
        every decision is the one over Q.
        """
        self._check_vars(g)
        if g.is_zero():
            raise NotInvertible("division by the zero series")
        e, g_sl, lt, lc, lm, cont, tail = g.divisor
        gq = min(self.guarantee, g.guarantee) - e
        if gq < 0:
            raise TruncationInsufficient("divisor degree exceeds the guarantee")
        if self.is_zero():
            return TruncSeries.zero(self.vars, gq)
        f_sl = _slices(self.num)
        if min(f_sl) < e:
            raise NotDivisible("dividend has terms below the divisor's lowest degree")
        scale = 1
        neg_q = []  # -scale*q by slice, so that each update is one accumulating product
        for k in range(gq + 1):
            r = {t: _times(c, scale) for t, c in f_sl.get(e + k, {}).items()}
            for d, qd in enumerate(neg_q):
                gs = g_sl.get(e + k - d)
                if gs and qd:
                    convolve(qd, gs, None, out=r)
            qk = {}
            while r:
                rt = max(r)
                st = tuple(y - x for x, y in zip(lt, rt))
                if min(st, default=0) < 0:
                    raise NotDivisible("leading term not divisible")
                rc = r[rt]
                f = cont // gcd(cont, *rc.values()) if cont > 1 else 1
                if f > 1:
                    for table in (r, qk, *neg_q):
                        for c in table.values():
                            for m in c:
                                c[m] *= f
                    scale *= f
                c = _neg_quotient(rc, lc, lm)
                if c is None:
                    raise NotDivisible("leading term not divisible")
                qk[st] = c
                del r[rt]
                convolve({st: c}, tail, None, out=r)
            neg_q.append(qk)
        num = {t: _times(c, -g.den) for qk in neg_q for t, c in qk.items()}
        return _canonical(self.vars, num, scale * self.den, gq)

    def compositional_inverse(self) -> TruncSeries:
        """Inverse under composition for a one-variable series c*u + higher.

        Lagrange inversion (Stanley, EC2 5.4): with self = c*u*(1 + M(u)),
        the coefficient of x^n in the inverse is [u^(n-1)] (1 + M)^-n over
        n c^n, one partition sum per n (``inverse_powers``).  M's numerators
        are those of self over the numerator a of c, and with c = a1 / b in
        lowest terms that coefficient is P_(n-1) b^n / (a^(n-1) a1^n n), so
        the table is written over |a|^(G-1) |a1|^G lcm(1..G) (G the
        guarantee) with integer numerators and settled by one gcd sweep.
        The guarantee is unchanged.
        """
        if len(self.vars) != 1:
            raise ValueError("compositional inverse needs a one-variable series")
        if (0,) in self.num:
            raise NotInvertible("nonzero constant term")
        c1 = self.num.get((1,))
        if c1 is None or not _is_rational(c1):
            raise NotInvertible("linear coefficient must be an invertible rational")
        g, a = self.guarantee, c1[0]
        M = {k - 1: c for (k,), c in self.num.items()}
        a1, b = a // gcd(a, self.den), self.den // gcd(a, self.den)
        sign, top = (1 if a > 0 else -1), lcm(*range(1, g + 1))
        table = {}
        for n, p in enumerate(inverse_powers(M, a, g - 1, 1), 1):
            if p:
                table[(n,)] = _times(p, sign * b ** n * abs(a * a1) ** (g - n) * (top // n))
        return _canonical(self.vars, table, abs(a) ** (g - 1) * abs(a1) ** g * top, g)

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.num:
            return "0"
        pieces = []
        terms = sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), tuple(-e for e in kv[0])))
        for texp, c in terms:
            mon = _t_mon_text(self.vars, texp)
            if not mon:
                for e, q in c.sorted_terms():
                    pieces.append((q < 0, _term_text(e, abs(q))))
            elif len(c.terms) == 1:
                (e, q), = c.terms.items()
                pieces.append((q < 0, _term_text(e, abs(q), mon)))
            else:
                pieces.append((False, f"({c})*{mon}"))
        return join_signed(pieces)

    def __repr__(self) -> str:
        return f"TruncSeries[{','.join(self.vars)};G={self.guarantee}]({self})"


def from_table(vars, table, guarantee) -> TruncSeries:
    """The series of a {t-exps: {m-key: Fraction}} table, truncated to ``guarantee``."""
    kept = [(t, c.items()) for t, c in table.items() if sum(t) <= guarantee]
    # the lcm of the denominators leaves no common factor
    den = lcm(*(q.denominator for _, c in kept for _, q in c if q))
    num = {t: {m: q.numerator * (den // q.denominator) for m, q in c if q} for t, c in kept}
    return _series(tuple(vars), {t: c for t, c in num.items() if c}, den, guarantee)


def term(vars, exps, q, guarantee, generator=None) -> TruncSeries:
    """The one-term series q * m_generator * t^exps, with no m_generator when
    None; q an int or a Fraction.

    Built in canonical form as it stands (q's numerator over its
    denominator), with no ``GradedCoeff``, lcm or gcd; the key of m_k comes
    from ``kernels.generator``, which refuses k < 1 and k above
    ``kernels.MAX_GENERATORS`` as ``pack`` does.
    """
    vars = tuple(vars)
    key = 0 if generator is None else generator_key(generator)
    if not q or sum(exps) > guarantee:
        return _series(vars, {}, 1, guarantee)
    return _series(vars, {tuple(exps): {key: q.numerator}}, q.denominator, guarantee)


def signed_sum(summands) -> TruncSeries:
    """The sum of sign * s over the (sign, s) pairs, on one set of variables.

    One integer table over the lcm of the denominators, truncated once at
    the least guarantee: a t-monomial's first coefficient is copied into it,
    later ones are accumulated by ``mul_acc``, and one gcd sweep settles it,
    so a sum of k series copies no partial sum.  Series on other variables
    than the first's raise VariableMismatch.
    """
    vars = summands[0][1].vars
    g = min([s.guarantee for _, s in summands])
    den = lcm(*[s.den for _, s in summands])
    out = {}
    for sign, s in summands:
        if s.vars != vars:
            raise VariableMismatch(f"{vars} vs {s.vars}")
        f = sign * (den // s.den)
        fmap = {0: f}
        for t, c in s.num.items():
            if sum(t) <= g:
                tgt = out.get(t)
                if tgt is None:
                    out[t] = _times(c, f)
                elif not mul_acc(tgt, c.items(), fmap):
                    del out[t]
    return _canonical(vars, out, den, g)


def _series(vars, num, den, guarantee) -> TruncSeries:
    """A series from a table already in canonical form, without checks."""
    s = object.__new__(TruncSeries)
    s.vars = vars
    s.num = num
    s.den = den
    s.guarantee = guarantee
    s._coeffs = None
    s._divisor = None
    return s


def _slices(num) -> dict:
    """A numerator table split by t-degree: {degree: {t-exps: {m-key: int}}}."""
    out = {}
    for t, c in num.items():
        out.setdefault(sum(t), {})[t] = c
    return out


def _divisor_slices(num) -> tuple:
    """The data of ``TruncSeries.divisor`` from a nonzero numerator table."""
    slices = _slices(num)
    e = min(slices)
    lt = max(slices[e])
    lc = slices[e][lt]
    tail = {t: c for t, c in slices[e].items() if t != lt}
    return e, slices, lt, lc, max(lc), gcd(*lc.values()), tail


def _canonical(vars, num, den, guarantee) -> TruncSeries:
    """num / den by one gcd sweep; num has no zeros and no key above the guarantee."""
    if den != 1:
        g = den
        for c in num.values():
            g = gcd(g, *c.values())
            if g == 1:
                break
        else:
            num = {t: {m: x // g for m, x in c.items()} for t, c in num.items()}
            den //= g
    return _series(vars, num, den, guarantee)


def _times(c, f) -> dict:
    """A new numerator map c * f."""
    if f == 1:
        return dict(c)
    return {m: x * f for m, x in c.items()}


def _neg_quotient(rc, lc, lm):
    """-rc / lc for numerator maps in Q[m], lm the leading m-monomial of lc;
    None when lc does not divide rc.

    The caller has scaled rc so that a quotient, if any, is integral.  A
    rational lc gives one scaled copy; any other runs the leading-term
    algorithm over m-monomials.
    """
    a = lc[lm]
    if not lm:  # lm = 0, the key of 1, is the least monomial, so lc is the rational a
        return {m: -x // a for m, x in rc.items()}
    rem = dict(rc)
    out = {}
    while rem:
        rm = max(rem)
        sm = mdiv(rm, lm)
        x = rem[rm]
        if sm is None or x % a:
            return None
        out[sm] = c = -x // a
        mul_acc(rem, ((sm, c),), lc)
    return out


def _is_rational(c) -> bool:
    """Whether a numerator map is a constant: its only m-monomial is 1."""
    return len(c) == 1 and 0 in c


def _t_mon_text(vars, exps) -> str:
    parts = []
    for v, e in zip(vars, exps):
        if e == 0:
            continue
        parts.append(v if e == 1 else f"{v}^{e}")
    return "*".join(parts)
