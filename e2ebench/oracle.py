"""Independent arithmetic for the answer checks.

Nothing here imports torcob: every expected value is computed from first
principles in plain ``Fraction`` arithmetic, and program output is read back
with a parser of its own.

A polynomial is a dict {monomial: Fraction}; a monomial is a tuple of
(variable, exponent) pairs sorted by variable name.  Variables named ``m<i>``
are Lazard generators; every other variable is a series variable, and
truncations count only the series variables.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

ONE = ()


# -- polynomials --------------------------------------------------------------------


def is_lazard(var: str) -> bool:
    return var[0] == "m"


def tdeg(mon) -> int:
    """Degree of a monomial in the series (non-Lazard) variables."""
    return sum(e for v, e in mon if not is_lazard(v))


def mono_mul(a, b):
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for v, e in b:
        out[v] = out.get(v, 0) + e
    return tuple(sorted(out.items()))


def padd(a, b, sign=1):
    out = dict(a)
    for m, q in b.items():
        s = out.get(m, 0) + sign * q
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def pscale(a, q):
    q = Fraction(q)
    return {m: c * q for m, c in a.items()} if q else {}


def pmul(a, b, cap=None):
    out = {}
    for ma, qa in a.items():
        da = tdeg(ma)
        for mb, qb in b.items():
            if cap is not None and da + tdeg(mb) > cap:
                continue
            m = mono_mul(ma, mb)
            s = out.get(m, 0) + qa * qb
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def ptrunc(a, cap):
    return {m: q for m, q in a.items() if tdeg(m) <= cap}


def var(name):
    return {((name, 1),): Fraction(1)}


def const(q):
    q = Fraction(q)
    return {ONE: q} if q else {}


def compose(f, name, g, cap):
    """f with the variable ``name`` replaced by g (g has no constant term)."""
    out = {}
    powers = [const(1)]
    for mon, q in f.items():
        e = dict(mon).pop(name, 0)
        rest = tuple((v, k) for v, k in mon if v != name)
        while len(powers) <= e:
            powers.append(pmul(powers[-1], g, cap))
        out = padd(out, pmul({rest: q}, powers[e], cap))
    return ptrunc(out, cap)


# -- reading program output ----------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]+\d*)|(.))")


def parse_poly(text: str) -> dict:
    """Parse '+ - * ^ ( )', integers, 'p/q' rationals and names into a polynomial."""
    tokens = []
    for num, name, sym in _TOKEN.findall(text.strip()):
        if num:
            tokens.append(("num", int(num)))
        elif name:
            tokens.append(("name", name))
        elif sym.strip():
            tokens.append((sym, sym))
    tokens.append(("end", None))
    pos = 0

    def peek():
        return tokens[pos][0]

    def take(kind=None):
        nonlocal pos
        tok = tokens[pos]
        if kind is not None and tok[0] != kind:
            raise ValueError(f"expected {kind!r} at token {pos} in {text!r}")
        pos += 1
        return tok

    def expr():
        out = term()
        while peek() in "+-":
            sign = 1 if take()[0] == "+" else -1
            out = padd(out, term(), sign)
        return out

    def term():
        out = factor()
        while peek() == "*":
            take()
            out = pmul(out, factor())
        return out

    def factor():
        base = atom()
        if peek() == "^":
            take()
            n = take("num")[1]
            out = const(1)
            for _ in range(n):
                out = pmul(out, base)
            return out
        return base

    def atom():
        kind = peek()
        if kind == "-":
            take()
            return pscale(factor(), -1)
        if kind == "num":
            n = take()[1]
            if peek() == "/":
                take()
                return const(Fraction(n, take("num")[1]))
            return const(n)
        if kind == "name":
            return var(take()[1])
        if kind == "(":
            take()
            out = expr()
            take(")")
            return out
        raise ValueError(f"unexpected token {tokens[pos]!r} in {text!r}")

    out = expr()
    take("end")
    return out


def m(i: int, q=1) -> dict:
    return {((f"m{i}", 1),): Fraction(q)}


# -- the formal group law from its logarithm -------------------------------------------


class LogLaw:
    """l(u) = u + sum c_i u^(i+1); c_i = m_i for i <= dc (universal) or rationals."""

    def __init__(self, deg, dc=0, spec=None):
        self.deg = deg
        coeffs = {}
        for i in range(1, deg):
            if spec is None:
                if i <= dc:
                    coeffs[i] = m(i)
            elif spec[0] == "multiplicative":
                coeffs[i] = const(Fraction(spec[1]) ** i / (i + 1))
        self.coeffs = coeffs
        self._exp = None

    def log_of(self, s):
        """l(s) truncated at the law's degree."""
        out = dict(s)
        power = s
        for i in range(1, self.deg):
            power = pmul(power, s, self.deg)
            if not power:
                break
            if i in self.coeffs:
                out = padd(out, pmul(self.coeffs[i], power, self.deg))
        return out

    def exp_of(self, s):
        """e(s): the compositional inverse of l, by fixed-point iteration."""
        if self._exp is None:
            x = var("x")
            e = x
            for _ in range(self.deg):
                e = padd(x, padd(self.log_of(e), e, -1), -1)
            self._exp = ptrunc(e, self.deg)
        return compose(self._exp, "x", s, self.deg)

    def sum(self, a, b):
        return self.exp_of(padd(self.log_of(a), self.log_of(b)))

    def nseries(self, n, name="u"):
        return self.exp_of(pscale(self.log_of(var(name)), n))

    def F(self):
        return self.sum(var("u"), var("v"))


# -- localization values at a rational point -------------------------------------------


def pairing(chi, point):
    return sum(Fraction(c) * p for c, p in zip(chi, point))


def mult_chern(chi, point, beta):
    """Multiplicative first Chern class (1 - prod (1 - beta t_i)^chi_i) / beta."""
    prod = Fraction(1)
    for c, p in zip(chi, point):
        prod *= (1 - beta * p) ** c
    return (1 - prod) / beta


def flag_tangent(w):
    """Tangent characters of GL_n/B at the fixed flag w: e_w(i) - e_w(j), i < j."""
    n = len(w)
    out = []
    for i, j in itertools.combinations(range(n), 2):
        chi = [0] * n
        chi[w[i] - 1] += 1
        chi[w[j] - 1] -= 1
        out.append(tuple(chi))
    return out


def flag_residue_sum(n, exps, point, beta=None):
    """Atiyah-Bott sum of x^exps over Fl(n) at a rational point, x_k -> t_w(k).

    beta=None uses the additive Chern class (the pairing) in the Euler
    classes, otherwise the multiplicative one; with beta, only the fundamental
    class (all exponents 0) has a residue sum that is constant in the point.
    """
    total = Fraction(0)
    for w in itertools.permutations(range(1, n + 1)):
        num = Fraction(1)
        den = Fraction(1)
        for k, e in enumerate(exps):
            num *= Fraction(point[w[k] - 1]) ** e
        for chi in flag_tangent(w):
            den *= pairing(chi, point) if beta is None else mult_chern(chi, point, beta)
        total += num / den
    return total


def render(a) -> str:
    """Text in the command-line expression grammar ('0' for zero)."""
    pieces = []
    for mon, q in sorted(a.items()):
        factors = [f"{v}^{e}" if e > 1 else v for v, e in mon]
        mag = abs(q)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        text = "*".join(factors)
        if not pieces:
            pieces.append(f"-{text}" if q < 0 else text)
        else:
            pieces.append(f" - {text}" if q < 0 else f" + {text}")
    return "".join(pieces) or "0"


def rename(a, mapping):
    """Substitute variables by variables, e.g. {'x1': 't2'}; others stay."""
    out = {}
    for mon, q in a.items():
        exps = {}
        for v, e in mon:
            v = mapping.get(v, v)
            exps[v] = exps.get(v, 0) + e
        out = padd(out, {tuple(sorted(exps.items())): q})
    return out


def elementary(names, k):
    """The elementary symmetric polynomial e_k in the given variables."""
    out = {}
    for combo in itertools.combinations(names, k):
        out[tuple(sorted((v, 1) for v in combo))] = Fraction(1)
    return out
