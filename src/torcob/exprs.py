"""Expression grammar for the command line.

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' int)?
    atom   := rational | ident | call | '(' expr ')' | '-' atom
    ident  := ('t'|'m'|'x') int
    call   := ('F'|'rho'|'nser'|'chern') '(' args ')'

Rationals are "p/q" with no spaces around the slash.  Columns in error
messages are zero-based.  ``render`` emits text that ``parse`` maps back to
the identical tree.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from torcob.coeff import GradedCoeff
from torcob.series import TruncSeries

CALL_NAMES = ("F", "rho", "nser", "chern")


class ParseError(Exception):
    def __init__(self, message, col, line=1):
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.col = col
        self.line = line


class EvalError(Exception):
    pass


# -- lexer ---------------------------------------------------------------------


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*^(),/":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


# -- parser --------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return self.advance()

    def parse_expr(self):
        node = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.parse_term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek()[0] == "*":
            self.advance()
            node = ("mul", node, self.parse_factor())
        return node

    def parse_factor(self):
        node = self.parse_atom()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("int")
            node = ("pow", node, int(tok[1]))
        return node

    def parse_atom(self):
        tok = self.peek()
        kind, text, col = tok
        if kind == "-":
            self.advance()
            operand = self.parse_factor()
            if operand[0] == "rat":
                return ("rat", -operand[1])
            return ("neg", operand)
        if kind == "int":
            self.advance()
            if self.peek()[0] == "/":
                self.advance()
                den = self.expect("int")
                if int(den[1]) == 0:
                    raise ParseError("zero denominator", den[2])
                return ("rat", Fraction(int(text), int(den[1])))
            return ("rat", Fraction(int(text)))
        if kind == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        if kind == "name":
            if text in CALL_NAMES:
                self.advance()
                self.expect("(")
                args = [self.parse_expr()]
                while self.peek()[0] == ",":
                    self.advance()
                    args.append(self.parse_expr())
                self.expect(")")
                return ("call", text, args)
            if len(text) >= 2 and text[0] in "tmx" and text[1:].isdigit():
                self.advance()
                return ("var", text[0], int(text[1:]))
            raise ParseError(f"unknown identifier {text!r}", col)
        raise ParseError(f"unexpected {text!r}", col)


def parse(text: str):
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "end":
        raise ParseError(f"unexpected {tok[1]!r}", tok[2])
    return node


# -- renderer -------------------------------------------------------------------

_PREC = {"add": 1, "sub": 1, "mul": 2, "neg": 3, "pow": 4}
_ATOMIC = 5


def _prec(node):
    kind = node[0]
    if kind == "rat":
        return 3 if node[1] < 0 else _ATOMIC
    return _PREC.get(kind, _ATOMIC)


def render(node) -> str:
    kind = node[0]
    if kind == "rat":
        return str(node[1])
    if kind == "var":
        return f"{node[1]}{node[2]}"
    if kind == "add":
        return f"{_wrap(node[1], 1)} + {_wrap(node[2], 2)}"
    if kind == "sub":
        return f"{_wrap(node[1], 1)} - {_wrap(node[2], 2)}"
    if kind == "mul":
        return f"{_wrap(node[1], 2)}*{_wrap(node[2], 3)}"
    if kind == "neg":
        return f"-{_wrap(node[1], 3)}"
    if kind == "pow":
        return f"{_wrap(node[1], 5)}^{node[2]}"
    if kind == "call":
        return f"{node[1]}({', '.join(render(a) for a in node[2])})"
    raise ValueError(f"unknown node {node!r}")


def _wrap(node, need) -> str:
    text = render(node)
    if _prec(node) < need:
        return f"({text})"
    return text


# -- evaluation -----------------------------------------------------------------


def _int_arg(node):
    if node[0] == "rat" and node[1].denominator == 1:
        return int(node[1])
    if node[0] == "neg":
        return -_int_arg(node[1])
    raise EvalError("expected an integer argument")


_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def _evaluate(node, leaf, *env):
    """The arithmetic both evaluators share; ``leaf(node, *env)`` does the rest."""
    kind = node[0]
    op = _BINARY.get(kind)
    if op is not None:
        return op(_evaluate(node[1], leaf, *env), _evaluate(node[2], leaf, *env))
    if kind == "neg":
        return -_evaluate(node[1], leaf, *env)
    if kind == "pow":
        if node[2] < 0:
            raise EvalError("negative exponent")
        return _evaluate(node[1], leaf, *env) ** node[2]
    return leaf(node, *env)


def eval_series(node, ctx) -> TruncSeries:
    """Evaluate over S(T) for a torus context; x-variables are rejected."""
    return _evaluate(node, _series_leaf, ctx)


def _series_leaf(node, ctx) -> TruncSeries:
    kind = node[0]
    if kind == "rat":
        return ctx.constant(node[1])
    if kind == "var":
        flavor, k = node[1], node[2]
        if flavor == "t":
            if not 1 <= k <= ctx.rank:
                raise EvalError(f"t{k} out of range for rank {ctx.rank}")
            return ctx.var(k - 1)
        if flavor == "m":
            if ctx.fgl.is_specialized:
                return ctx.constant(ctx.fgl.spec_value(k))
            return ctx.constant(GradedCoeff.generator(k))
        raise EvalError("x-variables are only meaningful in flag expressions")
    if kind == "call":
        name, args = node[1], node[2]
        if name == "F":
            if len(args) != 2:
                raise EvalError("F takes two arguments")
            return ctx.fgl.plus(eval_series(args[0], ctx), eval_series(args[1], ctx))
        if name == "rho":
            if len(args) != 1:
                raise EvalError("rho takes one argument")
            return ctx.fgl.rho.substitute({"u": eval_series(args[0], ctx)})
        if name == "nser":
            if len(args) != 2:
                raise EvalError("nser takes an integer and a series")
            n = _int_arg(args[0])
            return ctx.fgl.n_series(n).substitute({"u": eval_series(args[1], ctx)})
        if name == "chern":
            chi = tuple(_int_arg(a) for a in args)
            if len(chi) != ctx.rank:
                raise EvalError(f"chern needs {ctx.rank} integers")
            return ctx.character_series(chi)
    raise EvalError(f"cannot evaluate node {node!r}")


def eval_xpoly(node, n: int, spec_value=None) -> TruncSeries:
    """Evaluate a polynomial in x_1..x_n with Lazard coefficients."""
    return _evaluate(node, _xpoly_leaf, n, spec_value)


def _xpoly_leaf(node, n, spec_value) -> TruncSeries:
    from torcob import flag as _flag

    kind = node[0]
    if kind == "rat":
        return TruncSeries.constant(_flag.xvars(n), node[1], _flag.XBOUND)
    if kind == "var":
        flavor, k = node[1], node[2]
        if flavor == "x":
            if not 1 <= k <= n:
                raise EvalError(f"x{k} out of range for n={n}")
            return _flag.x_var(n, k)
        if flavor == "m":
            c = (
                GradedCoeff.from_rational(spec_value(k))
                if spec_value is not None
                else GradedCoeff.generator(k)
            )
            return TruncSeries.constant(_flag.xvars(n), c, _flag.XBOUND)
        raise EvalError("t-variables are not part of the coinvariant ring")
    raise EvalError("function calls are not allowed in coinvariant expressions")
