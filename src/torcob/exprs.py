"""Expression grammar for the command line.

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' int)?
    atom   := rational | ident | call | '(' expr ')' | '-' atom
    ident  := ('t'|'m'|'x') int
    call   := ('F'|'rho'|'nser'|'chern') '(' args ')'

Rationals are "p/q" with no spaces around the slash.  Columns in error
messages are zero-based.  ``render`` emits text that ``parse`` maps back to
the identical tree.  The parser builds sums and products in loops and
recurses only into atoms; an atom nested more than MAX_NESTING deep
(parentheses, unary minus and call arguments each add a level) is a
ParseError, so no input exhausts the interpreter's stack.

``eval_series`` (over a torus context) and ``eval_xpoly`` (x-polynomials
for the flag variety) share one walk, ``_evaluate``, and differ in their
leaves.  A rational, a variable or a generator is one term, built directly
by ``series.term``; a chain of sums and differences is added in one table
by ``series.signed_sum``; products and powers are ``TruncSeries``'s; the
calls F, rho, nser and chern are the law's series.  Sum and product chains
are walked in loops, so the evaluator and ``render`` recurse only as deep
as the atoms nest.
"""

from __future__ import annotations

from fractions import Fraction

from torcob.series import TruncSeries, signed_sum, term

CALL_NAMES = ("F", "rho", "nser", "chern")
MAX_NESTING = 100


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
        self.depth = 0

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
        if self.depth == MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels", tok[2])
        self.depth += 1
        node = self._atom(tok)
        self.depth -= 1
        return node

    def _atom(self, tok):
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
_INFIX = {"add": " + ", "sub": " - ", "mul": "*"}
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
    if kind in _INFIX:
        # the left operand of a chain needs no parentheses: walk it in a loop
        prec = _PREC[kind]
        right = []
        while _PREC.get(node[0]) == prec:
            right.append(_INFIX[node[0]] + _wrap(node[2], prec + 1))
            node = node[1]
        return _wrap(node, prec) + "".join(reversed(right))
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


def _summands(node):
    """The (sign, node) pairs of a chain of add, sub and neg, left to right."""
    out = []
    stack = [(1, node)]
    while stack:
        sign, node = stack.pop()
        kind = node[0]
        if kind == "add" or kind == "sub":
            stack.append((-sign if kind == "sub" else sign, node[2]))
            stack.append((sign, node[1]))
        elif kind == "neg":
            stack.append((-sign, node[1]))
        else:
            out.append((sign, node))
    return out


def _evaluate(node, leaf, *env):
    """The arithmetic both evaluators share; ``leaf(node, *env)`` does the rest.

    A chain of add, sub and neg is one sum: its summands are evaluated left
    to right and added in one table (``series.signed_sum``), so no partial
    sum is formed.  Products and powers are those of ``TruncSeries``; a
    chain a*b*c*... is multiplied left to right as each factor is evaluated.
    """
    kind = node[0]
    if kind in ("add", "sub", "neg"):
        parts = _summands(node)
        return signed_sum([(sign, _evaluate(part, leaf, *env)) for sign, part in parts])
    if kind == "mul":
        right = []
        while node[0] == "mul":
            right.append(node[2])
            node = node[1]
        out = _evaluate(node, leaf, *env)
        for factor in reversed(right):
            out = out * _evaluate(factor, leaf, *env)
        return out
    if kind == "pow":
        if node[2] < 0:
            raise EvalError("negative exponent")
        return _evaluate(node[1], leaf, *env) ** node[2]
    return leaf(node, *env)


def _unit(rank, k):
    """The exponents of the k-th of ``rank`` variables, 1-based."""
    return (0,) * (k - 1) + (1,) + (0,) * (rank - k)


def eval_series(node, ctx) -> TruncSeries:
    """Evaluate over S(T) for a torus context; x-variables are rejected."""
    return _evaluate(node, _series_leaf, ctx)


def _series_leaf(node, ctx) -> TruncSeries:
    kind = node[0]
    if kind == "rat":
        return term(ctx.vars, (0,) * ctx.rank, node[1], ctx.D)
    if kind == "var":
        flavor, k = node[1], node[2]
        if flavor == "t":
            if not 1 <= k <= ctx.rank:
                raise EvalError(f"t{k} out of range for rank {ctx.rank}")
            return term(ctx.vars, _unit(ctx.rank, k), 1, ctx.D)
        if flavor == "m":
            if ctx.fgl.is_specialized:
                return term(ctx.vars, (0,) * ctx.rank, ctx.fgl.spec_value(k), ctx.D)
            return term(ctx.vars, (0,) * ctx.rank, 1, ctx.D, k)
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
    from torcob.flag import XBOUND, xvars

    return _evaluate(node, _xpoly_leaf, n, xvars(n), XBOUND, spec_value)


def _xpoly_leaf(node, n, vars, bound, spec_value) -> TruncSeries:
    kind = node[0]
    if kind == "rat":
        return term(vars, (0,) * len(vars), node[1], bound)
    if kind == "var":
        flavor, k = node[1], node[2]
        if flavor == "x":
            if not 1 <= k <= n:
                raise EvalError(f"x{k} out of range for n={n}")
            return term(vars, _unit(n, k), 1, bound)
        if flavor == "m":
            if spec_value is not None:
                return term(vars, (0,) * len(vars), spec_value(k), bound)
            return term(vars, (0,) * len(vars), 1, bound, k)
        raise EvalError("t-variables are not part of the coinvariant ring")
    raise EvalError("function calls are not allowed in coinvariant expressions")
