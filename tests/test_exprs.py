"""Expression grammar: parsing, diagnostics, rendering, evaluation."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torcob import exprs, flag
from torcob.coeff import GradedCoeff
from torcob.errors import TooLarge
from torcob.fgl import build
from torcob.series import TruncSeries
from torcob.torus import TorusContext


def test_parse_sum_of_terms():
    ast = exprs.parse("t1 + 2/3*m1*t1*t2")
    assert ast[0] == "add"
    assert ast[1] == ("var", "t", 1)
    assert ast[2][0] == "mul"


def test_parse_nested_calls():
    ast = exprs.parse("F(t1, rho(t2))")
    assert ast == ("call", "F", [("var", "t", 1), ("call", "rho", [("var", "t", 2)])])


def test_parse_error_location():
    with pytest.raises(exprs.ParseError) as info:
        exprs.parse("t1 +* t2")
    assert info.value.col == 4
    with pytest.raises(exprs.ParseError):
        exprs.parse("((t1)")
    with pytest.raises(exprs.ParseError):
        exprs.parse("t1 $ t2")
    with pytest.raises(exprs.ParseError):
        exprs.parse("frobenius(t1)")


def test_parse_rationals_and_negatives():
    assert exprs.parse("2/3") == ("rat", Fraction(2, 3))
    assert exprs.parse("-2/3") == ("rat", Fraction(-2, 3))
    assert exprs.parse("-t1") == ("neg", ("var", "t", 1))
    with pytest.raises(exprs.ParseError):
        exprs.parse("1/0")


def test_precedence():
    assert exprs.parse("t1 + t2*t1") == (
        "add",
        ("var", "t", 1),
        ("mul", ("var", "t", 2), ("var", "t", 1)),
    )
    assert exprs.parse("t1*t2^2") == (
        "mul",
        ("var", "t", 1),
        ("pow", ("var", "t", 2), 2),
    )
    assert exprs.parse("-t1^2") == ("neg", ("pow", ("var", "t", 1), 2))


def test_render_parse_identity_examples():
    for text in [
        "t1 + 2/3*m1*t1*t2",
        "F(t1, rho(t2))",
        "nser(-2, t1)",
        "chern(1, -1)",
        "(t1 + t2)^3",
        "-(t1*t2)",
        "(t1^2)^3",
    ]:
        ast = exprs.parse(text)
        assert exprs.parse(exprs.render(ast)) == ast


@st.composite
def asts(draw, depth=3):
    kinds = ["rat", "var"] if depth == 0 else ["rat", "var", "add", "sub", "mul", "neg", "pow", "call"]
    kind = draw(st.sampled_from(kinds))
    if kind == "rat":
        return ("rat", Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9))))
    if kind == "var":
        return ("var", draw(st.sampled_from("tmx")), draw(st.integers(1, 4)))
    if kind in ("add", "sub", "mul"):
        return (kind, draw(asts(depth=depth - 1)), draw(asts(depth=depth - 1)))
    if kind == "neg":
        child = draw(asts(depth=depth - 1))
        if child[0] == "rat":
            child = ("var", "t", 1)
        return ("neg", child)
    if kind == "pow":
        return ("pow", draw(asts(depth=depth - 1)), draw(st.integers(0, 5)))
    name = draw(st.sampled_from(exprs.CALL_NAMES))
    if name == "chern":
        return ("call", "chern", [("rat", Fraction(draw(st.integers(-3, 3)))) for _ in range(2)])
    if name == "nser":
        return ("call", "nser", [("rat", Fraction(draw(st.integers(-3, 3)))), draw(asts(depth=depth - 1))])
    if name == "rho":
        return ("call", "rho", [draw(asts(depth=depth - 1))])
    return ("call", "F", [draw(asts(depth=depth - 1)), draw(asts(depth=depth - 1))])


@settings(max_examples=150, deadline=None)
@given(asts())
def test_render_parse_round_trip(ast):
    assert exprs.parse(exprs.render(ast)) == ast


def test_eval_series_matches_engine():
    T = TorusContext(2, build(4, 6))
    got = exprs.eval_series(exprs.parse("F(t1, rho(t2))"), T)
    assert got == T.character_series((1, -1))
    got = exprs.eval_series(exprs.parse("chern(1, -1)"), T)
    assert got == T.character_series((1, -1))
    got = exprs.eval_series(exprs.parse("nser(2, t1)"), T)
    assert got == T.fgl.n_series(2).substitute({"u": T.var(0)})
    got = exprs.eval_series(exprs.parse("1/2*m1*t1 - t2^2"), T)
    want = T.var(0).mul_coeff(GradedCoeff.generator(1)).scale(Fraction(1, 2)) - T.var(1) ** 2
    assert got == want


def test_eval_series_specialized_m():
    T = TorusContext(1, build(0, 5, ("multiplicative", 2)))
    got = exprs.eval_series(exprs.parse("m1*t1"), T)
    assert got == T.var(0).scale(1)  # m1 = beta/2 = 1


def test_eval_series_rejections():
    T = TorusContext(2, build(4, 6))
    with pytest.raises(exprs.EvalError):
        exprs.eval_series(exprs.parse("t3"), T)
    with pytest.raises(exprs.EvalError):
        exprs.eval_series(exprs.parse("x1"), T)
    with pytest.raises(exprs.EvalError):
        exprs.eval_series(exprs.parse("chern(1)"), T)
    with pytest.raises(exprs.EvalError):
        exprs.eval_series(exprs.parse("nser(1/2, t1)"), T)


def test_eval_xpoly():
    got = exprs.eval_xpoly(exprs.parse("x1^2 - x2*x1 + m2"), 2)
    from torcob import flag

    want = flag.x_var(2, 1) ** 2 - flag.x_var(2, 2) * flag.x_var(2, 1)
    want = want + flag.x_poly(2, {(0, 0): GradedCoeff.generator(2)})
    assert got == want
    with pytest.raises(exprs.EvalError):
        exprs.eval_xpoly(exprs.parse("t1"), 2)
    with pytest.raises(exprs.EvalError):
        exprs.eval_xpoly(exprs.parse("F(x1, x2)"), 2)


# -- the evaluator against the series-per-node oracle ----------------------------
#
# The oracle is the former walk: every leaf a series built through
# GradedCoeff and the TruncSeries constructor, every +, - and negation one
# binary series operation.


def _oracle_walk(node, leaf, *env):
    kind = node[0]
    op = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}.get(kind)
    if op is not None:
        return op(_oracle_walk(node[1], leaf, *env), _oracle_walk(node[2], leaf, *env))
    if kind == "neg":
        return -_oracle_walk(node[1], leaf, *env)
    if kind == "pow":
        if node[2] < 0:
            raise exprs.EvalError("negative exponent")
        return _oracle_walk(node[1], leaf, *env) ** node[2]
    return leaf(node, *env)


def _oracle_term(vars, exps, c, guarantee):
    return TruncSeries(vars, {tuple(exps): c}, guarantee)


def series_oracle(node, ctx):
    return _oracle_walk(node, _oracle_series_leaf, ctx)


def _oracle_series_leaf(node, ctx):
    origin = (0,) * ctx.rank
    kind = node[0]
    if kind == "rat":
        return _oracle_term(ctx.vars, origin, GradedCoeff.from_rational(node[1]), ctx.D)
    if kind == "var":
        flavor, k = node[1], node[2]
        if flavor == "t":
            if not 1 <= k <= ctx.rank:
                raise exprs.EvalError(f"t{k} out of range for rank {ctx.rank}")
            exps = tuple(int(i == k - 1) for i in range(ctx.rank))
            return _oracle_term(ctx.vars, exps, GradedCoeff.one(), ctx.D)
        if flavor == "m":
            if ctx.fgl.is_specialized:
                c = GradedCoeff.from_rational(ctx.fgl.spec_value(k))
            else:
                c = GradedCoeff.generator(k)
            return _oracle_term(ctx.vars, origin, c, ctx.D)
        raise exprs.EvalError("x-variables are only meaningful in flag expressions")
    if kind == "call":
        name, args = node[1], node[2]
        if name == "F":
            if len(args) != 2:
                raise exprs.EvalError("F takes two arguments")
            return ctx.fgl.plus(series_oracle(args[0], ctx), series_oracle(args[1], ctx))
        if name == "rho":
            if len(args) != 1:
                raise exprs.EvalError("rho takes one argument")
            return ctx.fgl.rho.substitute({"u": series_oracle(args[0], ctx)})
        if name == "nser":
            if len(args) != 2:
                raise exprs.EvalError("nser takes an integer and a series")
            n = exprs._int_arg(args[0])
            return ctx.fgl.n_series(n).substitute({"u": series_oracle(args[1], ctx)})
        if name == "chern":
            chi = tuple(exprs._int_arg(a) for a in args)
            if len(chi) != ctx.rank:
                raise exprs.EvalError(f"chern needs {ctx.rank} integers")
            return ctx.character_series(chi)
    raise exprs.EvalError(f"cannot evaluate node {node!r}")


def xpoly_oracle(node, n, spec_value=None):
    return _oracle_walk(node, _oracle_xpoly_leaf, n, spec_value)


def _oracle_xpoly_leaf(node, n, spec_value):
    vars = flag.xvars(n)
    origin = (0,) * len(vars)
    kind = node[0]
    if kind == "rat":
        return _oracle_term(vars, origin, GradedCoeff.from_rational(node[1]), flag.XBOUND)
    if kind == "var":
        flavor, k = node[1], node[2]
        if flavor == "x":
            if not 1 <= k <= n:
                raise exprs.EvalError(f"x{k} out of range for n={n}")
            exps = tuple(int(i == k - 1) for i in range(n))
            return _oracle_term(vars, exps, GradedCoeff.one(), flag.XBOUND)
        if flavor == "m":
            c = (
                GradedCoeff.from_rational(spec_value(k))
                if spec_value is not None
                else GradedCoeff.generator(k)
            )
            return _oracle_term(vars, origin, c, flag.XBOUND)
        raise exprs.EvalError("t-variables are not part of the coinvariant ring")
    raise exprs.EvalError("function calls are not allowed in coinvariant expressions")


def _outcome(evaluate, *args):
    """The value, its guarantee and its text, or the error's type and message."""
    try:
        value = evaluate(*args)
    except Exception as exc:  # every error must match the oracle's
        return type(exc), str(exc)
    return value, value.guarantee, str(value)


LAWS = {"universal": None, "additive": "additive", "multiplicative:2/5": ("multiplicative", Fraction(2, 5))}
_CONTEXTS = {}


def _context(rank, law):
    key = rank, law
    if key not in _CONTEXTS:
        _CONTEXTS[key] = TorusContext(rank, build(3, 4, LAWS[law]))
    return _CONTEXTS[key]


_RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.integers(-5, 5).map(Fraction),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
)


@st.composite
def eval_trees(draw, flavors, depth=3):
    """Trees of sums, differences, negations, products, powers and, when
    ``flavors`` has t, calls, over rational and variable leaves.  A leaf is
    one of ``flavors`` with index 1 to 3, except now and then, when it is
    any flavor with index 0 to 4, and an exponent is now and then -1, so
    that each evaluator's refusals are drawn too."""
    calls = "t" in flavors
    kinds = ["rat", "var", "var"]
    if depth:
        kinds += ["add", "sub", "neg", "mul", "pow"] + (["call"] if calls else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "rat":
        return ("rat", draw(_RATIONALS))
    if kind == "var":
        if draw(st.integers(0, 11)):
            return ("var", draw(st.sampled_from(flavors)), draw(st.integers(1, 3)))
        return ("var", draw(st.sampled_from("tmx")), draw(st.integers(0, 4)))
    sub = eval_trees(flavors, depth - 1)
    if kind in ("add", "sub", "mul"):
        return (kind, draw(sub), draw(sub))
    if kind == "neg":
        return ("neg", draw(sub))
    if kind == "pow":
        return ("pow", draw(sub), draw(st.integers(-1, 4) if draw(st.integers(0, 15)) == 0 else st.integers(0, 4)))
    name = draw(st.sampled_from(exprs.CALL_NAMES))
    if name == "chern":
        k = draw(st.integers(1, 3))
        return ("call", "chern", [("rat", Fraction(draw(st.integers(-2, 2)))) for _ in range(k)])
    if name == "nser":
        return ("call", "nser", [("rat", Fraction(draw(st.integers(-2, 3)))), draw(sub)])
    if name == "rho":
        return ("call", "rho", [draw(sub)])
    return ("call", "F", [draw(sub), draw(sub)])


@settings(max_examples=300, deadline=None)
@given(eval_trees("tm"), st.integers(1, 3), st.sampled_from(sorted(LAWS)))
def test_eval_series_matches_the_oracle(tree, rank, law):
    T = _context(rank, law)
    assert _outcome(exprs.eval_series, tree, T) == _outcome(series_oracle, tree, T)


@settings(max_examples=300, deadline=None)
@given(eval_trees("xm"), st.integers(1, 3), st.sampled_from(sorted(LAWS)))
def test_eval_xpoly_matches_the_oracle(tree, n, law):
    spec = _context(1, law).fgl
    m_value = spec.spec_value if spec.is_specialized else None
    assert _outcome(exprs.eval_xpoly, tree, n, m_value) == _outcome(xpoly_oracle, tree, n, m_value)


@pytest.mark.parametrize(
    "text, error",
    [
        ("t1 + t3", exprs.EvalError),
        ("x1*t1", exprs.EvalError),
        ("m0", ValueError),
        ("m1025", TooLarge),
        ("m1^40000*t1", TooLarge),
    ],
)
def test_eval_series_refusals_match_the_oracle(text, error):
    T = _context(2, "universal")
    tree = exprs.parse(text)
    got = _outcome(exprs.eval_series, tree, T)
    assert got == _outcome(series_oracle, tree, T) and got[0] is error


@pytest.mark.parametrize(
    "tree, error",
    [
        (exprs.parse("x1 - x4"), exprs.EvalError),
        (exprs.parse("x1 + t1"), exprs.EvalError),
        (exprs.parse("x1*F(x1, x2)"), exprs.EvalError),
        (("pow", ("var", "x", 1), -1), exprs.EvalError),
        (exprs.parse("m1^40000*x1 + x2"), TooLarge),
        (exprs.parse("m1^40000*x1"), TooLarge),
        (exprs.parse("x2 - m1025"), TooLarge),
    ],
)
def test_eval_xpoly_refusals_match_the_oracle(tree, error):
    got = _outcome(exprs.eval_xpoly, tree, 2)
    assert got == _outcome(xpoly_oracle, tree, 2) and got[0] is error


def test_a_sum_is_added_in_one_table(monkeypatch):
    """A chain of k summands is one signed_sum and forms no partial sum."""
    tree = exprs.parse("x1 - x2 + 1/2 - (x3 - -x1) + m1*x2")
    want = xpoly_oracle(tree, 3)
    calls = []
    real = exprs.signed_sum
    monkeypatch.setattr(exprs, "signed_sum", lambda parts: calls.append(len(parts)) or real(parts))
    for name in ("__add__", "__sub__", "__neg__"):
        monkeypatch.setattr(TruncSeries, name, None)
    assert exprs.eval_xpoly(tree, 3) == want
    assert calls == [6]


# -- deep and long expressions -----------------------------------------------------

NESTING_SHAPES = {  # each wraps an atom into an atom one level deeper
    "parens": "({})",
    "minus": "-{}",
    "sum-product-power": "({v}1 - 2*{}^1*{v}1)",
    "F": "F(t1, {})",
    "nser": "nser(2, {})",
}


def _nested(shape, levels, v):
    text = f"{v}1"
    for _ in range(levels - 1):
        text = shape.replace("{v}", v).format(text)
    return text


@pytest.mark.parametrize("shape", sorted(NESTING_SHAPES))
def test_nesting_is_refused_beyond_the_limit(shape):
    ctx = TorusContext(2, build(1, 2))
    v = "t" if shape in ("F", "nser") else "x"
    tree = exprs.parse(_nested(NESTING_SHAPES[shape], exprs.MAX_NESTING, v))
    got = exprs.eval_series(tree, ctx) if v == "t" else exprs.eval_xpoly(tree, 2)
    if shape == "parens":
        assert got == exprs.eval_xpoly(exprs.parse("x1"), 2)
    if shape == "minus":
        assert got == exprs.eval_xpoly(exprs.parse(f"{(-1) ** (exprs.MAX_NESTING - 1)}*x1"), 2)
    deeper = _nested(NESTING_SHAPES[shape], exprs.MAX_NESTING + 1, v)
    with pytest.raises(exprs.ParseError, match=f"nested deeper than {exprs.MAX_NESTING}"):
        exprs.parse(deeper)


@pytest.mark.parametrize("op, compact", [("+", "1200*{}"), ("-", "-1198*{}"), ("*", "{}^1200")])
def test_long_chains_evaluate_in_loops(op, compact):
    ctx = TorusContext(2, build(1, 3))
    for v, evaluate in (("t", lambda tree: exprs.eval_series(tree, ctx)),
                        ("x", lambda tree: exprs.eval_xpoly(tree, 2))):
        chain = exprs.parse(op.join([f"{v}1"] * 1200))
        assert evaluate(chain) == evaluate(exprs.parse(compact.format(f"{v}1")))


@pytest.mark.parametrize("op", [" + ", " - ", "*"])
def test_long_chains_render_in_loops(op):
    text = op.join(["x1", "(x2 - 1/2)", "m1^2", "-x3"] * 300)
    assert exprs.render(exprs.parse(text)) == text
