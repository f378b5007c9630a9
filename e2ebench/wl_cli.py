"""Workload ``cli``: the shell user's path.

Each op is one in-process ``torcob.cli.main`` call, which parses its
arguments and builds fresh contexts every time.  A round is a fixed mix of
commands (see MIX); the command kinds, ranks and degrees come from a fixed
stream, so every seed runs the same mix of sizes, and the seed draws the
polynomials, classes and parameters.  Every output is read back by the
benchmark's own parser and compared with values computed independently.
"""

from __future__ import annotations

import io
import itertools
import json
import random
import re
from fractions import Fraction

import oracle
from ops import Op

MIN_ROUNDS = 4
CONFIG_SEED = 5
COEFF_DEGREE = 6  # the command line's default --coeff-deg

# (command, ops per round)
MIX = [
    ("flag kernel", 10),
    ("flag nf", 10),
    ("fgl print", 3),
    ("fgl nseries", 2),
    ("fgl acoeff", 2),
    ("gkm gen", 3),
    ("gkm check", 3),
    ("gkm integrate", 3),
    ("gkm expand", 2),
    ("gkm forget", 2),
]
BETAS = [Fraction(2, 5), Fraction(-1, 3), Fraction(3, 2), Fraction(1)]
P1_CHARS = [(1,), (-1,), (1, -1), (2, 3), (1, 1, 1)]
HEADER = re.compile(r"# deg (\d+)$")


# -- independent inputs ---------------------------------------------------------------


def xnames(n):
    return [f"x{i + 1}" for i in range(n)]


def tnames(n):
    return [f"t{i + 1}" for i in range(n)]


def shape(cfg, deg, terms):
    """(degree, Lazard factor index or 0) per term: the size of a polynomial.

    Shapes come from the fixed stream and values from the seeded one, so the
    work a command does barely depends on the seed.
    """
    return [(deg if i == 0 else cfg.randint(0, deg), cfg.choice((0, 0, 0, 1, 2)))
            for i in range(terms)]


def rational(rng):
    return Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 4]), rng.choice([1, 1, 2, 3]))


def monomial(names, exps):
    return {tuple(sorted((v, e) for v, e in zip(names, exps) if e)): Fraction(1)}


def term(rng, names, exps, lazard_index):
    """A seeded rational times x^exps, times m_(lazard_index) unless it is 0."""
    out = oracle.pscale(monomial(names, exps), rational(rng))
    return oracle.pmul(out, oracle.m(lazard_index)) if lazard_index else out


def fill(rng, names, terms):
    """A polynomial of the given shape with seeded exponents and coefficients."""
    out = {}
    for d, lazard_index in terms:
        exps = [0] * len(names)
        for _ in range(d):
            exps[rng.randrange(len(names))] += 1
        out = oracle.padd(out, term(rng, names, exps, lazard_index))
    return out


def fill_staircase(rng, n, terms):
    """Artin staircase monomials x^a, a_i <= n - i, of the shape's degrees."""
    stair = list(itertools.product(*(range(n - i) for i in range(n))))
    out = {}
    for d, lazard_index in terms:
        exps = rng.choice([a for a in stair if sum(a) == d])
        out = oracle.padd(out, term(rng, xnames(n), exps, lazard_index))
    return out


def coinvariant_input(cfg, rng, n, deg, zero):
    """(r, p, text): p = r + sum q_k e_k of degree deg, r on the staircase (0 if zero)."""
    names = xnames(n)
    top = n * (n - 1) // 2
    r_shape = [] if zero else [(cfg.randint(0, min(deg, top)), cfg.choice((0, 0, 1)))
                               for _ in range(cfg.randint(1, 3))]
    q_shapes = {k: shape(cfg, deg - k, cfg.randint(1, 3)) for k in range(1, min(n, deg) + 1)
                if k == 1 or cfg.random() < 0.6}
    while True:
        r = fill_staircase(rng, n, r_shape)
        p = dict(r)
        pieces = [f"({oracle.render(r)})"] if r else []
        for k, q_shape in q_shapes.items():
            q = fill(rng, names, q_shape)
            e = oracle.elementary(names, k)
            p = oracle.padd(p, oracle.pmul(q, e))
            pieces.append(f"({oracle.render(q)})*({oracle.render(e)})")
        if p and max(oracle.tdeg(mon) for mon in p) == deg and (r or zero):
            return r, p, " + ".join(pieces)


def unit(n, i):
    """The character e_i (1-based) of a rank-n torus; e_0 is zero."""
    return [1 if k == i - 1 else 0 for k in range(n)]


def pn_json(n):
    """P^n: fixed points 0..n, the line through i < j with character e_i - e_j at i."""
    edges = [{"v": str(i), "w": str(j), "char": [a - b for a, b in zip(unit(n, i), unit(n, j))]}
             for i, j in itertools.combinations(range(n + 1), 2)]
    return {"rank": n, "dim": n, "vertices": [str(i) for i in range(n + 1)], "edges": edges}


def flag_json(n):
    """GL_n/B: permutations, joined by transpositions, e_w(i) - e_w(j) at w (i < j)."""
    perms = ["".join(map(str, w)) for w in sorted(itertools.permutations(range(1, n + 1)))]
    edges = []
    for w in perms:
        for i, j in itertools.combinations(range(n), 2):
            swapped = list(w)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            other = "".join(swapped)
            if w < other:
                chi = [0] * n
                chi[int(w[i]) - 1] += 1
                chi[int(w[j]) - 1] -= 1
                edges.append({"v": w, "w": other, "char": chi})
    return {"rank": n, "dim": n * (n - 1) // 2, "vertices": perms, "edges": edges}


def p1_json(chi):
    return {"rank": len(chi), "dim": 1, "vertices": ["0", "inf"],
            "edges": [{"v": "0", "w": "inf", "char": list(chi)}]}


def hyperplane_power(v, k):
    """h^k at the fixed point v of P^n, where h restricts to t_v (t_0 = 0)."""
    out = oracle.const(1)
    for _ in range(k):
        out = oracle.pmul(out, oracle.var(f"t{v}") if v != "0" else {})
    return out


# -- command generators: (argv, check of (exit code, stdout, stderr)) -------------------


def _lines(out):
    return out.rstrip("\n").split("\n")


def _header(line):
    match = HEADER.match(line)
    if not match:
        raise ValueError(f"no '# deg N' header in {line!r}")
    return int(match.group(1))


def gen_flag_kernel(cfg, rng):
    n = cfg.choice((3, 3, 3, 3, 2))
    deg = cfg.choice((2, 2, 3, 3, 4)) if n == 3 else cfg.choice((1, 2, 3))
    zero = cfg.random() < 0.35
    r, p, text = coinvariant_input(cfg, rng, n, deg, zero)

    def check(out):
        head, answer = _lines(out)
        _header(head)
        return answer == ("true" if not r else "false")

    return ["flag", "kernel", text, "--rank", str(n)], check


def gen_flag_nf(cfg, rng):
    n = cfg.choice((2, 3, 3, 3, 4))
    deg = cfg.randint(2, 4) if n > 2 else cfg.randint(1, 3)
    r, p, text = coinvariant_input(cfg, rng, n, deg, zero=cfg.random() < 0.2)

    def check(out):
        (answer,) = _lines(out)
        return oracle.parse_poly(answer) == r

    return ["flag", "nf", text, "--rank", str(n)], check


def _law(kind, deg, beta):
    if kind == "universal":
        return oracle.LogLaw(deg, COEFF_DEGREE)
    return oracle.LogLaw(deg, spec=("multiplicative", beta))


def gen_fgl_print(cfg, rng):
    kind = cfg.choice(("universal", "multiplicative", "additive"))
    deg = cfg.randint(4, 6)
    beta = rng.choice(BETAS)
    argv = ["fgl", "print", "--deg", str(deg)]
    u_plus_v = oracle.padd(oracle.var("u"), oracle.var("v"))
    want = None  # the universal law's F is computed when checked
    if kind == "multiplicative":
        argv += ["--spec", f"multiplicative:{beta}"]
        want = oracle.padd(u_plus_v, {(("u", 1), ("v", 1)): -beta})
    elif kind == "additive":
        argv += ["--spec", "additive"]
        want = u_plus_v

    def check(out):
        (answer,) = _lines(out)
        return oracle.parse_poly(answer) == (want if want is not None else _law(kind, deg, beta).F())

    return argv, check


def gen_fgl_nseries(cfg, rng):
    kind = cfg.choice(("universal", "multiplicative"))
    deg = cfg.randint(4, 6)
    n = cfg.choice((-3, -2, -1, 2, 3, 4))
    beta = rng.choice(BETAS)
    argv = ["fgl", "nseries", "--n", str(n), "--deg", str(deg)]
    if kind == "multiplicative":
        argv += ["--spec", f"multiplicative:{beta}"]

    def check(out):
        (answer,) = _lines(out)
        return oracle.parse_poly(answer) == _law(kind, deg, beta).nseries(n)

    return argv, check


def gen_fgl_acoeff(cfg, rng):
    total = cfg.randint(2, 5)
    i = cfg.randint(1, total - 1)
    j = total - i

    def check(out):
        head, answer = _lines(out)
        _header(head)
        F = _law("universal", total, None).F()
        want = {}
        for mon, q in F.items():
            exps = dict(mon)
            if exps.pop("u", 0) == i and exps.pop("v", 0) == j:
                want[tuple(sorted(exps.items()))] = q
        return oracle.parse_poly(answer) == want

    return ["fgl", "acoeff", "--i", str(i), "--j", str(j)], check


def gen_gkm_gen(cfg, rng):
    kind = cfg.choice(("pn", "flag", "p1"))
    if kind == "p1":
        k = rng.choice((1, 2, 3, -1, -2))
        argv = ["gkm", "gen", "p1", "--char", str(k), "--classes"]
        graph = p1_json((k,))
    else:
        n = cfg.choice((2, 3))
        argv = ["gkm", "gen", kind, "--n", str(n), "--classes"]
        graph = pn_json(n) if kind == "pn" else flag_json(n)

    def expected_classes(deg):
        if kind == "pn":
            return {"h": {v: oracle.var(f"t{v}") if v != "0" else {} for v in graph["vertices"]}}
        if kind == "flag":
            return {f"x{k}": {w: oracle.var(f"t{w[k - 1]}") for w in graph["vertices"]}
                    for k in range(1, len(graph["vertices"][0]) + 1)}
        law = oracle.LogLaw(deg, COEFF_DEGREE)
        return {"point0": {"0": law.nseries(k, "t1"), "inf": {}},
                "pointinf": {"0": {}, "inf": law.nseries(-k, "t1")}}

    def check(out):
        graph_line, head, classes_line = _lines(out)
        if not _same_graph(json.loads(graph_line), graph):
            return False
        deg = _header(head)
        classes = json.loads(classes_line)
        want = expected_classes(deg)
        if set(classes) != set(want):
            return False
        for name, values in want.items():
            got = classes[name]
            if got["truncation"] != deg or set(got["values"]) != set(values):
                return False
            if any(oracle.parse_poly(got["values"][v]) != val for v, val in values.items()):
                return False
        return True

    return argv, check


def _same_graph(got, want):
    def edges(g):
        return sorted((e["v"], e["w"], tuple(e["char"])) for e in g["edges"])

    return (got["rank"], got["dim"], got["vertices"], edges(got)) == (
        want["rank"], want["dim"], want["vertices"], edges(want))


def _class_text(values):
    return json.dumps({v: oracle.render(p) for v, p in values.items()})


def _graph_case(cfg, rng):
    """(graph JSON, class values, expected integral) on pn(2), flag(3) or p1."""
    kind = cfg.choice(("pn", "flag", "p1"))
    if kind == "pn":
        graph = pn_json(2)
        c = [rational(rng) for _ in range(3)]
        values = {}
        for v in graph["vertices"]:
            hv = oracle.var(f"t{v}") if v != "0" else {}
            values[v] = oracle.padd(oracle.padd(oracle.const(c[0]), oracle.pscale(hv, c[1])),
                                    oracle.pscale(oracle.pmul(hv, hv), c[2]))
        # integral of c0 + c1 h + c2 h^2 over P^2: 3 c0 m2 + 2 c1 m1 + c2
        want = oracle.padd(oracle.padd(oracle.m(2, 3 * c[0]), oracle.m(1, 2 * c[1])),
                           oracle.const(c[2]))
        return graph, values, want
    if kind == "flag":
        graph = flag_json(3)
        poly = fill(rng, xnames(3), shape(cfg, 2, 3))
        values = {w: oracle.rename(poly, {f"x{k + 1}": f"t{w[k]}" for k in range(3)})
                  for w in graph["vertices"]}
        return graph, values, None
    chi = cfg.choice(P1_CHARS)
    graph = p1_json(chi)
    c = rational(rng)
    # the constant class c integrates to 2 c m1
    return graph, {"0": oracle.const(c), "inf": oracle.const(c)}, oracle.m(1, 2 * c)


def gen_gkm_check(cfg, rng):
    graph, values, _ = _graph_case(cfg, rng)

    def check(out):
        head, answer = _lines(out)
        _header(head)
        return answer == "true"  # every class here restricts a global class

    return ["gkm", "check", "--graph", json.dumps(graph), "--class", _class_text(values)], check


def gen_gkm_integrate(cfg, rng):
    while True:
        graph, values, want = _graph_case(cfg, rng)
        if want is not None:
            break

    def check(out):
        head, answer = _lines(out)
        _header(head)
        return oracle.parse_poly(answer) == want

    return ["gkm", "integrate", "--graph", json.dumps(graph), "--class", _class_text(values)], check


def _expansion_case(cfg, rng):
    """(graph, class text, basis texts, coordinates a_k) for a free basis."""
    if cfg.random() < 0.5:
        # on P^2 in the basis 1, h, h^2: the class sum_k a_k h^k with a_k in Q[t]
        graph = pn_json(2)
        coords = [fill(rng, tnames(2), shape(cfg, cfg.randint(0, 1), cfg.randint(1, 2)))
                  for _ in range(3)]
        values = {}
        for v in graph["vertices"]:
            total = {}
            for k, a in enumerate(coords):
                total = oracle.padd(total, oracle.pmul(a, hyperplane_power(v, k)))
            values[v] = total
        basis = [_class_text({v: hyperplane_power(v, k) for v in graph["vertices"]})
                 for k in range(3)]
        return graph, _class_text(values), basis, coords
    # on P^1 in the basis 1, [point 0]: the class a_0 + a_1 [point 0]
    chi = cfg.choice(P1_CHARS)
    graph = p1_json(chi)
    names = tnames(len(chi))
    coords = [fill(rng, names, shape(cfg, 1, 2)) for _ in range(2)]
    chern = f"chern({','.join(map(str, chi))})"
    a0, a1 = (oracle.render(a) for a in coords)
    values = json.dumps({"0": f"{a0} + ({a1})*{chern}", "inf": a0})
    basis = [json.dumps({"0": "1", "inf": "1"}), json.dumps({"0": chern, "inf": "0"})]
    return graph, values, basis, coords


def gen_gkm_expand(cfg, rng, forget=False):
    graph, values, basis, coords = _expansion_case(cfg, rng)
    argv = ["gkm", "forget" if forget else "expand", "--graph", json.dumps(graph),
            "--class", values, "--basis", "[" + ", ".join(basis) + "]"]

    def check(out):
        head, answer = _lines(out)
        _header(head)
        got = [oracle.parse_poly(text) for text in json.loads(answer)]
        if forget:
            return got == [oracle.ptrunc(a, 0) for a in coords]
        return got == coords

    return argv, check


GENERATORS = {
    "flag kernel": gen_flag_kernel,
    "flag nf": gen_flag_nf,
    "fgl print": gen_fgl_print,
    "fgl nseries": gen_fgl_nseries,
    "fgl acoeff": gen_fgl_acoeff,
    "gkm gen": gen_gkm_gen,
    "gkm check": gen_gkm_check,
    "gkm integrate": gen_gkm_integrate,
    "gkm expand": gen_gkm_expand,
    "gkm forget": lambda cfg, rng: gen_gkm_expand(cfg, rng, forget=True),
}


def commands(seed):
    """(argv, check) for one round, in a seeded order."""
    cfg = random.Random(CONFIG_SEED)
    rng = random.Random(seed)
    out = []
    for name, count in MIX:
        for _ in range(count):
            out.append(GENERATORS[name](cfg, rng))
    rng.shuffle(out)
    return out


def setup(seed, step):
    from torcob import cli

    cmds = step("inputs", lambda: commands(seed))
    return [Op(" ".join(argv[:2]) + f" #{i}", _runner(cli, argv), _checker(check))
            for i, (argv, check) in enumerate(cmds)]


def _runner(cli, argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        code = cli.main(list(argv), stdout=out, stderr=err, stdin=io.StringIO())
        return code, out.getvalue(), err.getvalue()

    return run


def _checker(check):
    def checked(result):
        code, out, err = result
        if code != 0:
            raise RuntimeError(f"exit {code}: {err.strip()}")
        return check(out)

    return checked
