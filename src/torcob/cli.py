"""Command-line front end.

``DESCRIPTION`` below is the summary printed by ``torcob --help``: the
commands, their exit statuses, the default truncation and the size guards.
It is kept apart from this docstring, so a note added here changes no help
bytes.  Notes it lacks:

- ``flag nf`` reduces only the parts of degree at most n(n-1)/2, the top
  degree of the coinvariant ring, and drops the rest as zero, so a high
  power or a high rank answers at once; ``flag kernel`` reduces every part,
  as its certificate needs their cofactors.
- A float or a boolean where graph or class JSON needs an integer (a rank,
  a dimension, a character entry, a class truncation) is a usage error
  before any output; int() would truncate it.
- ``selftest --only`` refuses a criterion number outside 1-10 as a usage
  error before running any criterion.
- ``flag nf`` refuses a division that would build a Groebner wall of more
  than ``flag.MAX_WALL_TERMS`` terms; it prints nothing before the
  division, so this is ``TooLarge`` before any output.
- ``gkm expand|forget`` checks ``gkm.MAX_EXPAND_COLUMNS`` on each lifting
  system before its columns are listed, so the systems below it are solved
  first, and a certified basis never lists a degree it skips.
- Running out of memory anywhere in a command is ``TooLarge: out of
  memory`` on stderr with exit 2, not a traceback; output already written
  (a header line) stays.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from torcob import exprs, flag as flagmod, gkm
from torcob.errors import TooLarge, TorcobError
from torcob.fgl import MAX_DEG, build as fgl_build, normalize_spec, spec_value
from torcob.flag import MAX_COINV_RANK, MAX_KERNEL_RANK
from torcob.gkm import MAX_FLAG_GRAPH_N
from torcob.torus import TorusContext

# The top-level parser's description, printed by ``torcob --help``: kept
# apart from the module docstring so that notes there change no help bytes.
DESCRIPTION = """Command-line front end.

Commands: ``fgl print|nseries|acoeff``, ``gkm gen|check|integrate|expand|forget``,
``flag nf|rank|kernel``, ``selftest``.  Output is deterministic and exact;
exit status 0 on success, 1 on mathematical failure (non-divisibility, not a
class, no expansion), 2 on usage or parse errors.

When --deg is omitted the default truncation is computed per command (for
integrate: the dimension plus one) and announced on a header line;
COBORDISM_DEFAULT_DEG overrides the computed default.

Size guards refuse, before any output, inputs whose cost grows without
useful bound: a truncation above MAX_DEG, ``flag kernel`` above rank
MAX_KERNEL_RANK, ``flag rank`` above rank MAX_COINV_RANK, ``gkm gen flag``
above n = MAX_FLAG_GRAPH_N and ``gkm gen pn`` above n = MAX_PN_GRAPH_N (the
README gives the measured times behind each limit).  Each raises
``TooLarge``, as the library's own guards do, and exits 2; ``gkm
expand|forget`` learns its size from the basis, so its guard
(``gkm.MAX_EXPAND_COLUMNS``) fires after the header line.  ``gkm
check|integrate|expand|forget`` check the truncation, given or computed
from the graph's ``dim``, after reading the graph and the class but before
validating the graph, so an input that is both invalid and too large exits
2; the header line follows validation, so an invalid graph prints nothing.
A rank below 1, given to ``flag nf|kernel`` or in a graph, is a usage
error before any output.

``main`` may be called repeatedly in one process: the parser is built once,
on the first call, and every byte of output, usage errors and ``--help``
included, goes to the streams given to that call.
"""

# Size guards, fixed in the library with no option or environment variable:
# MAX_DEG, MAX_KERNEL_RANK, MAX_COINV_RANK and MAX_FLAG_GRAPH_N.
# P^n has dimension n and integrating over it needs truncation n + 1, so no
# command can use a larger P^n.
MAX_PN_GRAPH_N = MAX_DEG - 1


class UsageError(Exception):
    pass


def _parse_char(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad character {text!r}; expected comma-separated integers") from exc


def _truncation(args, computed):
    """(deg, header): --deg, else env override, else computed.

    The header line announces a truncation not given by --deg, and is empty
    otherwise.  A truncation below 1 or above MAX_DEG is refused here, before
    any output.
    """
    deg = getattr(args, "deg", None)
    if deg is not None:
        header = ""
    else:
        env = os.environ.get("COBORDISM_DEFAULT_DEG")
        deg = int(env) if env else computed
        header = f"# deg {deg}\n"
    if deg < 1:
        raise UsageError(f"need a truncation degree >= 1, got {deg}")
    if deg > MAX_DEG:
        raise TooLarge(f"truncation degree {deg} is above the limit {MAX_DEG}")
    return deg, header


def _default_deg(args, computed, out):
    """Effective truncation, with its header printed."""
    deg, header = _truncation(args, computed)
    out.write(header)
    return deg


def _load_json(text_or_path, stdin):
    if text_or_path is None:
        return json.load(stdin)
    if text_or_path.startswith("@"):
        with open(text_or_path[1:], "r", encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(text_or_path)


def _load_graph(args, stdin) -> gkm.GKMGraph:
    """The graph of --graph, not yet validated: its truncation is checked first."""
    obj = _load_json(getattr(args, "graph", None), stdin)
    try:
        return gkm.GKMGraph.from_json(obj)
    except TypeError as exc:
        raise UsageError(f"graph JSON has the wrong shape: {exc}") from exc


def _class_values(obj):
    trunc = None
    if isinstance(obj, dict) and "values" in obj:
        trunc, obj = obj.get("truncation"), obj["values"]
    if isinstance(obj, dict):
        return trunc, obj
    raise UsageError("class JSON must be an object of vertex: expression pairs")


def _eval_class(ctx, g, values) -> gkm.PiecewiseClass:
    """The class with the value texts ``values``, read in vertex order.

    Each distinct text is parsed and evaluated once, and the vertices that
    share it share its series, so the first vertex that fails is the first
    whose value is missing or fails.
    """
    series = {}
    out = {}
    for v in g.vertices:
        if v not in values:
            raise UsageError(f"class is missing a value for vertex {v!r}")
        text = str(values[v])
        s = series.get(text)
        if s is None:
            s = series[text] = exprs.eval_series(exprs.parse(text), ctx)
        out[v] = s
    return gkm.PiecewiseClass(out)


def _law(args):
    """Parsed --spec, after checking --coeff-deg; runs before any header is printed."""
    spec = normalize_spec(args.spec)
    if args.coeff_deg < 0:
        raise UsageError("need --coeff-deg >= 0")
    return spec


def _torus_for(g: gkm.GKMGraph, deg, args, spec) -> TorusContext:
    return TorusContext(g.rank, fgl_build(args.coeff_deg, deg, spec))


# -- command handlers -----------------------------------------------------------


def _cmd_fgl(args, out, stdin):
    spec = _law(args)
    if args.sub == "print":
        deg = _default_deg(args, 6, out)
        ctx = fgl_build(args.coeff_deg, deg, spec)
        print(str(ctx.F), file=out)
    elif args.sub == "nseries":
        deg = _default_deg(args, 6, out)
        ctx = fgl_build(args.coeff_deg, deg, spec)
        print(str(ctx.n_series(args.n)), file=out)
    elif args.sub == "acoeff":
        if args.i < 0 or args.j < 0:
            raise UsageError("need --i >= 0 and --j >= 0")
        if args.i + args.j < 1:
            raise UsageError("need --i + --j >= 1")
        deg = _default_deg(args, args.i + args.j, out)
        ctx = fgl_build(args.coeff_deg, deg, spec)
        print(str(ctx.a_coeff(args.i, args.j)), file=out)
    return 0


def _cmd_gkm(args, out, stdin):
    if args.sub == "gen":
        spec = _law(args) if args.classes else None
        limit = {"pn": MAX_PN_GRAPH_N, "flag": MAX_FLAG_GRAPH_N}.get(args.kind)
        if limit is not None and args.n is not None and args.n > limit:
            raise TooLarge(f"--n {args.n} for gkm gen {args.kind} is above the limit {limit}")
        char = _parse_char(args.char) if args.kind == "p1" and args.char is not None else None
        g = gkm.generate(args.kind, char=char, n=args.n)
        if args.classes:
            deg, header = _truncation(args, 2 * g.dim + 2)
        print(json.dumps(g.to_json()), file=out)
        if args.classes:
            out.write(header)
            ctx = _torus_for(g, deg, args, spec)
            named = gkm.distinguished_classes(ctx, g, args.kind)
            print(
                json.dumps({name: gkm.class_to_json(g, a) for name, a in named.items()}),
                file=out,
            )
        return 0

    g = _load_graph(args, stdin)
    trunc, values = _class_values(_load_json(args.cls, stdin))
    if args.deg is None and trunc is not None:
        try:
            args.deg = gkm._json_int(trunc)
        except TypeError as exc:
            raise UsageError(f"class truncation must be an integer, got {trunc!r}") from exc
    spec = _law(args)
    computed = {"check": g.dim + 2, "integrate": gkm.required_guarantee(g, None)}
    deg, header = _truncation(args, computed.get(args.sub, 2 * g.dim + 2))
    g.require_valid()
    out.write(header)
    ctx = _torus_for(g, deg, args, spec)
    alpha = _eval_class(ctx, g, values)
    if args.sub == "check":
        ok = gkm.is_class(ctx, g, alpha)
        print("true" if ok else "false", file=out)
        return 0 if ok else 1
    if args.sub == "integrate":
        print(str(gkm.integrate(ctx, g, alpha)), file=out)
        return 0
    basis_obj = _load_json(args.basis, stdin)  # expand or forget
    if not isinstance(basis_obj, list):
        raise UsageError("--basis must be a JSON array of class objects")
    basis = [_eval_class(ctx, g, _class_values(b)[1]) for b in basis_obj]
    coords = gkm.basis_expand(ctx, g, basis, alpha)
    if args.sub == "forget":
        print(json.dumps([str(ctx.augment(c)) for c in coords]), file=out)
    else:
        print(json.dumps([str(c) for c in coords]), file=out)
    return 0


def _cmd_flag(args, out, stdin):
    n = args.rank
    if n is None:
        raise UsageError("flag commands need --rank")
    limit = {"kernel": MAX_KERNEL_RANK, "rank": MAX_COINV_RANK}.get(args.sub)
    if limit is not None and n > limit:
        raise TooLarge(f"--rank {n} for flag {args.sub} is above the limit {limit}")
    if args.sub == "rank":
        count, basis = flagmod.coinv_rank(n)
        print(count, file=out)
        if args.basis:
            from torcob.coeff import GradedCoeff

            texts = [str(flagmod.x_poly(n, {a: GradedCoeff.one()})) for a in basis]
            print(json.dumps(texts), file=out)
        return 0
    if n < 1:
        raise ValueError("rank must be positive")
    spec = _law(args) if args.sub == "kernel" else normalize_spec(args.spec)
    m_value = None if spec is None else (lambda i: spec_value(spec, i))
    p = exprs.eval_xpoly(exprs.parse(args.expr), n, m_value)
    if args.sub == "nf":
        print(str(flagmod.normal_form(n, p)), file=out)
        return 0
    # kernel: the default truncation, and so the "# deg" header, keeps the
    # bytes it had when the Artin basis was restricted up to degree n(n-1)/2;
    # the context is built at that truncation, and the pairing reads the law
    # through dim + 1 however low it is (``flag._pairings``).
    dim = n * (n - 1) // 2
    computed = max(max(p.max_degree() or 0, 1) + 1, dim)
    deg = _default_deg(args, computed, out)
    ctx = TorusContext(n, fgl_build(args.coeff_deg, deg, spec))
    ok = flagmod.kernel_check(ctx, n, p)
    print("true" if ok else "false", file=out)
    return 0


def _cmd_selftest(args, out, stdin):
    from torcob.accept import CRITERIA, run_criteria

    only = None
    if args.only:
        only = {int(x) for x in args.only.split(",")}
        unknown = sorted(only - {num for num, _, _ in CRITERIA})
        if unknown:
            raise UsageError(f"no criterion {unknown[0]}; the criteria are numbered 1 to {len(CRITERIA)}")
    results = run_criteria(only=only, out=out)
    return 0 if all(ok for _, _, ok, _ in results) else 1


# -- argument parsing -----------------------------------------------------------


def _add_common(p, deg=True, spec=True):
    if deg:
        p.add_argument("--deg", type=int, default=None, help="series truncation degree")
    p.add_argument("--coeff-deg", type=int, default=6, dest="coeff_deg",
                   help="highest Lazard generator index (default 6)")
    if spec:
        p.add_argument("--spec", default="universal",
                       help="universal | additive | multiplicative:BETA")


class _ParserExit(Exception):
    """Raised with (status, text) where argparse would print the text and exit."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises ``_ParserExit`` instead of printing and exiting.

    ``main`` writes the text to the streams of its own call, so one parser
    serves every call.  Subparsers are built with the same class.
    """

    def print_help(self, file=None):
        raise _ParserExit(0, self.format_help())

    def error(self, message):
        raise _ParserExit(2, f"{self.format_usage()}{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it.

    Its ``commands`` attribute maps each (group, sub) pair to that
    subcommand's own parser, which ``_parse`` runs alone when argv names
    the pair; the whole parser runs only for argv that names none.
    """
    ap = _Parser(prog="torcob", description=DESCRIPTION)
    ap.commands = {}
    top = ap.add_subparsers(dest="group", required=True)

    def group(name, text):
        """The function that adds a subcommand of ``name`` and records its parser."""
        subs = top.add_parser(name, help=text).add_subparsers(dest="sub", required=True)

        def add(sub, **kw):
            ap.commands[name, sub] = p = subs.add_parser(sub, **kw)
            return p

        return add

    add = group("fgl", "formal group law outputs")
    p = add("print", help="print F(u, v)")
    _add_common(p)
    p = add("nseries", help="print the n-series [n]u")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p = add("acoeff", help="print the coefficient of u^i v^j in F")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    _add_common(p)

    add = group("gkm", "moment-graph computations")
    p = add("gen", help="generate a graph as JSON")
    p.add_argument("kind", choices=["p1", "pn", "flag"])
    p.add_argument("--char", default=None, help="character for p1, e.g. 1 or 1,-1")
    p.add_argument("--n", type=int, default=None, help="n for pn/flag")
    p.add_argument("--classes", action="store_true",
                   help="also emit the distinguished classes as class JSON")
    _add_common(p)
    for name in ("check", "integrate"):
        p = add(name)
        p.add_argument("--graph", default=None, help="graph JSON (@file or inline); default stdin")
        p.add_argument("--class", dest="cls", required=True, help="class JSON")
        _add_common(p)
    for name in ("expand", "forget"):
        p = add(name)
        p.add_argument("--graph", default=None)
        p.add_argument("--class", dest="cls", required=True)
        p.add_argument("--basis", required=True, help="JSON array of class objects")
        _add_common(p)

    add = group("flag", "flag-variety coinvariant algebra")
    p = add("nf", help="normal form on the Artin staircase")
    p.add_argument("expr")
    p.add_argument("--rank", type=int, required=True)
    _add_common(p, deg=False)
    p = add("rank", help="free rank and Artin basis")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--basis", action="store_true", help="also list the basis monomials")
    p = add("kernel", help="does the polynomial map to zero?")
    p.add_argument("expr")
    p.add_argument("--rank", type=int, required=True)
    _add_common(p)

    p = top.add_parser("selftest", help="run every acceptance criterion")
    p.add_argument("--only", default=None, help="comma-separated criterion numbers")
    return ap


def _parse(argv):
    """The namespace of ``argv``: by the subcommand's own parser alone when
    ``argv[:2]`` names one, else by the whole parser.

    The whole parser would hand ``argv[2:]`` to that same subcommand parser
    and add ``group`` and ``sub``, so the subcommand's parse, its help and
    its usage errors are the whole parser's, one argparse level instead of
    three.  Words it leaves over are refused by the whole parser's own
    "unrecognized arguments" call.
    """
    ap = build_parser()
    sub = ap.commands.get(tuple(argv[:2]))
    if sub is None:
        return ap.parse_args(argv)
    args, rest = sub.parse_known_args(argv[2:])
    if rest:
        ap.error(f"unrecognized arguments: {' '.join(rest)}")
    args.group, args.sub = argv[:2]
    return args


def main(argv=None, stdout=None, stderr=None, stdin=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    inp = stdin if stdin is not None else sys.stdin
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except _ParserExit as exc:
        status, text = exc.args
        (out if status == 0 else err).write(text)
        return status
    handlers = {"fgl": _cmd_fgl, "gkm": _cmd_gkm, "flag": _cmd_flag, "selftest": _cmd_selftest}
    try:
        return handlers[args.group](args, out, inp)
    except exprs.ParseError as exc:
        print(f"parse error: {exc}", file=err)
        return 2
    except (UsageError, exprs.EvalError, json.JSONDecodeError, ValueError, KeyError) as exc:
        print(f"usage error: {exc}", file=err)
        return 2
    except TooLarge as exc:
        print(f"error: TooLarge: {exc}", file=err)
        return 2
    except MemoryError:
        print("error: TooLarge: out of memory", file=err)
        return 2
    except TorcobError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=err)
        return 1


if __name__ == "__main__":
    sys.exit(main())
