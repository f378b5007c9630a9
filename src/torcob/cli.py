"""Command-line front end.

Commands: ``fgl print|nseries|acoeff``, ``gkm gen|check|integrate|expand|forget``,
``flag nf|rank|kernel``, ``selftest``.  Output is deterministic and exact;
exit status 0 on success, 1 on mathematical failure (non-divisibility, not a
class, no expansion), 2 on usage or parse errors.

When --deg is omitted the default truncation is computed per command (for
integrate: the dimension plus one) and announced on a header line;
COBORDISM_DEFAULT_DEG overrides the computed default.

Size guards refuse, before any output, inputs whose cost grows without
useful bound: a truncation above MAX_DEG, ``flag kernel`` above rank
MAX_KERNEL_RANK, ``flag rank`` above rank MAX_COINV_RANK and ``gkm gen flag``
above n = MAX_FLAG_GRAPH_N (the README gives the measured times behind each
limit).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from torcob import exprs, flag as flagmod, gkm
from torcob.errors import TorcobError
from torcob.fgl import build as fgl_build
from torcob.torus import TorusContext


# Size guards; fixed here, with no option or environment variable.
MAX_DEG = 24
MAX_KERNEL_RANK = 6
MAX_COINV_RANK = 9
MAX_FLAG_GRAPH_N = 8


class UsageError(Exception):
    pass


def _parse_spec(text):
    if text in (None, "universal"):
        return None
    if text == "additive":
        return "additive"
    if text.startswith("multiplicative:"):
        try:
            return ("multiplicative", Fraction(text.split(":", 1)[1]))
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad multiplicative parameter in {text!r}") from exc
    if text == "multiplicative":
        return ("multiplicative", Fraction(1))
    raise UsageError(f"unknown specialization {text!r}")


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
        raise UsageError(f"truncation degree {deg} is above the limit {MAX_DEG}")
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
    obj = _load_json(getattr(args, "graph", None), stdin)
    try:
        g = gkm.GKMGraph.from_json(obj)
    except TypeError as exc:
        raise UsageError(f"graph JSON has the wrong shape: {exc}") from exc
    g.require_valid()
    return g


def _class_values(obj):
    trunc = None
    if isinstance(obj, dict) and "values" in obj:
        trunc, obj = obj.get("truncation"), obj["values"]
    if isinstance(obj, dict):
        return trunc, obj
    raise UsageError("class JSON must be an object of vertex: expression pairs")


def _eval_class(ctx, g, values) -> gkm.PiecewiseClass:
    out = {}
    for v in g.vertices:
        if v not in values:
            raise UsageError(f"class is missing a value for vertex {v!r}")
        out[v] = exprs.eval_series(exprs.parse(str(values[v])), ctx)
    return gkm.PiecewiseClass(out)


def _law(args):
    """Parsed --spec, after checking --coeff-deg; runs before any header is printed."""
    spec = _parse_spec(args.spec)
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
        if args.i + args.j < 1:
            raise UsageError("need --i + --j >= 1")
        deg = _default_deg(args, args.i + args.j, out)
        ctx = fgl_build(args.coeff_deg, deg, spec)
        print(str(ctx.a_coeff(args.i, args.j)), file=out)
    return 0


def _cmd_gkm(args, out, stdin):
    if args.sub == "gen":
        spec = _law(args) if args.classes else None
        if args.kind == "p1":
            if args.char is None:
                raise UsageError("p1 needs --char")
            g = gkm.p1_graph(_parse_char(args.char))
        elif args.kind in ("pn", "flag"):
            if args.n is None:
                raise UsageError(f"{args.kind} needs --n")
            if args.kind == "flag" and args.n > MAX_FLAG_GRAPH_N:
                raise UsageError(
                    f"--n {args.n} for gkm gen flag is above the limit {MAX_FLAG_GRAPH_N}"
                )
            g = gkm.generate(args.kind, n=args.n)
        else:
            raise UsageError(f"unknown graph kind {args.kind!r}")
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
            args.deg = int(trunc)
        except TypeError as exc:
            raise UsageError(f"class truncation must be an integer, got {trunc!r}") from exc
    spec = _law(args)
    if args.sub == "check":
        deg = _default_deg(args, g.dim + 2, out)
        ctx = _torus_for(g, deg, args, spec)
        alpha = _eval_class(ctx, g, values)
        ok = gkm.is_class(ctx, g, alpha)
        print("true" if ok else "false", file=out)
        return 0 if ok else 1
    if args.sub == "integrate":
        deg = _default_deg(args, gkm.required_guarantee(g, None), out)
        ctx = _torus_for(g, deg, args, spec)
        alpha = _eval_class(ctx, g, values)
        print(str(gkm.integrate(ctx, g, alpha)), file=out)
        return 0
    if args.sub in ("expand", "forget"):
        deg = _default_deg(args, 2 * g.dim + 2, out)
        ctx = _torus_for(g, deg, args, spec)
        alpha = _eval_class(ctx, g, values)
        basis_obj = _load_json(args.basis, stdin)
        if not isinstance(basis_obj, list):
            raise UsageError("--basis must be a JSON array of class objects")
        basis = [_eval_class(ctx, g, _class_values(b)[1]) for b in basis_obj]
        coords = gkm.basis_expand(ctx, g, basis, alpha)
        if args.sub == "forget":
            print(json.dumps([str(ctx.augment(c)) for c in coords]), file=out)
        else:
            print(json.dumps([str(c) for c in coords]), file=out)
        return 0
    raise UsageError(f"unknown gkm subcommand {args.sub!r}")


def _cmd_flag(args, out, stdin):
    n = args.rank
    if n is None:
        raise UsageError("flag commands need --rank")
    limit = {"kernel": MAX_KERNEL_RANK, "rank": MAX_COINV_RANK}.get(args.sub)
    if limit is not None and n > limit:
        raise UsageError(f"--rank {n} for flag {args.sub} is above the limit {limit}")
    if args.sub == "rank":
        count, basis = flagmod.coinv_rank(n)
        print(count, file=out)
        if args.basis:
            from torcob.coeff import GradedCoeff

            texts = [str(flagmod.x_poly(n, {a: GradedCoeff.one()})) for a in basis]
            print(json.dumps(texts), file=out)
        return 0
    spec = _law(args) if args.sub == "kernel" else _parse_spec(args.spec)
    spec_value = None
    if spec is not None:
        probe = fgl_build(0, 2, spec)
        spec_value = probe.spec_value
    ast = exprs.parse(args.expr)
    p = exprs.eval_xpoly(ast, n, spec_value)
    if args.sub == "nf":
        print(str(flagmod.normal_form(n, p)), file=out)
        return 0
    if args.sub == "kernel":
        # The default truncation, and so the "# deg" header, keeps the bytes it
        # had when the Artin basis was restricted up to degree n(n-1)/2; the
        # residue pairing reads series through u^dim, so the context is built
        # at dim + 1 where the truncation is lower.
        dim = n * (n - 1) // 2
        computed = max(max(p.max_degree() or 0, 1) + 1, dim)
        deg = _default_deg(args, computed, out)
        flagmod.require_degree(p, deg)
        ctx = TorusContext(n, fgl_build(args.coeff_deg, max(deg, dim + 1), spec))
        ok = flagmod.kernel_check(ctx, n, p)
        print("true" if ok else "false", file=out)
        return 0
    raise UsageError(f"unknown flag subcommand {args.sub!r}")


def _cmd_selftest(args, out, stdin):
    from torcob.accept import run_criteria

    only = None
    if args.only:
        only = {int(x) for x in args.only.split(",")}
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="torcob", description=__doc__)
    top = ap.add_subparsers(dest="group", required=True)

    fglp = top.add_parser("fgl", help="formal group law outputs")
    fsub = fglp.add_subparsers(dest="sub", required=True)
    p = fsub.add_parser("print", help="print F(u, v)")
    _add_common(p)
    p = fsub.add_parser("nseries", help="print the n-series [n]u")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p = fsub.add_parser("acoeff", help="print the coefficient of u^i v^j in F")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    _add_common(p)

    gkmp = top.add_parser("gkm", help="moment-graph computations")
    gsub = gkmp.add_subparsers(dest="sub", required=True)
    p = gsub.add_parser("gen", help="generate a graph as JSON")
    p.add_argument("kind", choices=["p1", "pn", "flag"])
    p.add_argument("--char", default=None, help="character for p1, e.g. 1 or 1,-1")
    p.add_argument("--n", type=int, default=None, help="n for pn/flag")
    p.add_argument("--classes", action="store_true",
                   help="also emit the distinguished classes as class JSON")
    _add_common(p)
    for name in ("check", "integrate"):
        p = gsub.add_parser(name)
        p.add_argument("--graph", default=None, help="graph JSON (@file or inline); default stdin")
        p.add_argument("--class", dest="cls", required=True, help="class JSON")
        _add_common(p)
    for name in ("expand", "forget"):
        p = gsub.add_parser(name)
        p.add_argument("--graph", default=None)
        p.add_argument("--class", dest="cls", required=True)
        p.add_argument("--basis", required=True, help="JSON array of class objects")
        _add_common(p)

    flp = top.add_parser("flag", help="flag-variety coinvariant algebra")
    flsub = flp.add_subparsers(dest="sub", required=True)
    p = flsub.add_parser("nf", help="normal form on the Artin staircase")
    p.add_argument("expr")
    p.add_argument("--rank", type=int, required=True)
    _add_common(p, deg=False)
    p = flsub.add_parser("rank", help="free rank and Artin basis")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--basis", action="store_true", help="also list the basis monomials")
    p = flsub.add_parser("kernel", help="does the polynomial map to zero?")
    p.add_argument("expr")
    p.add_argument("--rank", type=int, required=True)
    _add_common(p)

    p = top.add_parser("selftest", help="run every acceptance criterion")
    p.add_argument("--only", default=None, help="comma-separated criterion numbers")
    return ap


def main(argv=None, stdout=None, stderr=None, stdin=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    inp = stdin if stdin is not None else sys.stdin
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handlers = {"fgl": _cmd_fgl, "gkm": _cmd_gkm, "flag": _cmd_flag, "selftest": _cmd_selftest}
    try:
        return handlers[args.group](args, out, inp)
    except exprs.ParseError as exc:
        print(f"parse error: {exc}", file=err)
        return 2
    except (UsageError, exprs.EvalError, json.JSONDecodeError, ValueError, KeyError) as exc:
        print(f"usage error: {exc}", file=err)
        return 2
    except TorcobError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=err)
        return 1


if __name__ == "__main__":
    sys.exit(main())
