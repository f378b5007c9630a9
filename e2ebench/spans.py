"""Span tracing of torcob's layers from the outside.

Each traced function is replaced, at every name through which the program
looks it up, by a wrapper that records one span per call: name, start, end,
parent span and op id.  Spans stay in memory and are written out at the end.
The wrapper's own bookkeeping runs on a separate clock: its time is
subtracted from every enclosing span, so self times hold the program's work
only (the cost of the extra Python call per span remains and is reported as
the tracing overhead).

Nothing in torcob changes; ``uninstall`` restores every original attribute.
"""

from __future__ import annotations

import gzip
import math
import time



def _divide_path(args, kwargs):
    """Division path as divide_by_chern chooses it, read from the character."""
    chi = args[2] if len(args) > 2 else kwargs["chi"]
    nz = [x for x in chi if x]
    if len(nz) == 1:
        return "torus.divide.axis"
    g = math.gcd(*nz)
    if len(nz) == 2 and sorted(x // g for x in nz) == [-1, 1]:
        return "torus.divide.difference"
    return "torus.divide.adapted"


def _convolve_sizes(tracer, args, result):
    a, b, cap = args
    b_len = [(sum(t), len(c)) for t, c in b.items()]
    products = 0
    for ta, ca in a.items():
        da = sum(ta)
        products += len(ca) * sum(n for d, n in b_len if cap is None or da + d <= cap)
    tracer.count("kernel.convolve.products", products)
    tracer.count("kernel.convolve.terms_out", sum(len(c) for c in result.values()))


def _integrate_sizes(tracer, args, result):
    _, g, alpha = args[:3]
    tracer.count("gkm.integrate.vertices", len(g.vertices))
    tracer.count("gkm.integrate.truncation", alpha.guarantee)


def _solve_sizes(tracer, args, result):
    rows, _, ncols = args
    tracer.count("linalg.solve.cells", len(rows) * ncols)
    tracer.count("linalg.solve.nonzeros", sum(len(r) for r in rows))


def _chern_distinct(tracer, args, result):
    ctx, chi = args[:2]
    tracer.contexts.setdefault(id(ctx), ctx)  # keeps ids unique while tracing
    tracer.distinct.add((id(ctx), tuple(chi)))


def targets():
    """(owners, attribute, span name, size hook) for every traced function.

    The owners are every module or class through which the program looks the
    function up; a span name of None only counts calls, under the size name
    given as the hook.  Imported here, so that the modules currently in
    ``sys.modules`` are the ones wrapped.
    """
    from torcob import cli, exprs, fgl, flag, gkm, series
    from torcob.coeff import GradedCoeff
    from torcob.series import TruncSeries
    from torcob.torus import TorusContext

    return [
        ([series], "convolve", "kernel.convolve", _convolve_sizes),
        ([GradedCoeff], "__mul__", "coeff.mul", None),
        ([TruncSeries], "__mul__", "series.mul", None),
        ([TruncSeries], "divide_exact", "series.divide_exact", None),
        ([TruncSeries], "substitute", "series.substitute", None),
        ([TruncSeries], "_substitute_monomials", None, "series.substitute.monomial_calls"),
        ([TruncSeries], "invert_unit", "series.invert_unit", None),
        ([TruncSeries], "compositional_inverse", "series.compositional_inverse", None),
        ([fgl.FGLContext], "__init__", "fgl.build", None),
        ([fgl.FGLContext], "n_series", "fgl.n_series", None),
        ([TorusContext], "character_series", "torus.chern", _chern_distinct),
        ([TorusContext], "chern", "torus.chern", _chern_distinct),
        ([TorusContext], "divide_by_chern", _divide_path, None),
        ([TorusContext], "chern_divides", "torus.divides", None),
        ([TorusContext], "ideal_membership_product", "torus.membership", None),
        ([gkm], "integrate", "gkm.integrate", _integrate_sizes),
        ([gkm], "euler_class", "gkm.euler_class", None),
        ([gkm], "is_class", "gkm.is_class", None),
        ([gkm, flag], "basis_expand", "gkm.basis_expand", None),
        ([gkm], "solve", "linalg.solve", _solve_sizes),
        ([flag], "normal_form", "flag.normal_form", None),
        ([flag], "flag_restriction", "flag.restriction", None),
        ([exprs], "parse", "exprs.parse", None),
        ([exprs], "eval_series", "exprs.eval", None),
        ([exprs], "eval_xpoly", "exprs.eval", None),
        ([TruncSeries], "__str__", "render", None),
        ([GradedCoeff], "__str__", "render", None),
        ([cli], "main", "cli.main", None),
    ]


# Recursive entry points counted at their outermost call only.
TOP_LEVEL_ONLY = {"exprs.eval"}

# Metric kinds per span name: "self" (minus children) or "total" (inclusive).
SPAN_METRICS = {
    "kernel.convolve": "self",
    "coeff.mul": "self",
    "series.mul": "self",
    "series.divide_exact": "self",
    "series.substitute": "self",
    "series.invert_unit": "self",
    "series.compositional_inverse": "self",
    "fgl.build": "total",
    "fgl.n_series": "total",
    "torus.chern": "total",
    "torus.divide.axis": "total",
    "torus.divide.difference": "total",
    "torus.divide.adapted": "total",
    "torus.divides": "total",
    "torus.membership": "total",
    "gkm.integrate": "self",
    "gkm.euler_class": "total",
    "gkm.is_class": "total",
    "gkm.basis_expand": "self",
    "linalg.solve": "self",
    "flag.normal_form": "self",
    "flag.restriction": "total",
    "exprs.parse": "self",
    "exprs.eval": "total",
    "render": "self",
    "cli.main": "self",
}
SIZE_COUNTS = [
    "kernel.convolve.products",
    "kernel.convolve.terms_out",
    "series.substitute.monomial_calls",
    "torus.chern.distinct",
    "gkm.integrate.vertices",
    "gkm.integrate.truncation",
    "linalg.solve.cells",
    "linalg.solve.nonzeros",
]


def metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for name, kind in SPAN_METRICS.items():
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.{kind}_ms", "ms"))
    out.extend((name, "count") for name in SIZE_COUNTS)
    return sorted(out)


class Tracer:
    """Spans and size counts of the wrapped functions while installed."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, op id, outermost of its name)
        self.stack = []
        self.active = {}
        self.op = None
        self.overhead = 0.0
        self.sizes = {}
        self.contexts = {}
        self.distinct = set()
        self._saved = []

    def count(self, name, n=1):
        self.sizes[name] = self.sizes.get(name, 0) + n

    # -- installing --------------------------------------------------------------

    def install(self):
        wrappers = {}  # one wrapper per original function, whatever its names
        for owners, attr, name, hook in targets():
            for owner in owners:
                original = owner.__dict__[attr]
                wrapper = wrappers.get(id(original))
                if wrapper is None:
                    if name is None:
                        wrapper = self._counter(original, hook)
                    else:
                        wrapper = self._wrapper(original, name, hook)
                    wrappers[id(original)] = wrapper
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _counter(self, original, size_name):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.op is not None:
                tracer.count(size_name)
            return original(*args, **kwargs)

        return counted

    def _wrapper(self, original, name, hook):
        tracer = self
        spans = self.spans
        stack = self.stack
        active = self.active
        clock = time.perf_counter
        fixed = isinstance(name, str)
        top_only = fixed and name in TOP_LEVEL_ONLY

        def traced(*args, **kwargs):
            t_in = clock()
            if tracer.op is None:  # between ops: the checks are not traced
                tracer.overhead += clock() - t_in
                return original(*args, **kwargs)
            span_name = name if fixed else name(args, kwargs)
            depth = active.get(span_name, 0)
            if top_only and depth:
                tracer.overhead += clock() - t_in
                return original(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            active[span_name] = depth + 1
            start = clock()
            tracer.overhead += start - t_in
            begin = start - tracer.overhead
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = clock()
                spans[index] = (
                    span_name, begin, end - tracer.overhead, parent, tracer.op, depth == 0
                )
                stack.pop()
                active[span_name] = depth
                if hook is not None and result is not None:
                    hook(tracer, args, result)
                tracer.overhead += clock() - end

        return traced

    # -- results -----------------------------------------------------------------

    def metrics(self, factors):
        """Per-layer metrics; ``factors`` maps op id to its speed correction."""
        child = [0.0] * len(self.spans)
        for name, begin, end, parent, op, outer in self.spans:
            if parent >= 0:
                child[parent] += end - begin
        calls = dict.fromkeys(SPAN_METRICS, 0)
        ms = dict.fromkeys(SPAN_METRICS, 0.0)
        for i, (name, begin, end, parent, op, outer) in enumerate(self.spans):
            calls[name] += 1
            kind = SPAN_METRICS[name]
            if kind == "self":
                ms[name] += (end - begin - child[i]) * factors[op] * 1e3
            elif outer:
                ms[name] += (end - begin) * factors[op] * 1e3
        out = {}
        for name, kind in SPAN_METRICS.items():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.{kind}_ms"] = ms[name]
        sizes = dict(self.sizes)
        sizes["torus.chern.distinct"] = len(self.distinct)
        for name in SIZE_COUNTS:
            out[name] = sizes.get(name, 0)
        return out

    def write(self, path):
        """Spans as gzipped tab-separated lines: name, start s, end s, parent, op."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\top\n")
            for i, (name, begin, end, parent, op, _) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{begin:.9f}\t{end:.9f}\t{parent}\t{op}\n")
