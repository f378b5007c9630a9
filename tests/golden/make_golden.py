"""Regenerate the golden command-line corpus ``cases.json``.

Each case is an argv, the exact stdout ``torcob.cli.main`` writes for it
(empty stdin, ``COBORDISM_DEFAULT_DEG`` unset) and its exit code.
``tests/test_golden.py`` replays every case and requires the same bytes.

Run from the repository root, against the commit whose output is the
reference::

    PYTHONPATH=src python tests/golden/make_golden.py

A change that alters output on purpose regenerates the corpus with this
script and lists every changed case in CHANGES.md.
"""

from __future__ import annotations

import io
import json
import os
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
CLI_SEEDS = range(1, 6)

LAWS = [[], ["--spec", "additive"], ["--spec", "multiplicative"], ["--spec", "multiplicative:2/5"]]


def p1(chi):
    return json.dumps({"rank": len(chi), "dim": 1, "vertices": ["0", "inf"],
                       "edges": [{"v": "0", "w": "inf", "char": list(chi)}]})


P2 = json.dumps({"rank": 2, "dim": 2, "vertices": ["0", "1", "2"], "edges": [
    {"v": "0", "w": "1", "char": [-1, 0]},
    {"v": "0", "w": "2", "char": [0, -1]},
    {"v": "1", "w": "2", "char": [1, -1]},
]})


def workload_cases():
    """The benchmark's ``cli`` round for each seed (commands only)."""
    sys.path.insert(0, str(ROOT / "e2ebench"))
    try:
        import wl_cli
    finally:
        sys.path.pop(0)
    for seed in CLI_SEEDS:
        for argv, _ in wl_cli.commands(seed):
            yield argv


def fgl_cases():
    for law in LAWS:
        for deg in range(1, 9):
            yield ["fgl", "print", "--deg", str(deg)] + law
        for deg in (1, 2, 4, 6, 8):
            for n in range(-4, 6):
                yield ["fgl", "nseries", "--n", str(n), "--deg", str(deg)] + law
        yield ["fgl", "nseries", "--n", "3"] + law
    for i, j in [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (1, 4), (3, 2)]:
        yield ["fgl", "acoeff", "--i", str(i), "--j", str(j)]
        yield ["fgl", "acoeff", "--i", str(i), "--j", str(j), "--deg", "6", "--coeff-deg", "2"]
    yield ["fgl", "acoeff", "--i", "2", "--j", "2", "--spec", "multiplicative:2/5"]
    yield ["fgl", "acoeff", "--i", "0", "--j", "0"]
    yield ["fgl", "acoeff", "--i", "3", "--j", "3", "--deg", "4"]
    yield ["fgl", "print", "--coeff-deg", "-1"]
    yield ["fgl", "nseries", "--n", "2", "--spec", "bogus"]
    yield ["fgl", "print", "--deg", "0"]
    yield ["fgl", "print", "--deg", "5", "--coeff-deg", "0"]
    yield ["fgl", "print", "--spec", "multiplicative:1/0"]


def integrate_cases():
    chars = [(1,), (-1,), (2,), (1, -1), (1, 1), (2, 3), (1, 1, 1), (0, 2, -1)]
    classes = [
        lambda chi: {"0": "1", "inf": "1"},
        lambda chi: {"0": f"chern({','.join(map(str, chi))})", "inf": "0"},
        lambda chi: {"0": "0", "inf": f"chern({','.join(str(-x) for x in chi)})"},
        lambda chi: {"0": "t1", "inf": "t1"},
    ]
    options = [[], ["--spec", "additive"], ["--spec", "multiplicative:2/5", "--deg", "3"]]
    for chi in chars:
        for cls in classes:
            for opt in options:
                yield ["gkm", "integrate", "--graph", p1(chi), "--class", json.dumps(cls(chi))] + opt
    for cls in [{"0": "1", "1": "1", "2": "1"}, {"0": "0", "1": "t1", "2": "t2"},
                {"0": "0", "1": "t1^2", "2": "t2^2"}, {"0": "0", "1": "t1^3", "2": "t2^3"}]:
        for opt in ([], ["--spec", "additive"]):
            yield ["gkm", "integrate", "--graph", P2, "--class", json.dumps(cls)] + opt
    yield ["gkm", "integrate", "--graph", P2, "--class", json.dumps({"0": "0", "1": "1", "2": "0"})]
    yield ["gkm", "integrate", "--graph", p1((1,)), "--class", '{"0": "1", "inf": "1"}', "--spec", "bogus"]


def flag_cases():
    polys = {
        1: ["x1", "0"],
        2: ["x1", "x1+x2", "x1^2", "x1*x2", "m1*x1^2"],
        3: ["x1+x2+x3", "x1", "x1*x2+x1*x3+x2*x3", "m1*x1^2+x1*x2", "x1^2*x2", "x1*x2*x3"],
        4: ["x1+x2+x3+x4", "x1", "m2*x1^2-x3*x4"],
    }
    laws = [[], ["--spec", "additive"], ["--spec", "multiplicative:2/5"]]
    for n, ps in polys.items():
        for p in ps:
            for law in laws:
                if n == 4 and law == []:
                    continue
                yield ["flag", "kernel", p, "--rank", str(n)] + law
            yield ["flag", "nf", p, "--rank", str(n)]
    for deg in (1, 2, 3, 4):
        yield ["flag", "kernel", "x1+x2+x3", "--rank", "3", "--deg", str(deg)]
        yield ["flag", "kernel", "x1^2*x2", "--rank", "3", "--deg", str(deg)]
    yield ["flag", "kernel", "x1+x2+x3+x4", "--rank", "4"]
    yield ["flag", "kernel", "x1^4+x2", "--rank", "4"]
    yield ["flag", "kernel", "x1", "--rank", "2", "--coeff-deg", "-1"]
    for n in (1, 2, 3, 4):
        yield ["flag", "rank", "--rank", str(n), "--basis"]


def expand_cases():
    """gkm expand/forget on P^1, P^2 and P^3, universal and specialized."""
    basis_p1 = "[" + ", ".join([json.dumps({"0": "1", "inf": "1"}),
                                json.dumps({"0": "chern(1)", "inf": "0"})]) + "]"
    basis_p1_2 = "[" + ", ".join([json.dumps({"0": "1", "inf": "1"}),
                                  json.dumps({"0": "chern(1,-1)", "inf": "0"})]) + "]"
    basis_p2 = "[" + ", ".join(json.dumps({"0": "0", "1": f"t1^{k}", "2": f"t2^{k}"}
                                          if k else {"0": "1", "1": "1", "2": "1"})
                               for k in range(3)) + "]"
    cls_p1 = json.dumps({"0": "2*t1 + (3 - t1)*chern(1)", "inf": "2*t1"})
    cls_p1_2 = json.dumps({"0": "t1 - t2 + (1 + t2)*chern(1,-1)", "inf": "t1 - t2"})
    cls_p2 = json.dumps({"0": "1 + t1", "1": "1 + t1 + t1 + t1^2", "2": "1 + t1 + t2 + t2^2"})
    for sub in ("expand", "forget"):
        for law in ([], ["--spec", "additive"], ["--spec", "multiplicative:2/5"]):
            yield ["gkm", sub, "--graph", p1((1,)), "--class", cls_p1, "--basis", basis_p1] + law
            yield ["gkm", sub, "--graph", p1((1, -1)), "--class", cls_p1_2, "--basis", basis_p1_2] + law
            yield ["gkm", sub, "--graph", P2, "--class", cls_p2, "--basis", basis_p2] + law
    # not in the span, and a basis that is not free
    yield ["gkm", "expand", "--graph", p1((1,)), "--class", json.dumps({"0": "1", "inf": "0"}),
           "--basis", "[" + json.dumps({"0": "1", "inf": "1"}) + ", " + json.dumps({"0": "t1", "inf": "t1"}) + "]"]
    yield ["gkm", "expand", "--graph", p1((1,)), "--class", json.dumps({"0": "1", "inf": "1"}),
           "--basis", "[" + json.dumps({"0": "1", "inf": "1"}) + ", " + json.dumps({"0": "2", "inf": "2"}) + "]"]
    # a generator above --coeff-deg, and a basis element that is not homogeneous
    yield ["gkm", "expand", "--graph", p1((1,)), "--class", json.dumps({"0": "m9", "inf": "m9"}),
           "--basis", basis_p1, "--coeff-deg", "3"]
    yield ["gkm", "expand", "--graph", p1((1,)), "--class", json.dumps({"0": "t1", "inf": "0"}),
           "--basis", "[" + json.dumps({"0": "1", "inf": "1"}) + ", "
           + json.dumps({"0": "t1", "inf": "t1^2"}) + "]"]
    # P^2 in the basis 1, the divisor through vertices 1 and 2, the point class at 2
    basis_chern = "[" + ", ".join(json.dumps(b) for b in [
        {"0": "1", "1": "1", "2": "1"},
        {"0": "0", "1": "chern(1,0)", "2": "chern(0,1)"},
        {"0": "0", "1": "0", "2": "chern(0,1)*chern(-1,1)"},
    ]) + "]"
    cls_chern = json.dumps({"0": "1 + t1", "1": "1 + t1 + (1 - t2)*chern(1,0)",
                            "2": "1 + t1 + (1 - t2)*chern(0,1) + 3*chern(0,1)*chern(-1,1)"})
    for sub in ("expand", "forget"):
        for law in ([], ["--spec", "additive"], ["--spec", "multiplicative:2/5"]):
            yield ["gkm", sub, "--graph", P2, "--class", cls_chern, "--basis", basis_chern] + law
    # universal P^3 in the basis 1, h, h^2, h^3
    p3 = json.dumps({"rank": 3, "dim": 3, "vertices": ["0", "1", "2", "3"], "edges": [
        {"v": str(i), "w": str(j), "char": [(k == i - 1) - (k == j - 1) for k in range(3)]}
        for i in range(4) for j in range(i + 1, 4)]})
    basis_p3 = "[" + ", ".join(json.dumps({"0": "0", "1": f"t1^{k}", "2": f"t2^{k}", "3": f"t3^{k}"}
                                          if k else {"0": "1", "1": "1", "2": "1", "3": "1"})
                               for k in range(4)) + "]"
    cls_p3 = json.dumps({"0": "1", "1": "1 + m1*t1^2", "2": "1 + m1*t2^2", "3": "1 + m1*t3^2"})
    yield ["gkm", "forget", "--graph", p3, "--class", cls_p3, "--basis", basis_p3]


def gen_cases():
    yield ["gkm", "gen", "p1", "--char", "1,-1", "--classes", "--spec", "multiplicative:2/5"]
    yield ["gkm", "gen", "pn", "--n", "3"]
    yield ["gkm", "gen", "flag", "--n", "2", "--classes", "--deg", "3"]
    yield ["gkm", "check", "--graph", p1((2, 1)), "--class",
           json.dumps({"0": "chern(2,1)", "inf": "0"})]
    yield ["gkm", "check", "--graph", p1((1,)), "--class", json.dumps({"0": "t1^2", "inf": "t1"})]
    yield ["gkm", "check", "--graph", "[]", "--class", "[]"]


def all_cases():
    seen = set()
    for source in (workload_cases, fgl_cases, integrate_cases, flag_cases, expand_cases, gen_cases):
        for argv in source():
            key = tuple(argv)
            if key not in seen:
                seen.add(key)
                yield list(argv)


def run(argv):
    from torcob import cli

    out, err = io.StringIO(), io.StringIO()
    code = cli.main(list(argv), stdout=out, stderr=err, stdin=io.StringIO())
    return code, out.getvalue()


def main():
    os.environ.pop("COBORDISM_DEFAULT_DEG", None)
    cases = []
    slow = []
    for argv in all_cases():
        t0 = time.perf_counter()
        code, out = run(argv)
        dt = time.perf_counter() - t0
        if dt > 0.05:
            slow.append((dt, argv[:2]))
        cases.append({"argv": argv, "stdout": out, "exit": code})
    path = HERE / "cases.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cases, fh, indent=0, ensure_ascii=False)
        fh.write("\n")
    print(f"{len(cases)} cases written to {path.relative_to(ROOT)}")
    for dt, head in sorted(slow, reverse=True)[:15]:
        print(f"  {dt * 1000:7.1f} ms  {' '.join(head)}")


if __name__ == "__main__":
    main()
