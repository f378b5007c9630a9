"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import argparse
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from torcob import cli, exprs, fgl, flag, gkm, kernels
from torcob.torus import TorusContext

P1_JSON = '{"rank": 1, "dim": 1, "vertices": ["0", "inf"], "edges": [{"v": "0", "w": "inf", "char": [1]}]}'


def run(argv, stdin_text=None):
    out, err = io.StringIO(), io.StringIO()
    stdin = io.StringIO(stdin_text) if stdin_text is not None else io.StringIO("")
    code = cli.main(argv, stdout=out, stderr=err, stdin=stdin)
    return code, out.getvalue(), err.getvalue()


def test_fgl_print_universal():
    code, out, _ = run(["fgl", "print", "--deg", "3"])
    assert code == 0
    assert out == (
        "u + v - 2*m1*u*v + (4*m1^2 - 3*m2)*u^2*v + (4*m1^2 - 3*m2)*u*v^2\n"
    )


def test_fgl_print_specializations():
    code, out, _ = run(["fgl", "print", "--deg", "5", "--spec", "additive"])
    assert code == 0 and out == "u + v\n"
    code, out, _ = run(["fgl", "print", "--deg", "8", "--spec", "multiplicative:1"])
    assert code == 0 and out == "u + v - u*v\n"


def test_fgl_nseries_and_acoeff():
    code, out, _ = run(["fgl", "nseries", "--n", "-1", "--deg", "3"])
    assert code == 0 and out == "-u - 2*m1*u^2 - 4*m1^2*u^3\n"
    code, out, _ = run(["fgl", "acoeff", "--i", "1", "--j", "2", "--deg", "4"])
    assert code == 0 and out == "4*m1^2 - 3*m2\n"


def test_default_deg_header():
    code, out, _ = run(["fgl", "print"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# deg 6"


def test_env_default_deg(monkeypatch):
    monkeypatch.setenv("COBORDISM_DEFAULT_DEG", "2")
    code, out, _ = run(["fgl", "print"])
    assert code == 0
    assert out.splitlines()[0] == "# deg 2"
    assert out.splitlines()[1] == "u + v - 2*m1*u*v"


def test_gkm_gen_and_integrate_pipe():
    code, gen_out, _ = run(["gkm", "gen", "p1", "--char", "1"])
    assert code == 0
    graph = json.loads(gen_out)
    assert graph == json.loads(P1_JSON)
    code, out, _ = run(
        ["gkm", "integrate", "--class", '{"0":"1","inf":"1"}', "--deg", "6"],
        stdin_text=gen_out,
    )
    assert code == 0 and out == "2*m1\n"


@pytest.mark.parametrize("n", [12, 23])
def test_projective_space_integrates_to_its_cobordism_class(monkeypatch, n):
    # [P^n] = (n+1) m_n; the generic cocharacter of P^n takes linear time
    monkeypatch.delenv("COBORDISM_DEFAULT_DEG", raising=False)
    code, graph, _ = run(["gkm", "gen", "pn", "--n", str(n)])
    assert code == 0
    cls = json.dumps({v: "1" for v in json.loads(graph)["vertices"]})
    argv = ["gkm", "integrate", "--class", cls, "--coeff-deg", str(n)]
    assert run(argv, stdin_text=graph) == (0, f"# deg {n + 1}\n{n + 1}*m{n}\n", "")


def test_gkm_gen_flag_and_pn():
    code, out, _ = run(["gkm", "gen", "flag", "--n", "3"])
    g = json.loads(out)
    assert len(g["vertices"]) == 6 and len(g["edges"]) == 9
    code, out, _ = run(["gkm", "gen", "pn", "--n", "2"])
    g = json.loads(out)
    assert g["rank"] == 2 and len(g["vertices"]) == 3


def test_gkm_check_exit_codes():
    code, out, _ = run(
        ["gkm", "check", "--graph", P1_JSON, "--class", '{"0":"chern(1)","inf":"0"}', "--deg", "5"]
    )
    assert code == 0 and out == "true\n"
    code, out, _ = run(
        ["gkm", "check", "--graph", P1_JSON, "--class", '{"0":"1","inf":"0"}', "--deg", "5"]
    )
    assert code == 1 and out == "false\n"


def test_gkm_integrate_not_a_class_exits_one():
    code, _, err = run(
        ["gkm", "integrate", "--graph", P1_JSON, "--class", '{"0":"1","inf":"0"}', "--deg", "6"]
    )
    assert code == 1 and "NotAClass" in err


def test_gkm_expand_and_forget():
    basis = '[{"0":"1","inf":"1"},{"0":"chern(1)","inf":"0"}]'
    code, out, _ = run(
        ["gkm", "expand", "--graph", P1_JSON, "--class", '{"0":"chern(1)","inf":"0"}',
         "--basis", basis, "--deg", "5"]
    )
    assert code == 0 and json.loads(out) == ["0", "1"]
    code, out, _ = run(
        ["gkm", "forget", "--graph", P1_JSON, "--class", '{"0":"1 + chern(1)","inf":"1"}',
         "--basis", basis, "--deg", "5"]
    )
    assert code == 0 and json.loads(out) == ["1", "1"]


def test_gkm_class_truncation_field():
    cls = '{"truncation": 6, "values": {"0": "1", "inf": "1"}}'
    code, out, _ = run(["gkm", "integrate", "--graph", P1_JSON, "--class", cls])
    assert code == 0 and out == "2*m1\n"


def test_integrate_default_deg_is_dimension_plus_one(monkeypatch):
    # a degree-3 class on P^2 needs no extra truncation: it integrates to 0
    monkeypatch.delenv("COBORDISM_DEFAULT_DEG", raising=False)
    _, graph, _ = run(["gkm", "gen", "pn", "--n", "2"])
    code, out, _ = run(
        ["gkm", "integrate", "--graph", graph, "--class", '{"0":"0","1":"t1^3","2":"t2^3"}']
    )
    assert code == 0 and out == "# deg 3\n0\n"


def test_integrate_specialized_point_class(monkeypatch):
    monkeypatch.delenv("COBORDISM_DEFAULT_DEG", raising=False)
    _, graph, _ = run(["gkm", "gen", "p1", "--char", "-1"])
    argv = ["gkm", "integrate", "--graph", graph, "--class", '{"0":"chern(-1)","inf":"0"}',
            "--spec", "multiplicative:1"]
    code, out, _ = run(argv + ["--deg", "12"])
    assert code == 0 and out == "1\n"
    code, out, _ = run(argv)
    assert code == 0 and out == "# deg 2\n1\n"


def test_flag_kernel_default_deg_covers_artin_basis(monkeypatch):
    monkeypatch.delenv("COBORDISM_DEFAULT_DEG", raising=False)
    code, out, _ = run(["flag", "kernel", "x1+x2+x3", "--rank", "3"])
    assert code == 0 and out == "# deg 3\ntrue\n"
    code, out, _ = run(["flag", "kernel", "x1^4+x2", "--rank", "4"])
    assert code == 0 and out == "# deg 6\nfalse\n"


def test_acoeff_validates_before_header(monkeypatch):
    monkeypatch.delenv("COBORDISM_DEFAULT_DEG", raising=False)
    code, out, err = run(["fgl", "acoeff", "--i", "0", "--j", "0"])
    assert code == 2 and out == "" and "usage error" in err
    code, out, _ = run(["fgl", "acoeff", "--i", "1", "--j", "2", "--spec", "bogus"])
    assert code == 2 and out == ""
    code, out, _ = run(["fgl", "acoeff", "--i", "1", "--j", "2"])
    assert code == 0 and out == "# deg 3\n4*m1^2 - 3*m2\n"


@pytest.mark.parametrize("i, j", [(-1, 3), (3, -1), (-1, -1), (-2, 2)])
def test_acoeff_refuses_a_negative_index_before_header(monkeypatch, i, j):
    monkeypatch.delenv("COBORDISM_DEFAULT_DEG", raising=False)
    code, out, err = run(["fgl", "acoeff", "--i", str(i), "--j", str(j)])
    assert (code, out) == (2, "")
    assert err == "usage error: need --i >= 0 and --j >= 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["fgl", "print", "--coeff-deg", "-1"],
        ["fgl", "nseries", "--n", "2", "--spec", "bogus"],
        ["gkm", "integrate", "--graph", P1_JSON, "--class", '{"0":"1","inf":"1"}',
         "--spec", "bogus"],
    ],
    ids=["print-coeff-deg", "nseries-spec", "integrate-spec"],
)
def test_validates_before_header(monkeypatch, argv):
    monkeypatch.delenv("COBORDISM_DEFAULT_DEG", raising=False)
    code, out, err = run(argv)
    assert code == 2 and out == "" and "usage error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["fgl", "print", "--spec", "multiplicative:1/0"],
        ["fgl", "print", "--spec", "multiplicative:x"],
        ["gkm", "check", "--graph", "[]", "--class", "[]"],
        ["gkm", "check", "--graph", '{"rank": 1, "dim": 1, "vertices": 5, "edges": []}',
         "--class", "{}"],
        ["gkm", "integrate", "--graph", P1_JSON, "--class", '{"truncation": [4], "values": {}}'],
        ["gkm", "integrate", "--graph", P1_JSON, "--class", '{"values": 5}'],
    ],
    ids=["spec-zero-beta", "spec-bad-beta", "graph-list", "graph-vertices", "class-truncation",
         "class-values"],
)
def test_malformed_input_is_a_usage_error(argv):
    code, out, err = run(argv)
    assert code == 2 and out == "" and "usage error" in err


_P1_CLASS = '{"0": "1", "inf": "1"}'


@pytest.mark.parametrize(
    "graph, cls",
    [
        (P1_JSON.replace('"char": [1]', '"char": [1.5]'), _P1_CLASS),
        (P1_JSON.replace('"char": [1]', '"char": [true]'), _P1_CLASS),
        (P1_JSON.replace('"rank": 1', '"rank": 1.9'), _P1_CLASS),
        (P1_JSON.replace('"dim": 1', '"dim": 1.0'), _P1_CLASS),
        (P1_JSON, '{"truncation": 3.7, "values": %s}' % _P1_CLASS),
        (P1_JSON, '{"truncation": true, "values": %s}' % _P1_CLASS),
    ],
    ids=["char-float", "char-bool", "rank-float", "dim-float", "truncation-float", "truncation-bool"],
)
def test_a_non_integer_number_is_a_usage_error(graph, cls):
    # int() would truncate it: "char": [1.5] integrated as [1], with exit 0
    code, out, err = run(["gkm", "integrate", "--graph", graph, "--class", cls])
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ") and ("must be an integer" in err or "expected an integer" in err)


def test_integers_written_as_strings_stay_accepted():
    code, out, _ = run(["gkm", "integrate", "--graph", P1_JSON.replace("1", '"1"'), "--class",
                        '{"truncation": "3", "values": %s}' % _P1_CLASS])
    assert (code, out) == (0, "2*m1\n")


@pytest.mark.parametrize("how", [{"COBORDISM_DEFAULT_DEG": "0"}, {"argv": ["--deg", "0"]}],
                         ids=["env", "deg"])
def test_gen_classes_refuses_truncation_before_graph(monkeypatch, how):
    monkeypatch.delenv("COBORDISM_DEFAULT_DEG", raising=False)
    for key, value in how.items():
        if key != "argv":
            monkeypatch.setenv(key, value)
    code, out, err = run(["gkm", "gen", "p1", "--char", "1", "--classes"] + how.get("argv", []))
    assert code == 2 and out == "" and "usage error" in err


def test_gen_classes_header_follows_graph(monkeypatch):
    monkeypatch.delenv("COBORDISM_DEFAULT_DEG", raising=False)
    code, out, _ = run(["gkm", "gen", "p1", "--char", "1", "--classes"])
    lines = out.splitlines()
    assert code == 0 and json.loads(lines[0]) == json.loads(P1_JSON) and lines[1] == "# deg 4"
    code, out, _ = run(["gkm", "gen", "p1", "--char", "1", "--classes", "--deg", "3"])
    assert code == 0 and len(out.splitlines()) == 2


@pytest.mark.parametrize("char", ["2,1", "1,-2", "1,1,1", "2,2"])
def test_gkm_check_point_classes_off_axis(monkeypatch, char):
    # these characters are neither on an axis nor a difference e_a - e_b
    monkeypatch.delenv("COBORDISM_DEFAULT_DEG", raising=False)
    code, out, _ = run(["gkm", "gen", "p1", "--char", char, "--classes"])
    graph, header, classes = out.splitlines()
    assert code == 0 and header == "# deg 4"
    for name, cls in json.loads(classes).items():
        cases = [(cls, 0, "true\n")]
        for extra, want in [(f" + chern({char})*t1*t2", (0, "true\n")), (" + t1^2", (1, "false\n")),
                            (" + m1*t1^3", (1, "false\n"))]:
            values = dict(cls["values"], **{"0": cls["values"]["0"] + extra})
            cases.append(({"truncation": 4, "values": values}, *want))
        for obj, want_code, want_out in cases:
            code, out, _ = run(["gkm", "check", "--graph", graph, "--class", json.dumps(obj)])
            assert (code, out) == (want_code, want_out), (name, obj)


@pytest.mark.parametrize(
    "argv",
    [
        ["fgl", "print"],
        ["gkm", "integrate", "--graph", P1_JSON, "--class", '{"0":"1","inf":"1"}'],
        ["flag", "kernel", "x1", "--rank", "2"],
    ],
    ids=["print", "integrate", "kernel"],
)
@pytest.mark.parametrize("env", ["0", "-3"])
def test_env_default_deg_validated_before_header(monkeypatch, argv, env):
    monkeypatch.setenv("COBORDISM_DEFAULT_DEG", env)
    code, out, err = run(argv)
    assert code == 2 and out == "" and "usage error" in err


def _forbid_work(monkeypatch):
    """Make every law build, kernel check, flag and P^n graph and coinvariant
    rank fail, so a guard must fire first."""

    def boom(*args, **kwargs):
        raise AssertionError("a guarded command started its work")

    monkeypatch.setattr(fgl.FGLContext, "__init__", boom)
    monkeypatch.setattr(flag, "kernel_check", boom)
    monkeypatch.setattr(gkm, "flag_graph", boom)
    monkeypatch.setattr(gkm, "pn_graph", boom)
    monkeypatch.setattr(flag, "coinv_rank", boom)


@pytest.mark.parametrize(
    "argv, env",
    [
        (["fgl", "print", "--deg", "1000000000"], None),
        (["fgl", "nseries", "--n", "2", "--deg", str(cli.MAX_DEG + 1)], None),
        (["fgl", "print"], "1000000000"),
        (["gkm", "integrate", "--graph", P1_JSON, "--class", '{"0": "1", "inf": "1"}'], "25"),
        (["gkm", "gen", "p1", "--char", "1", "--classes", "--deg", "1000000000"], None),
        (["flag", "kernel", "x1", "--rank", "12"], None),
        (["flag", "kernel", "x1", "--rank", str(cli.MAX_KERNEL_RANK + 1), "--deg", "3"], None),
        (["flag", "rank", "--rank", "12", "--basis"], None),
        (["flag", "rank", "--rank", str(cli.MAX_COINV_RANK + 1)], None),
        (["gkm", "gen", "flag", "--n", str(cli.MAX_FLAG_GRAPH_N + 1)], None),
        (["gkm", "gen", "flag", "--n", "9", "--classes", "--deg", "3"], None),
        (["gkm", "gen", "pn", "--n", str(cli.MAX_PN_GRAPH_N + 1)], None),
        (["gkm", "gen", "pn", "--n", "1000000000", "--classes", "--deg", "3"], None),
    ],
    ids=["fgl-print", "fgl-nseries", "env-default", "integrate-env", "gen-classes", "kernel-rank-12",
         "kernel-rank-limit", "coinv-rank-12", "coinv-rank-limit", "flag-graph-limit",
         "flag-graph-classes", "pn-graph-limit", "pn-graph-huge"],
)
def test_size_guards_refuse_before_output(monkeypatch, argv, env):
    _forbid_work(monkeypatch)
    if env is None:
        monkeypatch.delenv("COBORDISM_DEFAULT_DEG", raising=False)
    else:
        monkeypatch.setenv("COBORDISM_DEFAULT_DEG", env)
    code, out, err = run(argv)
    assert (code, out) == (2, "") and "above the limit" in err


def test_size_guards_admit_their_limits(monkeypatch):
    monkeypatch.delenv("COBORDISM_DEFAULT_DEG", raising=False)
    code, out, _ = run(["fgl", "print", "--deg", str(cli.MAX_DEG), "--spec", "additive"])
    assert (code, out) == (0, "u + v\n")
    monkeypatch.setattr(flag, "kernel_check", lambda ctx, n, p: ctx.rank == n)
    n = cli.MAX_KERNEL_RANK
    code, out, _ = run(["flag", "kernel", "x1", "--rank", str(n), "--deg", "2", "--spec", "additive"])
    assert (code, out) == (0, "true\n")
    monkeypatch.setattr(flag, "coinv_rank", lambda n: (n, []))
    code, out, _ = run(["flag", "rank", "--rank", str(cli.MAX_COINV_RANK)])
    assert (code, out) == (0, f"{cli.MAX_COINV_RANK}\n")
    real = gkm.flag_graph
    monkeypatch.setattr(gkm, "flag_graph", lambda n: real(2))
    code, out, _ = run(["gkm", "gen", "flag", "--n", str(cli.MAX_FLAG_GRAPH_N)])
    assert (code, json.loads(out)["rank"]) == (0, 2)
    code, out, _ = run(["gkm", "gen", "pn", "--n", str(cli.MAX_PN_GRAPH_N)])
    assert (code, json.loads(out)["dim"]) == (0, cli.MAX_PN_GRAPH_N)
    assert cli.MAX_PN_GRAPH_N + 1 == cli.MAX_DEG  # the integration demand of P^n at the limit


def test_exponent_and_generator_limits_refuse_before_output():
    # m-monomials are packed with MAX_EXP per exponent and MAX_GENERATORS fields
    for expr in ("m1^40000*x1 + x2", f"m{kernels.MAX_GENERATORS + 1}*x1"):
        code, out, err = run(["flag", "nf", expr, "--rank", "2"])
        assert (code, out) == (2, "") and err.startswith("error: TooLarge:"), expr
        assert "Traceback" not in err
    code, out, _ = run(["flag", "nf", f"m1^{kernels.MAX_EXP}*x1 + x2", "--rank", "2"])
    assert (code, out) == (0, f"(-1 + m1^{kernels.MAX_EXP})*x1\n")
    code, out, _ = run(["flag", "nf", f"m{kernels.MAX_GENERATORS}*x2", "--rank", "2"])
    assert (code, out) == (0, f"-m{kernels.MAX_GENERATORS}*x1\n")


def test_power_above_the_exponent_limit_keeps_its_refusal():
    # powers are taken by squaring; the first square above the limit refuses
    code, out, err = run(["flag", "nf", "m1^40000*x1 + x2", "--rank", "2"])
    want = f"error: TooLarge: an exponent in a product is above the limit {kernels.MAX_EXP}\n"
    assert (code, out, err) == (2, "", want)


def test_flag_kernel_below_artin_degree():
    # the pairing needs truncation 4 at rank 3 and gets it internally; a
    # polynomial above --deg is still refused
    code, out, _ = run(["flag", "kernel", "x1", "--rank", "3", "--deg", "2"])
    assert code == 0 and out == "false\n"
    code, out, err = run(["flag", "kernel", "x1^2*x2 - x1*x2^2", "--rank", "3", "--deg", "2"])
    want = "error: TruncationInsufficient: polynomial degree 3 exceeds series truncation 2\n"
    assert (code, out, err) == (1, "", want)


# (rank, polynomial of degree at most 2, answer)
LOW_DEG_KERNELS = [
    (2, "x1", "false"), (2, "m1*x1 + m1*x2", "true"),
    (3, "x1^2 - 2*m1*x2", "false"), (3, "x1*x2 + x1*x3 + x2*x3", "true"),
    (4, "x1*x2 + 3/2*x4", "false"), (4, "(x1 + x2 + x3 + x4)*(m1 - x2)", "true"),
]


@pytest.mark.parametrize("spec", ["universal", "additive", "multiplicative:2/5"])
@pytest.mark.parametrize("n, expr, want", LOW_DEG_KERNELS, ids=str)
def test_flag_kernel_at_or_below_dim_prints_the_bytes_of_dim_plus_one(spec, n, expr, want):
    dim = n * (n - 1) // 2
    argv = ["flag", "kernel", expr, "--rank", str(n), "--spec", spec, "--deg"]
    assert run([*argv, str(dim + 1)]) == (0, want + "\n", "")
    for deg in sorted({min(2, dim), dim}):
        assert run([*argv, str(deg)]) == (0, want + "\n", "")


def test_flag_commands():
    code, out, _ = run(["flag", "nf", "x2", "--rank", "2"])
    assert code == 0 and out == "-x1\n"
    code, out, _ = run(["flag", "nf", "x1^2", "--rank", "2"])
    assert code == 0 and out == "0\n"
    code, out, _ = run(["flag", "rank", "--rank", "3"])
    assert code == 0 and out == "6\n"
    code, out, _ = run(["flag", "rank", "--rank", "2", "--basis"])
    assert code == 0 and out == '2\n["1", "x1"]\n'
    code, out, _ = run(["flag", "kernel", "x1^2", "--rank", "2", "--deg", "4"])
    assert code == 0 and out == "true\n"
    code, out, _ = run(["flag", "kernel", "x1", "--rank", "2", "--deg", "4"])
    assert code == 0 and out == "false\n"


def test_gkm_integrate_flag3_multiplicative_via_cli():
    # the flag threefold's multiplicative genus is beta^3 (Chern numbers 48, 24, 6)
    code, gen_out, _ = run(["gkm", "gen", "flag", "--n", "3"])
    assert code == 0
    values = {v: "1" for v in json.loads(gen_out)["vertices"]}
    code, out, _ = run(
        ["gkm", "integrate", "--class", json.dumps(values), "--deg", "20",
         "--spec", "multiplicative:2/5"],
        stdin_text=gen_out,
    )
    assert code == 0 and out == "8/125\n"


def test_gkm_expand_no_solution_exits_one():
    basis = '[{"0":"chern(1)","inf":"0"},{"0":"0","inf":"chern(-1)"}]'
    code, _, err = run(
        ["gkm", "expand", "--graph", P1_JSON, "--class", '{"0":"1","inf":"1"}',
         "--basis", basis, "--deg", "5"]
    )
    assert code == 1 and "NoSolution" in err


def test_gkm_expand_refuses_generators_above_coeff_deg():
    # m5 is above --coeff-deg 3 on both routes: point classes and the lifting
    cls = '{"0":"m5*chern(1)","inf":"0"}'
    points = '[{"0":"chern(1)","inf":"0"},{"0":"0","inf":"chern(-1)"}]'
    mixed = '[{"0":"1","inf":"1"},{"0":"chern(1)","inf":"0"}]'
    for basis in (points, mixed):
        code, out, err = run(
            ["gkm", "expand", "--graph", P1_JSON, "--coeff-deg", "3", "--class", cls,
             "--basis", basis]
        )
        assert (code, out) == (1, "# deg 4\n") and "NoSolution" in err
    code, out, _ = run(
        ["gkm", "expand", "--graph", P1_JSON, "--coeff-deg", "5", "--class", cls,
         "--basis", points]
    )
    assert (code, out) == (0, '# deg 4\n["m5", "0"]\n')


def test_gkm_expand_statuses():
    one = '{"0":"1","inf":"1"}'
    # an element that is not homogeneous at one vertex: a usage error, not a traceback
    code, out, err = run(
        ["gkm", "expand", "--graph", P1_JSON, "--class", '{"0":"t1","inf":"0"}',
         "--basis", f'[{one},{{"0":"t1 + t1^2","inf":"0"}}]']
    )
    assert (code, out) == (2, "# deg 4\n") and "not homogeneous" in err
    # an element whose lowest part carries m1 is no basis element
    code, out, err = run(
        ["gkm", "forget", "--graph", P1_JSON, "--class", '{"0":"1 + m1*t1^2","inf":"1"}',
         "--basis", f'[{one},{{"0":"m1*t1^2","inf":"0"}}]']
    )
    assert (code, out) == (1, "# deg 4\n") and "Ambiguous" in err


def test_gkm_expand_size_guard_exits_two(monkeypatch):
    # the certified basis {1, [0]} skips the zero residuals above t-degree 0,
    # so one column suffices; the uncertified {1, t1} solves every t-degree,
    # and its system at t-degree 1 has two columns
    monkeypatch.setattr(gkm, "MAX_EXPAND_COLUMNS", 1)
    certified = ["gkm", "expand", "--graph", P1_JSON, "--class", '{"0":"1","inf":"1"}',
                 "--basis", '[{"0":"1","inf":"1"},{"0":"chern(1)","inf":"0"}]']
    assert run(certified)[:2] == (0, '# deg 4\n["1", "0"]\n')
    uncertified = ["gkm", "expand", "--graph", P1_JSON, "--class", '{"0":"1","inf":"1"}',
                   "--basis", '[{"0":"1","inf":"1"},{"0":"t1","inf":"t1"}]']
    code, out, err = run(uncertified)
    assert (code, out) == (2, "# deg 4\n") and "2 unknowns at t-degree 1, above the limit 1" in err
    monkeypatch.setattr(gkm, "MAX_EXPAND_COLUMNS", 2)
    code, out, err = run(uncertified)
    assert (code, out) == (1, "# deg 4\n") and "Ambiguous" in err


def test_flag_nf_wall_guard_exits_two(monkeypatch):
    # x3^3 at rank 5 reaches h_3(x1, x2, x3), of C(5, 3) = 10 terms
    argv = ["flag", "nf", "x3^3", "--rank", "5"]
    monkeypatch.setattr(flag, "MAX_WALL_TERMS", 10)
    code, out, _ = run(argv)
    assert code == 0 and out.startswith("-")
    monkeypatch.setattr(flag, "MAX_WALL_TERMS", 9)
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err == "error: TooLarge: the wall h_3 at rank 5 has 10 terms, above the limit 9\n"


def test_graph_from_file(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(P1_JSON)
    code, out, _ = run(
        ["gkm", "integrate", "--graph", f"@{path}", "--class", '{"0":"1","inf":"1"}', "--deg", "6"]
    )
    assert code == 0 and out == "2*m1\n"


def test_gen_p1_multi_component_char():
    code, out, _ = run(["gkm", "gen", "p1", "--char", "1,-1"])
    assert code == 0
    g = json.loads(out)
    assert g["rank"] == 2 and g["edges"][0]["char"] == [1, -1]


def test_flag_nf_with_generator_coefficients():
    code, out, _ = run(["flag", "nf", "m1*x2 + x1^2", "--rank", "2"])
    assert code == 0 and out == "-m1*x1\n"


@pytest.mark.parametrize(
    "expr, rank, want",
    [("x4^60", 4, "0"), ("x3^3000", 3, "0"), ("x1", 24, "x1"), ("x1 + x3^7", 3, "x1"),
     ("x2 + x4^7", 4, "x2")],
)
def test_flag_nf_drops_the_parts_above_the_top_degree(expr, rank, want):
    assert run(["flag", "nf", expr, "--rank", str(rank)]) == (0, want + "\n", "")


def test_top_level_help_prints_the_description_not_the_docstring():
    assert cli.build_parser().description is cli.DESCRIPTION != cli.__doc__
    code, out, _ = run(["--help"])
    assert code == 0
    # argparse refills the description, so compare its words
    assert " ".join(cli.DESCRIPTION.split()) in " ".join(out.split())
    assert "DESCRIPTION" not in out


def test_gen_invalid_graph_rejected():
    bad = '{"rank": 1, "dim": 1, "vertices": ["a", "b"], "edges": [{"v": "a", "w": "b", "char": [0]}]}'
    code, _, err = run(["gkm", "check", "--graph", bad, "--class", '{"a":"1","b":"1"}', "--deg", "4"])
    assert code == 1 and "GraphInvalid" in err


_ZERO_EDGE = ('{"rank": 1, "dim": 1, "vertices": ["0", "inf"], '
              '"edges": [{"v": "0", "w": "inf", "char": [0]}]}')


@pytest.mark.parametrize("sub", ["check", "integrate", "expand", "forget"])
def test_zero_edge_character_is_refused_by_validation(sub):
    extra = ["--basis", '[{"0":"1","inf":"1"}, {"0":"t1","inf":"0"}]'] if sub in ("expand", "forget") else []
    argv = ["gkm", sub, "--graph", _ZERO_EDGE, "--class", '{"0":"1","inf":"1"}'] + extra
    assert run(argv) == (1, "", "error: GraphInvalid: edge (0,inf) has the zero character\n")


def test_class_values_are_parsed_and_evaluated_once_per_distinct_text(monkeypatch):
    g = gkm.flag_graph(3)
    ctx = TorusContext(3, fgl.build(3, 4))
    texts = ["1", "t1 + m1*t2", "1", "t3^2", "t1 + m1*t2", "1"]
    values = dict(zip(g.vertices, texts))
    want = gkm.PiecewiseClass({v: exprs.eval_series(exprs.parse(values[v]), ctx) for v in g.vertices})
    parsed = []
    parse = exprs.parse
    monkeypatch.setattr(exprs, "parse", lambda text: parsed.append(text) or parse(text))
    alpha = cli._eval_class(ctx, g, values)
    assert alpha == want and parsed == ["1", "t1 + m1*t2", "t3^2"]
    assert alpha.values["123"] is alpha.values["213"] is alpha.values["321"]


def test_first_failing_class_value_decides_the_error():
    p2 = json.dumps(gkm.pn_graph(2).to_json())
    unexpected = "parse error: line 1, column 4: unexpected '*'\n"
    for values, want in [
        ({"0": "1", "1": "t1 +* t2", "2": "(("}, unexpected),
        ({"0": "x1", "1": "t1 +* t2", "2": "x1"},
         "usage error: x-variables are only meaningful in flag expressions\n"),
        ({"0": "1", "2": "(("}, "usage error: class is missing a value for vertex '1'\n"),
        ({"0": "1", "1": "1", "2": "t1 +* t2"}, unexpected),
    ]:
        argv = ["gkm", "integrate", "--graph", p2, "--class", json.dumps(values)]
        assert run(argv) == (2, "# deg 3\n", want), values


def test_repeated_vertex_id_exits_one():
    dup = ('{"rank": 1, "dim": 1, "vertices": ["0", "0", "inf"], '
           '"edges": [{"v": "0", "w": "inf", "char": [1]}]}')
    code, out, err = run(["gkm", "integrate", "--graph", dup, "--class", '{"0":"t1","inf":"0"}'])
    assert (code, out) == (1, "") and "GraphInvalid" in err and "listed more than once" in err


def test_unknown_edge_endpoint_exits_one():
    bad = ('{"rank": 1, "dim": 1, "vertices": ["0", "inf"], '
           '"edges": [{"v": "0", "w": "x", "char": [1]}]}')
    code, out, err = run(["gkm", "check", "--graph", bad, "--class", '{"0":"1","inf":"1"}'])
    assert (code, out) == (1, "") and "GraphInvalid" in err and "unknown vertex" in err


def test_character_length_not_the_rank_exits_one():
    rank2 = ('{"rank": 2, "dim": 1, "vertices": ["0", "inf"], '
             '"edges": [{"v": "0", "w": "inf", "char": [1]}]}')
    for cls in ('{"0":"1","inf":"1"}', '{"0":"t1","inf":"0"}'):
        code, out, err = run(["gkm", "integrate", "--graph", rank2, "--class", cls])
        assert (code, out) == (1, "") and err.startswith("error: GraphInvalid:"), cls
        assert "length 1, not the rank 2" in err
    rank1 = ('{"rank": 1, "dim": 1, "vertices": ["0", "inf"], '
             '"edges": [{"v": "0", "w": "inf", "char": [1, 5]}]}')
    for sub in ("check", "integrate"):
        code, out, err = run(["gkm", sub, "--graph", rank1, "--class", '{"0":"1","inf":"1"}'])
        assert (code, out) == (1, "") and err.startswith("error: GraphInvalid:"), sub
        assert "length 2, not the rank 1" in err


_RANK0 = '{"rank": 0, "dim": 0, "vertices": ["a"], "edges": []}'
_RANK_POSITIVE = "usage error: rank must be positive\n"


@pytest.mark.parametrize(
    "argv, want",
    [
        (["gkm", "integrate", "--graph", _RANK0, "--class", '{"a": "1"}'], _RANK_POSITIVE),
        (["gkm", "check", "--graph", _RANK0, "--class", '{"a": "1"}'], _RANK_POSITIVE),
        (["flag", "kernel", "1", "--rank", "0"], _RANK_POSITIVE),
        (["flag", "nf", "1", "--rank", "0"], _RANK_POSITIVE),
        (["flag", "nf", "2", "--rank", "-2"], _RANK_POSITIVE),
        (["flag", "rank", "--rank", "0"], "usage error: need n >= 1\n"),
    ],
    ids=["integrate", "check", "kernel", "nf-0", "nf-negative", "rank"],
)
def test_rank_below_one_is_refused_before_output(monkeypatch, argv, want):
    monkeypatch.delenv("COBORDISM_DEFAULT_DEG", raising=False)
    assert run(argv) == (2, "", want)


@pytest.mark.parametrize("kind", ["pn", "flag"])
def test_gen_without_n_is_a_usage_error(kind):
    assert run(["gkm", "gen", kind]) == (2, "", f"usage error: {kind} needs --n\n")
    assert run(["gkm", "gen", kind, "--classes"]) == (2, "", f"usage error: {kind} needs --n\n")


_VALENCE_BROKEN = ('{{"rank": 1, "dim": {dim}, "vertices": ["0", "inf"], '
                   '"edges": [{{"v": "0", "w": "inf", "char": [1]}}]}}')


@pytest.mark.parametrize("sub", ["check", "integrate", "expand", "forget"])
def test_oversized_truncation_refused_before_validation(monkeypatch, sub):
    monkeypatch.delenv("COBORDISM_DEFAULT_DEG", raising=False)
    extra = ["--basis", "[]"] if sub in ("expand", "forget") else []
    cls = ["--class", '{"0":"1","inf":"1"}'] + extra
    code, out, err = run(["gkm", sub, "--graph", _VALENCE_BROKEN.format(dim=30)] + cls)
    assert (code, out) == (2, "") and "TooLarge" in err
    # within the limit the same graph is invalid, and no header is printed
    code, out, err = run(["gkm", sub, "--graph", _VALENCE_BROKEN.format(dim=2)] + cls)
    assert (code, out) == (1, "") and "GraphInvalid" in err


def test_parse_error_exit_two():
    code, _, err = run(["flag", "nf", "x1 +* x2", "--rank", "2"])
    assert code == 2 and "column 4" in err


LONG_CHAIN = 1200


@pytest.mark.parametrize("op, short", [("+", f"{LONG_CHAIN}*x1"), ("*", f"x1^{LONG_CHAIN}")],
                         ids=["sum", "product"])
def test_a_long_chain_is_evaluated(op, short):
    # a chain is walked in a loop, so its length does not reach the stack limit
    code, out, err = run(["flag", "nf", op.join(["x1"] * LONG_CHAIN), "--rank", "2"])
    assert (code, out, err) == run(["flag", "nf", short, "--rank", "2"])
    assert code == 0 and err == ""


def test_deep_nesting_is_a_parse_error():
    deep = "(" * 400 + "x1" + ")" * 400
    code, out, err = run(["flag", "nf", deep, "--rank", "2"])
    assert (code, out) == (2, "")
    assert err == (
        f"parse error: line 1, column {exprs.MAX_NESTING}: "
        f"expression nested deeper than {exprs.MAX_NESTING} levels\n"
    )
    depth = exprs.MAX_NESTING - 1
    assert run(["flag", "nf", "(" * depth + "x1" + ")" * depth, "--rank", "2"]) == (0, "x1\n", "")


def test_usage_error_exit_two():
    code, _, _ = run(["gkm", "gen", "p1"])  # missing --char
    assert code == 2
    code, _, _ = run(["fgl", "bogus"])
    assert code == 2
    code, _, err = run(
        ["gkm", "check", "--graph", P1_JSON, "--class", '{"0":"t2","inf":"0"}', "--deg", "4"]
    )
    assert code == 2 and "usage error" in err


def test_usage_error_goes_to_the_given_stderr(capsys):
    code, out, err = run(["fgl", "print", "--bogus"])
    assert code == 2 and out == ""
    assert err.startswith("usage: torcob") and "unrecognized arguments: --bogus" in err
    code, out, err = run(["gkm", "integrate", "--graph", P1_JSON])  # subparser: no --class
    assert code == 2 and out == "" and "usage: torcob gkm integrate" in err
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("argv", [["--help"], ["fgl", "-h"], ["gkm", "integrate", "--help"]])
def test_help_goes_to_the_given_stdout(capsys, argv):
    code, out, err = run(argv)
    assert code == 0 and err == ""
    assert out.startswith("usage: torcob") and "-h, --help" in out
    assert capsys.readouterr() == ("", "")


# Pairs (earlier, later) whose earlier call sets what the later one leaves out.
STATE_PAIRS = [
    # A class truncation is written into args.deg; the later class has none.
    (["gkm", "integrate", "--graph", P1_JSON, "--class",
      '{"truncation": 4, "values": {"0": "1", "inf": "1"}}'],
     ["gkm", "integrate", "--graph", P1_JSON, "--class", '{"0": "1", "inf": "1"}']),
    (["flag", "nf", "m1*x2 + x1^2", "--rank", "2", "--spec", "multiplicative:2/5"],
     ["flag", "nf", "m1*x2 + x1^2", "--rank", "2"]),
    (["flag", "kernel", "m1*x1^2", "--rank", "2", "--spec", "additive"],
     ["flag", "kernel", "m1*x1^2", "--rank", "2"]),
    (["fgl", "print", "--deg", "4", "--spec", "multiplicative:2/5"],
     ["fgl", "print", "--deg", "4"]),
    (["fgl", "print", "--bogus"], ["fgl", "print", "--deg", "2"]),
]


def _first_call(argv):
    cli.build_parser.cache_clear()
    return run(argv)


@pytest.mark.parametrize("earlier, later", STATE_PAIRS)
def test_shared_parser_carries_no_state(monkeypatch, earlier, later):
    monkeypatch.delenv("COBORDISM_DEFAULT_DEG", raising=False)
    expected = _first_call(later), _first_call(earlier)
    assert (run(later), run(earlier)) == expected
    assert (run(later), run(earlier)) == expected


def test_shared_parser_reproduces_golden_corpus(monkeypatch):
    monkeypatch.delenv("COBORDISM_DEFAULT_DEG", raising=False)
    cases = json.loads((pathlib.Path(__file__).parent / "golden" / "cases.json").read_text("utf-8"))
    golden = {tuple(c["argv"]): (c["exit"], c["stdout"]) for c in cases}
    pairs = [pair for pair in STATE_PAIRS if all(tuple(argv) in golden for argv in pair)]
    assert len(pairs) == 2
    for earlier, later in pairs:
        assert golden[tuple(earlier)] != golden[tuple(later)]
        for argv in (earlier, later, earlier, later):
            assert run(argv)[:2] == golden[tuple(argv)]


def test_parser_is_built_once_per_process():
    cli.build_parser.cache_clear()
    for i in range(20):
        run(["flag", "nf", f"x1^{i % 3}", "--rank", "2"] if i % 2 else ["fgl", "print", "--bogus"])
    assert cli.build_parser.cache_info().misses == 1


def whole_parse(argv):
    """The namespace of the whole parser, or the (status, text) it exits with."""
    try:
        return cli.build_parser().parse_args(argv)
    except cli._ParserExit as exc:
        return exc.args


def dispatched_parse(argv):
    try:
        return cli._parse(argv)
    except cli._ParserExit as exc:
        return exc.args


def test_subcommand_table_names_every_subcommand():
    assert sorted(cli.build_parser().commands) == sorted(
        [("fgl", s) for s in ("print", "nseries", "acoeff")]
        + [("gkm", s) for s in ("gen", "check", "integrate", "expand", "forget")]
        + [("flag", s) for s in ("nf", "rank", "kernel")]
    )


def _spy_on_whole_parse(monkeypatch):
    """The list that records each call of the whole parser's ``parse_args``."""
    calls = []
    ap = cli.build_parser()
    whole = ap.parse_args

    def spy(*args, **kwargs):
        calls.append(args)
        return whole(*args, **kwargs)

    monkeypatch.setattr(ap, "parse_args", spy)
    return calls


def test_subcommand_parser_matches_the_whole_parser_on_the_golden_corpus(monkeypatch):
    # every golden argv names a subcommand, whose parser alone gives the
    # whole parser's namespace or exit
    cases = json.loads((pathlib.Path(__file__).parent / "golden" / "cases.json").read_text("utf-8"))
    calls = _spy_on_whole_parse(monkeypatch)
    for case in cases:
        argv = case["argv"]
        got = dispatched_parse(argv)
        assert calls == [], argv
        assert got == whole_parse(argv), argv
        calls.clear()


# One command of each kind the ``cli`` workload runs, with the options it passes.
WORKLOAD_KINDS = [
    ["flag", "kernel", "(-2*x1 + 3/2*m1*x2)*(x1 + x2 + x3)", "--rank", "3"],
    ["flag", "nf", "-3*x1^2*x2 + m2*x1", "--rank", "3"],
    ["fgl", "print", "--deg", "5", "--spec", "multiplicative:-1/3"],
    ["fgl", "nseries", "--n", "-2", "--deg", "4", "--spec", "additive"],
    ["fgl", "acoeff", "--i", "2", "--j", "1"],
    ["gkm", "gen", "flag", "--n", "3", "--classes"],
    ["gkm", "check", "--graph", P1_JSON, "--class", '{"0": "t1", "inf": "0"}'],
    ["gkm", "integrate", "--graph", P1_JSON, "--class", '{"0": "1", "inf": "1"}'],
    ["gkm", "expand", "--graph", P1_JSON, "--class", '{"0": "1", "inf": "1"}',
     "--basis", '[{"0": "1", "inf": "1"}, {"0": "t1", "inf": "0"}]'],
    ["gkm", "forget", "--graph", P1_JSON, "--class", '{"0": "1", "inf": "1"}',
     "--basis", '[{"0": "1", "inf": "1"}, {"0": "t1", "inf": "0"}]'],
]


@pytest.mark.parametrize("argv", WORKLOAD_KINDS, ids=lambda argv: " ".join(argv[:2]))
def test_subcommand_parser_matches_the_whole_parser_on_workload_kinds(monkeypatch, argv):
    monkeypatch.delenv("COBORDISM_DEFAULT_DEG", raising=False)
    calls = _spy_on_whole_parse(monkeypatch)
    got = dispatched_parse(argv)
    assert run(argv)[0] == 0
    assert calls == []
    whole = whole_parse(argv)
    assert isinstance(whole, argparse.Namespace)
    assert got == whole


HELP_AND_ERRORS = (
    [["--help"], ["-h"], ["selftest", "--help"]]
    + [[group, "--help"] for group in ("fgl", "gkm", "flag")]
    + [[*pair, "--help"] for pair in sorted(cli.build_parser().commands)]
    + [
        [], ["bogus"], ["fgl"], ["fgl", "bogus"], ["gkm", "bogus", "--deg", "3"],
        ["fgl", "print", "--deg", "3", "extra"], ["fgl", "print", "--bogus"],
        ["fgl", "print", "--he"], ["flag", "nf", "x1"], ["flag", "nf", "x1", "--rank", "x"],
        ["flag", "kernel", "x1", "--rank"], ["gkm", "gen", "p2"],
    ]
)


@pytest.mark.parametrize("argv", HELP_AND_ERRORS, ids=" ".join)
def test_help_and_usage_errors_print_the_whole_parsers_bytes(argv):
    status, text = whole_parse(argv)
    want = (status, text, "") if status == 0 else (status, "", text)
    assert run(argv) == want


# Words the subcommand's parser reads as the whole parser would: "--", values
# that look like options, repeats, abbreviations, "=" and words left over.
EDGE_ARGV = [
    ["fgl", "print", "--deg", "3", "--", "x"], ["fgl", "print", "--deg", "3", "--"],
    ["--", "fgl", "print"], ["flag", "nf", "-x1", "--rank", "2"],
    ["flag", "nf", "--rank", "2", "--", "-x1"], ["fgl", "print", "--deg", "3", "--deg", "2"],
    ["fgl", "print", "--deg"], ["fgl", "print", "--he"],
    ["fgl", "print", "--co", "2", "--deg", "3"], ["fgl", "print", "--deg=3"],
    ["fgl", "print", "--deg=3", "extra", "words"], ["fgl", "print", "extra", "--deg", "3"],
    ["gkm", "gen", "p1", "extra"], ["gkm", "gen", "p1", "--char", "-1"],
    ["flag", "rank", "--rank", "3", "--basis", "--basis"], ["flag", "rank", "--rank", "3", "--deg", "3"],
    ["flag", "kernel", "x1", "x2", "--rank", "2"], ["fgl", "acoeff", "--i", "1", "--j"],
    ["fgl", "acoeff", "--i", "1", "--j", "1", "--i", "2", "--deg", "3"], ["fgl", "nseries", "--n", "x"],
    ["fgl", "nseries", "--n", "-2", "--deg", "3"], ["fgl", "print", "-h", "--bogus"],
    ["fgl", "print", "--bogus", "-h"], ["fgl", "print", "--spec"],
    ["fgl", "print", "--spec", "additive", "--deg", "2", "-"], ["gkm", "gen", "--n", "2"],
    ["flag", "nf", "x1", "--rank", "2", "--coeff-deg", "3", "--rank", "3"], ["selftest", "--only"],
    ["fgl", "print", "--deg", "-1"],
]


@pytest.mark.parametrize("argv", EDGE_ARGV, ids=" ".join)
def test_edge_argv_print_the_whole_parsers_bytes(monkeypatch, argv):
    monkeypatch.delenv("COBORDISM_DEFAULT_DEG", raising=False)
    assert dispatched_parse(argv) == whole_parse(argv)
    got = run(argv)
    monkeypatch.setattr(cli, "_parse", cli.build_parser().parse_args)
    assert run(argv) == got


def test_parser_is_not_built_at_import():
    env = dict(os.environ)
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = "import torcob.cli as c; print(c.build_parser.cache_info().misses)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=120, env=env)
    assert done.stdout == b"0\n", done.stderr.decode()


def test_byte_identical_reruns():
    battery = [
        ["fgl", "print", "--deg", "4"],
        ["gkm", "gen", "flag", "--n", "2"],
        ["gkm", "integrate", "--graph", P1_JSON, "--class", '{"0":"1","inf":"1"}', "--deg", "6"],
        ["flag", "nf", "x1*x2", "--rank", "2"],
    ]
    first = [run(argv) for argv in battery]
    second = [run(argv) for argv in battery]
    assert first == second


@pytest.mark.slow
def test_selftest_subprocess_byte_identical():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, "-m", "torcob.cli", "selftest"]
    a = subprocess.run(cmd, capture_output=True, timeout=1200, env=env)
    b = subprocess.run(cmd, capture_output=True, timeout=1200, env=env)
    assert a.returncode == 0, a.stdout.decode() + a.stderr.decode()
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode
    lines = a.stdout.decode().splitlines()
    assert len(lines) == 10 and all(line.startswith("PASS") for line in lines)


def test_selftest_only_subset():
    out = io.StringIO()
    code = cli.main(["selftest", "--only", "2,7"], stdout=out, stderr=out)
    assert code == 0
    lines = out.getvalue().splitlines()
    assert lines == ["PASS  2 specializations", "PASS  7 additive-cross-check"]


@pytest.mark.parametrize("only", ["99", "0,1", "2,11", "-1"])
def test_selftest_refuses_an_unknown_criterion_before_running_any(monkeypatch, only):
    from torcob import accept

    monkeypatch.setattr(accept, "run_criteria", lambda **kw: pytest.fail("a criterion ran"))
    code, out, err = run(["selftest", "--only", only])
    assert (code, out) == (2, "") and "numbered 1 to 10" in err


# -- argv fuzzing ---------------------------------------------------------------

PN2_JSON = json.dumps(
    {"rank": 2, "dim": 2, "vertices": ["0", "1", "2"],
     "edges": [{"v": "0", "w": "1", "char": [1, 0]}, {"v": "0", "w": "2", "char": [0, 1]},
               {"v": "1", "w": "2", "char": [-1, 1]}]}
)
FUZZ_GRAPHS = [
    P1_JSON, PN2_JSON, "[]", "{}", "5", '"x"', "null", "{", "[1, 2]",
    '{"rank": 1, "dim": 1, "vertices": 5, "edges": []}',
    '{"rank": "a", "dim": 1, "vertices": [], "edges": []}',
    '{"rank": [1], "dim": 1, "vertices": ["0"], "edges": []}',
    '{"rank": 1, "dim": 1, "vertices": ["0", "inf"], "edges": [1]}',
    '{"rank": 1, "dim": 1, "vertices": ["0", "inf"], "edges": [{"v": "0", "w": "inf", "char": 1}]}',
    '{"rank": 1, "dim": 1, "vertices": ["0", "inf"], "edges": [{"v": "0", "w": "inf"}]}',
    '{"rank": 2, "dim": 1, "vertices": ["0", "inf"], "edges": [{"v": "0", "w": "inf", "char": [1]}]}',
    '{"rank": 1, "dim": 1, "vertices": ["0", "0"], "edges": [{"v": "0", "w": "0", "char": [1]}]}',
    '{"rank": 0, "dim": 0, "vertices": [], "edges": []}',
    '{"rank": -1, "dim": 1, "vertices": ["0"], "edges": []}',
]
FUZZ_CLASSES = [
    '{"0": "1", "inf": "1"}', '{"0": "chern(1)", "inf": "0"}', '{"0": "t1^2", "1": "t2", "2": "0"}',
    "[]", "{}", "5", "null", "{", '{"values": 5}', '{"values": []}', '{"truncation": [1], "values": {}}',
    '{"truncation": "x", "values": {"0": "1"}}', '{"truncation": 0, "values": {"0": "1", "inf": "1"}}',
    '{"truncation": -2, "values": {"0": "1", "inf": "1"}}', '{"truncation": 3, "values": {"0": "1"}}',
    '{"0": 1, "inf": null}', '{"0": "1/0", "inf": "x1"}', '{"0": "F(t1)", "inf": "nser(t1, 2)"}',
    '{"0": "chern(1, 2)", "inf": "rho(t1)"}', '{"0": [1], "inf": {}}',
]
FUZZ_BASES = ["[]", '[{"0": "1", "inf": "1"}]', "{}", "[1]", '[{"values": 3}]', "{", "null"]
FUZZ_EXPRS = [
    "x1", "x1^2+x2", "m1*x1 - 2/3*x2", "x1 +* x2", "1/0", "x9", "t1", "chern(1)", "x1^-1", "(x1",
    "", "x0", "m0*x1", "x1^3*x2", "F(x1, x2)",
]
FUZZ_SPECS = ["universal", "additive", "multiplicative", "multiplicative:2/5", "multiplicative:1/0",
              "multiplicative:x", "multiplicative:", "bogus", "custom"]
FUZZ_CHARS = ["1", "-2", "1,-1", "2,1", "1,1,1", "0", "0,0", "a", "", "1,,2", "2,2"]


@st.composite
def fuzz_argv(draw):
    """(argv, COBORDISM_DEFAULT_DEG) from a small grammar of subcommands, options,
    specs, characters and JSON shapes; each choice list mixes valid and
    malformed values, so calls reach every exit status.

    --deg, --n and --rank stay small: larger values are size questions, not
    parse questions.
    """
    pick = lambda values: str(draw(st.sampled_from(values)))
    maybe = lambda flag, values: [flag, pick(values)] if draw(st.booleans()) else []
    # a required option, left out one time in eight
    need = lambda flag, values: [flag, pick(values)] if draw(st.integers(0, 7)) < 7 else []
    group, sub = draw(st.sampled_from([
        ("fgl", "print"), ("fgl", "nseries"), ("fgl", "acoeff"), ("gkm", "gen"),
        ("gkm", "check"), ("gkm", "integrate"), ("gkm", "expand"), ("gkm", "forget"),
        ("flag", "nf"), ("flag", "rank"), ("flag", "kernel"), ("selftest", None),
        ("fgl", "bogus"), ("bogus", None),
    ]))
    argv = [group] + ([sub] if sub else [])
    if sub == "nseries":
        argv += need("--n", [-3, -1, 0, 1, 2, 3, 2, "x"])
    elif sub == "acoeff":
        argv += need("--i", [-1, 0, 1, 2, 1]) + need("--j", [0, 1, 2, 2])
    elif sub == "gen":
        argv.append(pick(["p1", "pn", "flag", "p1", "bogus"]))
        argv += need("--char", FUZZ_CHARS) + need("--n", [2, 1, 0, -1])
        argv += ["--classes"] if draw(st.booleans()) else []
    elif group == "gkm":
        argv += need("--graph", [P1_JSON, PN2_JSON] * 3 + FUZZ_GRAPHS)
        argv += need("--class", FUZZ_CLASSES[:3] * 3 + FUZZ_CLASSES)
        if sub in ("expand", "forget"):
            argv += need("--basis", FUZZ_BASES[:2] * 3 + FUZZ_BASES)
    elif group == "flag":
        if sub != "rank":
            argv.append(pick(FUZZ_EXPRS[:4] * 3 + FUZZ_EXPRS))
        argv += need("--rank", [-1, 0, 1, 2, 3, 2, 3])
        argv += ["--basis"] if sub == "rank" and draw(st.booleans()) else []
    elif group == "selftest":
        argv += ["--only", pick(["x", "99", "0,-1", "2", "7"])]
    if group != "selftest" and sub != "rank":
        argv += maybe("--deg", [3, 4, 2, 1, 3, 4, 0, -1, "x"])
        argv += maybe("--coeff-deg", [-1, 0, 1, 2, 3, 2, 3])
        argv += maybe("--spec", FUZZ_SPECS[:4] * 2 + FUZZ_SPECS)
    junk = draw(st.sampled_from([None] * 8 + ["--bogus", "extra", "--deg"]))
    if junk:
        argv.append(junk)
    return argv, draw(st.sampled_from([None] * 5 + ["0", "2", "-1", "x"]))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fuzz_argv(), st.sampled_from(["", P1_JSON, "[]", "{"]))
def test_fuzz_argv_exits_cleanly(capsys, case, stdin_text):
    """Every argv exits 0, 1 or 2 and writes only to the streams given to main."""
    argv, env = case
    saved = os.environ.pop("COBORDISM_DEFAULT_DEG", None)
    if env is not None:
        os.environ["COBORDISM_DEFAULT_DEG"] = env
    try:
        code, _, _ = run(argv, stdin_text=stdin_text)
    finally:
        os.environ.pop("COBORDISM_DEFAULT_DEG", None)
        if saved is not None:
            os.environ["COBORDISM_DEFAULT_DEG"] = saved
    assert code in (0, 1, 2)
    assert capsys.readouterr() == ("", "")
