"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from torcob import cli, fgl, flag, gkm

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
    """Make every law build, kernel check, flag graph and coinvariant rank
    fail, so a guard must fire first."""

    def boom(*args, **kwargs):
        raise AssertionError("a guarded command started its work")

    monkeypatch.setattr(fgl.FGLContext, "__init__", boom)
    monkeypatch.setattr(flag, "kernel_check", boom)
    monkeypatch.setattr(gkm, "flag_graph", boom)
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
    ],
    ids=["fgl-print", "fgl-nseries", "env-default", "integrate-env", "gen-classes", "kernel-rank-12",
         "kernel-rank-limit", "coinv-rank-12", "coinv-rank-limit", "flag-graph-limit",
         "flag-graph-classes"],
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


def test_flag_kernel_below_artin_degree():
    # the pairing needs truncation 4 at rank 3 and gets it internally; a
    # polynomial above --deg is still refused
    code, out, _ = run(["flag", "kernel", "x1", "--rank", "3", "--deg", "2"])
    assert code == 0 and out == "false\n"
    code, out, _ = run(["flag", "kernel", "x1^2*x2 - x1*x2^2", "--rank", "3", "--deg", "2"])
    assert code == 1 and out == ""


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


def test_gen_invalid_graph_rejected():
    bad = '{"rank": 1, "dim": 1, "vertices": ["a", "b"], "edges": [{"v": "a", "w": "b", "char": [0]}]}'
    code, _, err = run(["gkm", "check", "--graph", bad, "--class", '{"a":"1","b":"1"}', "--deg", "4"])
    assert code == 1 and "GraphInvalid" in err


def test_parse_error_exit_two():
    code, _, err = run(["flag", "nf", "x1 +* x2", "--rank", "2"])
    assert code == 2 and "column 4" in err


def test_usage_error_exit_two():
    code, _, _ = run(["gkm", "gen", "p1"])  # missing --char
    assert code == 2
    code, _, _ = run(["fgl", "bogus"])
    assert code == 2
    code, _, err = run(
        ["gkm", "check", "--graph", P1_JSON, "--class", '{"0":"t2","inf":"0"}', "--deg", "4"]
    )
    assert code == 2 and "usage error" in err


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


@settings(max_examples=200, deadline=None)
@given(fuzz_argv(), st.sampled_from(["", P1_JSON, "[]", "{"]))
def test_fuzz_argv_exits_cleanly(case, stdin_text):
    argv, env = case
    saved = os.environ.pop("COBORDISM_DEFAULT_DEG", None)
    if env is not None:
        os.environ["COBORDISM_DEFAULT_DEG"] = env
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            code, _, _ = run(argv, stdin_text=stdin_text)
    finally:
        os.environ.pop("COBORDISM_DEFAULT_DEG", None)
        if saved is not None:
            os.environ["COBORDISM_DEFAULT_DEG"] = saved
    assert code in (0, 1, 2)
