"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys

import pytest

from torcob import cli

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
