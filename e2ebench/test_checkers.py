"""The benchmark's own tests: every checker passes the program's answer and
fails a perturbed one; the tracer leaves torcob as it found it.

    python3 -m pytest e2ebench -q

(run from the repository root; torcob is imported from ``src/``).
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import wl_cli  # noqa: E402
import wl_integrate  # noqa: E402
import wl_membership  # noqa: E402


def plain_step(name, fn):
    return fn()


def answered(workload, seed=1):
    """(op, the program's answer) for every op of one round."""
    ops = workload.setup(seed, plain_step)
    return [(op, op.run()) for op in ops]


def test_integrate_checker_rejects_perturbed_answers():
    from torcob.coeff import GradedCoeff

    for op, result in answered(wl_integrate):
        assert run._verdict(op, result) is None, op.label
        for wrong in (result + GradedCoeff.one(), result + GradedCoeff.generator(1),
                      result.scale(2) if not result.is_zero() else GradedCoeff.one()):
            assert run._verdict(op, wrong) == "wrong answer", op.label


def test_membership_checker_rejects_perturbed_answers():
    for op, (in_product, in_intersection) in answered(wl_membership):
        assert run._verdict(op, (in_product, in_intersection)) is None, op.label
        assert run._verdict(op, (not in_product, in_intersection)) == "wrong answer"
        assert run._verdict(op, (in_product, not in_intersection)) == "wrong answer"


def perturbed_outputs(out):
    """Wrong variants of a command's stdout, each changing what it says."""
    lines = out.rstrip("\n").split("\n")
    last = lines[-1]
    variants = []
    if last in ("true", "false"):
        variants.append(lines[:-1] + ["false" if last == "true" else "true"])
    elif last.startswith("["):
        values = json.loads(last)
        variants.append(lines[:-1] + [json.dumps([values[0] + " + 1"] + values[1:])])
    elif last.startswith("{"):
        classes = json.loads(last)
        name = sorted(classes)[0]
        vertex = sorted(classes[name]["values"])[0]
        classes[name]["values"][vertex] += " + t1"
        variants.append(lines[:-1] + [json.dumps(classes)])
        graph = json.loads(lines[0])
        graph["edges"][0]["char"][0] += 1
        variants.append([json.dumps(graph)] + lines[1:])
    else:
        variants.append(lines[:-1] + [last + " + 1"])
        variants.append(lines[:-1] + [last + " + m1"])
    if lines[0].startswith("# deg"):
        variants.append(lines[1:])
    return ["\n".join(v) + "\n" for v in variants]


def test_cli_checkers_reject_perturbed_answers():
    for op, (code, out, err) in answered(wl_cli):
        assert run._verdict(op, (code, out, err)) is None, op.label
        assert run._verdict(op, (1, out, "error")) is not None, op.label
        for wrong in perturbed_outputs(out):
            assert run._verdict(op, (code, wrong, err)) is not None, (op.label, wrong)


def test_cli_mix_is_the_same_for_every_seed():
    mixes = [sorted(tuple(argv[:2]) for argv, _ in wl_cli.commands(seed)) for seed in (1, 2)]
    assert mixes[0] == mixes[1]


def test_membership_instances_share_their_structure_across_seeds():
    def structure(seed):
        return [(rank, factors, kind) for rank, factors, kind, _ in wl_membership.instances(seed)]

    assert structure(1) == structure(2)
    assert wl_membership.instances(1) != wl_membership.instances(2)


def test_oracle_parser_reads_rendered_polynomials():
    p = oracle.parse_poly("-2/3*m1*x1^2 + (4*m1^2 - 3*m2)*u^2*v - 5")
    assert oracle.parse_poly(oracle.render(p)) == p
    assert p[(("m1", 1), ("x1", 2))] == oracle.Fraction(-2, 3)


def test_tracer_restores_every_attribute():
    targets = spans.targets()
    before = [[owner.__dict__[attr] for owner in owners] for owners, attr, _, _ in targets]
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    after = [[owner.__dict__[attr] for owner in owners] for owners, attr, _, _ in targets]
    assert before == after


def test_benchmark_json_lists_what_the_runs_print():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert declared == run.per_layer_metrics()
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOADS)


def test_tail_percentile_leaves_ten_beyond():
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(40) == 75
    values = list(range(1, 101))
    assert run.nearest_rank(values, 90) == 90
    with pytest.raises(ValueError):
        run.tail_percentile(10)
