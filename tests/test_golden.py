"""Byte identity: every command of the golden corpus prints what it printed.

The corpus (``tests/golden/cases.json``, written by
``tests/golden/make_golden.py``) holds argv, exact stdout and exit code for
the benchmark's ``cli`` rounds of seeds 1-5, the formal group law outputs
under all four laws, integration, flag kernel, expansion and error cases.
"""

import io
import json
import pathlib
import time

import pytest

from torcob import cli

CASES = json.loads((pathlib.Path(__file__).parent / "golden" / "cases.json").read_text("utf-8"))


def test_golden_corpus_replays_byte_identically(monkeypatch):
    monkeypatch.delenv("COBORDISM_DEFAULT_DEG", raising=False)
    t0 = time.process_time()
    mismatches = []
    for case in CASES:
        out = io.StringIO()
        code = cli.main(list(case["argv"]), stdout=out, stderr=io.StringIO(), stdin=io.StringIO())
        if (code, out.getvalue()) != (case["exit"], case["stdout"]):
            mismatches.append(" ".join(case["argv"])[:200])
    elapsed = time.process_time() - t0
    assert not mismatches, f"{len(mismatches)} of {len(CASES)} cases differ, first: {mismatches[:3]}"
    assert len(CASES) >= 300
    assert elapsed < 10, f"corpus replay took {elapsed:.1f}s of CPU time"


@pytest.mark.parametrize("sub", ["expand", "forget"])
def test_corpus_covers_expansion_under_every_law(sub):
    laws = set()
    for case in CASES:
        argv = case["argv"]
        if argv[:2] == ["gkm", sub] and case["exit"] == 0:
            graph = json.loads(argv[argv.index("--graph") + 1])
            spec = argv[argv.index("--spec") + 1] if "--spec" in argv else "universal"
            laws.add((len(graph["vertices"]), spec))
    for n_vertices in (2, 3):
        for spec in ("universal", "additive", "multiplicative:2/5"):
            assert (n_vertices, spec) in laws
