"""Acceptance gate: every criterion runs at its stated (exact) tolerance.

One test per criterion; each prints its PASS/FAIL line so the gate is
readable in the pytest output (run with -s or check the captured output).
"""

import pytest

from torcob.accept import CRITERIA


@pytest.mark.parametrize("num,slug,fn", CRITERIA, ids=[f"{n:02d}-{s}" for n, s, _ in CRITERIA])
def test_criterion(num, slug, fn):
    ok, detail = fn()
    print(("PASS" if ok else "FAIL") + f" {num:2d} {slug}" + (f": {detail}" if detail else ""))
    assert ok, f"criterion {num} ({slug}): {detail}"


@pytest.mark.parametrize("lie", [True, False])
def test_flag_criterion_compares_each_kernel_answer_with_the_pairing(monkeypatch, lie):
    # kernel_check pairs only its false answers, so the criterion itself
    # must pair every answer; a kernel test that always answers the same fails it
    from torcob import accept

    monkeypatch.setattr(accept, "kernel_check", lambda ctx, n, p: lie)
    ok, detail = accept.criterion_8()
    assert not ok and "routes" in detail
