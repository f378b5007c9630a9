"""Speed-corrected timing.

The machine's speed drifts from one moment to the next, so every timed piece
of work is bracketed by a fixed reference computation, and its wall time is
rescaled to the reference's nominal time:

    corrected = wall * NOMINAL_REF_S / mean(reference readings)

The readings are one right before and one right after the work, plus, for
work longer than SAMPLE_INTERVAL_S, one every interval during it (taken by a
SIGALRM handler, their time excluded from the work's).  A corrected time
therefore reads as seconds at the machine's full speed.  The reference is
pure-Python Fraction/dict arithmetic, the same instruction mix as torcob's
exact kernels, and imports nothing from torcob.  Garbage is collected before
the work and before each reference run, outside the timers.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# Time of one reference() call at full speed on a 2-core x86-64 VM with
# Python 3.11 (the fastest readings observed there).  A constant, so that
# corrected times from different runs and commits are comparable.
NOMINAL_REF_S = 0.0100
# Period of the extra reference readings taken inside long work.
SAMPLE_INTERVAL_S = 0.25


def reference() -> int:
    """Fixed ~10 ms of exact sparse arithmetic: a truncated bivariate product."""
    a = {}
    b = {}
    for i in range(12):
        for j in range(12 - i):
            a[(i, j)] = Fraction(i + 2 * j + 1, j + 3)
            b[(j, i)] = Fraction(3 * i - j + 1, i + 2)
    out = {}
    for ka, qa in a.items():
        for kb, qb in b.items():
            k = (ka[0] + kb[0], ka[1] + kb[1])
            if k[0] + k[1] > 14:
                continue
            out[k] = out.get(k, 0) + qa * qb
    return len(out)


def timed_reference() -> float:
    gc.collect()
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


class Timed:
    """Wall time of one piece of work with the reference readings around it."""

    __slots__ = ("wall", "readings")

    def __init__(self, wall, readings):
        self.wall = wall
        self.readings = readings

    @property
    def factor(self) -> float:
        """Multiplier from this moment's wall seconds to full-speed seconds."""
        return NOMINAL_REF_S / (sum(self.readings) / len(self.readings))

    @property
    def corrected(self) -> float:
        return self.wall * self.factor


class _Sampler:
    """SIGALRM handler: a reference reading in the middle of long work."""

    def __init__(self):
        self.readings = []
        self.paused = 0.0

    def __call__(self, signum, frame):
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.readings.append(t1 - t0)
        self.paused += time.perf_counter() - t0


def run_timed(fn, sample=True):
    """(result or exception, Timed) for fn(), bracketed by reference runs.

    With ``sample``, work that lasts longer than SAMPLE_INTERVAL_S is also
    interrupted every interval for a reference reading, whose time is taken
    out of the work's wall time: the machine's speed can change in the
    middle of a long call, and readings from before and after alone miss it.
    """
    before = timed_reference()
    sampler = _Sampler()
    gc.collect()
    if sample:
        previous = signal.signal(signal.SIGALRM, sampler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # the op failed; the caller counts it
        result = exc
    finally:
        if sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0 - sampler.paused
        if sample:
            signal.signal(signal.SIGALRM, previous)
    after = timed_reference()
    return result, Timed(wall, [before] + sampler.readings + [after])
