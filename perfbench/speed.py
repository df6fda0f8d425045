"""Machine-speed sampling for the untraced timings.

The benchmark runs on a few cores of a shared host, whose speed swings by
tens of per cent within seconds as other tenants load it; the operation
itself does not change.  Timing the operation alone mixes those swings into
every figure.  So while an untraced operation runs, a timer signal interrupts
it every INTERVAL_S and runs a fixed probe, code that does not depend on the
library.  The probe's mean duration over the operation measures how fast the
machine was while the operation ran, and

    run_s = work_s * reference / mean probe duration

is the operation's time at the reference speed, where work_s is the
operation's wall time minus the time spent in the probes.

Contention slows interpreter-bound and numpy-bound code by different amounts,
so each workload names the probe parts that match its own mix (PROBES; set-up
time, mostly imports, has its own):

    dict     lookups in a small dictionary
    gather   small numpy masks and gathers from a 4 MB uint8 array
    recurse  a memoised recursive win/lose search over tuple positions

The reference is the sum of the parts' typical durations (REFERENCE_S) on the
machine the benchmark was tuned on (Intel Xeon, 2 vCPUs, Python 3.11.7,
numpy 2.4.6), measured between operations; inside one, the probes run about
15 % slower, and run_s reads that much below wall-clock time there.  Each
operation's record keeps its raw wall time, probe count and mean probe
duration beside run_s.  The probe costs 5-10 % of the operation.  Traced runs
do not sample: their spans would otherwise carry probe time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.025
REFERENCE_S = {"dict": 0.30e-3, "gather": 0.80e-3, "recurse": 0.80e-3}
PROBES = {
    "gasket": ("dict", "gather"),
    "ca-verify": ("dict", "gather"),
    "oracle": ("dict", "recurse"),
    "setup": ("dict", "gather"),
}

_KEYS = tuple(range(0, 4096, 7))
_TABLE = {k: k & 15 for k in _KEYS}
_MOVES = ((1, 0), (0, 1), (2, 1), (1, 3))

_spent = 0.0  # probe time inside the active Sampler's block


def work_clock() -> float:
    """perf_counter minus the probe time spent inside the active block, so
    stage timers read work time only; plain perf_counter when none is active."""
    return time.perf_counter() - _spent


def reference(parts) -> float:
    """Probe duration of these parts at the reference speed."""
    return sum(REFERENCE_S[p] for p in parts)


def _dict():
    t = 0
    for _ in range(10):
        for k in _KEYS:
            t += _TABLE[k]
    return t


def _recurse():
    memo = {}

    def wins(p):
        v = memo.get(p)
        if v is None:
            v = False
            for m in _MOVES:
                q = (p[0] - m[0], p[1] - m[1])
                if q[0] >= 0 and q[1] >= 0 and not wins(q):
                    v = True
                    break
            memo[p] = v
        return v

    return sum(wins((x, y)) for x in range(24) for y in range(24))


class Sampler:
    """Context manager that probes machine speed while its block runs."""

    def __init__(self, parts):
        self.parts = parts
        self.reference_s = reference(parts)
        rng = np.random.default_rng(0)
        self._big = rng.integers(0, 3, size=1 << 22, dtype=np.uint8)
        self._idx = rng.integers(0, 1 << 22, size=2048)
        self._small = rng.integers(0, 50, size=(2048, 3))
        self.samples: list[float] = []

    def _gather(self):
        t = 0
        for _ in range(10):
            legal = (self._small >= 7).all(axis=1)
            q = np.where(legal, self._idx, 0)
            t += int(np.count_nonzero(self._big[q] == 1))
        return t

    def probe(self) -> float:
        t0 = time.perf_counter()
        for part in self.parts:
            if part == "dict":
                _dict()
            elif part == "gather":
                self._gather()
            else:
                _recurse()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def factor(self, samples=None) -> float:
        """Reference over the mean probe time (of the last block by default)."""
        return self.reference_s / statistics.fmean(samples or self.samples)

    def _on_alarm(self, signum, frame):
        global _spent
        _spent += self.probe()

    def __enter__(self):
        global _spent
        self.samples = []
        self.probe()  # one sample on each side, outside the block's timing
        _spent = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()
        return False
