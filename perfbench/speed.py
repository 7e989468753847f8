"""How fast the machine runs right now, from a fixed pure-Python probe.

On a shared host the same work can take half as long again from one minute
to the next, and every workload slows with the host.  ``probe()`` is a few
milliseconds of fixed work shaped like czfkit's (calls, small tuples, dict
memos, ``isinstance`` checks, frozensets, short strings) that uses nothing
from czfkit, so a change to the library cannot move it.  A run samples it
every ``EVERY_S`` seconds between items and scales each item's time by
``(REF_MS / p) ** SENSITIVITY``, where ``p`` is the median probe time within
``WINDOW_S`` seconds of the item's midpoint: times then read as on a machine
where the probe takes ``REF_MS``.

The probe swings more than the workloads do.  Over 150 s of single items of
each workload interleaved with probes (2-vCPU Xeon VM, Python 3.11), items
sped up by 1.39 to 1.55 times when the probe sped up by 1.60 times, that is
by the probe's speed-up to the power 0.70 to 0.93.  With ``SENSITIVITY``
0.75 and a 0.5 s window, the means of 10 s stretches of each workload's
item times varied by 2 to 3 % (coefficient of variation), against 9 to 10 %
unscaled and 3 to 5 % with the full probe ratio.
"""

from __future__ import annotations

import bisect
import statistics
import time

REF_MS = 3.0      # the probe on a busy 2-vCPU Xeon VM, Python 3.11
SENSITIVITY = 0.75
EVERY_S = 0.1
WINDOW_S = 0.5


class _Pair:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


def _work() -> int:
    memo: dict = {}

    def build(depth: int, k: int):
        key = (depth, k)
        if key in memo:
            return memo[key]
        if depth == 0:
            v = ("leaf", k % 3)
        elif k % 3 == 0:
            v = _Pair(build(depth - 1, k + 1), build(depth - 1, k * 2 % 17))
        else:
            v = ("node", build(depth - 1, k + 2), k)
        memo[key] = v
        return v

    def size(v, seen: dict) -> int:
        if id(v) in seen:
            return seen[id(v)]
        if isinstance(v, _Pair):
            s = 1 + size(v.left, seen) + size(v.right, seen)
        elif v[0] == "node":
            s = 1 + size(v[1], seen)
        else:
            s = 1
        seen[id(v)] = s
        return s

    acc = sum(size(build(12, k), {}) for k in range(40))
    acc += len({frozenset(range(i % 7, i % 7 + 3)) for i in range(100)})
    acc += sum(len(f"{i}:{j}") for i in range(10) for j in range(10))
    return acc


def probe() -> float:
    """Milliseconds of this thread's CPU time one probe takes."""
    t0 = time.thread_time()
    _work()
    return (time.thread_time() - t0) * 1000.0


def _scale(probe_ms: float) -> float:
    return (REF_MS / probe_ms) ** SENSITIVITY


def scale_now(samples: int = 9) -> float:
    """The scale from the median of ``samples`` probes taken now."""
    return _scale(statistics.median(probe() for _ in range(samples)))


class Track:
    """Probe times over a run, by ``time.perf_counter()`` when taken."""

    def __init__(self):
        self.at: list[float] = []
        self.ms: list[float] = []

    def sample(self) -> None:
        self.at.append(time.perf_counter())
        self.ms.append(probe())

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= EVERY_S

    def scale(self, t: float) -> float:
        """The scale from the median probe within WINDOW_S of ``t`` (or
        the nearest probe, when none is that close)."""
        lo = bisect.bisect_left(self.at, t - WINDOW_S)
        hi = bisect.bisect_right(self.at, t + WINDOW_S)
        if lo == hi:
            i = min(range(len(self.at)), key=lambda j: abs(self.at[j] - t))
            lo, hi = i, i + 1
        return _scale(statistics.median(self.ms[lo:hi]))
