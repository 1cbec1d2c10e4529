"""Machine-speed probe: a fixed kernel, timed between the program's calls.

The speed of this machine changes by up to 1.7x within a minute (other
tenants share its cores): one workload pass on fixed inputs took from 1.5 s
to 2.6 s in the same process, and a probe run between the passes followed
it (correlation 0.74).  ``Clock`` scales each call's wall time by
REFERENCE_S / (the probe's time around that call), which reports times at
the speed the probe had when REFERENCE_S was fixed.  Every call is probed,
so every call starts after a probe and none finds warmer caches than
another.  The kernel does what the program does most: heap-driven searches
over tuples and dicts, and small numpy mask reductions.  It uses no code of
the program, so a change to the program cannot change the scale.
"""

from __future__ import annotations

import heapq
import random
import time

import numpy as np

REFERENCE_S = 0.020  # the kernel's time on a quiet 2-core machine, Python 3.11.7

_rng = random.Random(7)
_ADJ = [tuple((_rng.randrange(400), _rng.randint(1, 9)) for _ in range(4)) for _ in range(400)]
_A = np.arange(3000)
_B = _A % 7


def kernel() -> int:
    total = 0
    for s in range(0, len(_ADJ), 16):
        dist = {s: 0}
        heap = [(0, s)]
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            for w, c in _ADJ[v]:
                nd = d + c
                if nd < dist.get(w, 1 << 30):
                    dist[w] = nd
                    heapq.heappush(heap, (nd, w))
        total += len(dist)
    for t in range(150):
        total += int(((_B < 3) & (_A > t)).sum())
    return total


def probe() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Clock:
    """Times calls, probing before the first call and after each one, and
    scales each call by the mean of the probes on either side of it.
    ``scaled`` and ``wall`` hold (tag, seconds) per call."""

    def __init__(self) -> None:
        self.scaled: list[tuple[str, float]] = []
        self.wall: list[tuple[str, float]] = []
        self._before = probe()

    def call(self, tag: str, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        dt = time.perf_counter() - t0
        after = probe()
        self.scaled.append((tag, dt * REFERENCE_S / ((self._before + after) / 2)))
        self.wall.append((tag, dt))
        self._before = after
        return result
