"""Host-speed calibration: a fixed kernel timed between the timed blocks.

The shared VM this benchmark runs on changes speed by up to 1.7x: it
switches between a fast and a slow state every few seconds to tens of
seconds, and over minutes of back-to-back runs it spends more and more
time in the slow one.  Ten 50-second runs of the same ``fig7_pf`` code
spread by 36% of their median, so a longer run or a median does not
remove it.  A run therefore also times this kernel, about once a
second between blocks, and reports throughput scaled by the *host
factor*: the kernel's mean time over the run divided by
:data:`REFERENCE_S`.  The mean, not the median, because the kernel's
times are bimodal like the host and the run's throughput is a time
average over both states.

The kernel imports nothing from ``src``, so no change to the program
moves it.  Like the program's host time it is part random memory access
over a few megabytes (pointer chasing through a shuffled ring, as the
simulator walks its object graph) and part heap and dict work on small
objects (the discrete-event queue); the heap and dict part alone slowed
about twice as much as the program between the host's states.  It runs
with the garbage collector off, so the program's live objects cannot
charge it for a collection, and its ring is one list of ints, a single
container for the collector to visit.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

#: seconds between samples; each sample takes about 8 ms, so calibration
#: costs under 1% of a run
INTERVAL_S = 1.0
#: the kernel's mean time in seconds on the 2-vCPU VM the benchmark was
#: tuned on; it sets the scale only: a run on a host at this speed
#: reports its raw throughput
REFERENCE_S = 0.0080

_RING_SIZE = 100_000
_STEPS = 20_000
_QUEUE_OPS = 5_000


def _make_ring():
    order = list(range(_RING_SIZE))
    random.Random(20080101).shuffle(order)
    ring = [0] * _RING_SIZE
    for here, there in zip(order, order[1:] + order[:1]):
        ring[here] = there
    return ring


def _kernel(ring) -> int:
    at = total = 0
    for _ in range(_STEPS):
        at = ring[at]
        total += at
    heap = []
    table = {}
    for i in range(_QUEUE_OPS):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + i
        heapq.heappush(heap, (key, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return total


class HostClock:
    """Samples the kernel at most once per :data:`INTERVAL_S`."""

    def __init__(self) -> None:
        self.samples = []
        self._last = None
        # built here, not at import: the set-up interpreters import this
        # module too, and their time is set-up time
        self._ring = _make_ring()

    def sample(self, force: bool = False) -> None:
        """Time the kernel if ``force`` or the interval has passed."""
        now = time.perf_counter()
        if not force and self._last is not None and now - self._last < INTERVAL_S:
            return
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _kernel(self._ring)
            self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self._last = time.perf_counter()

    def factor(self) -> float:
        """Mean kernel time over the reference (> 1: a slower host)."""
        return sum(self.samples) / len(self.samples) / REFERENCE_S
