"""A fixed reference kernel, sampled while draws run, that tracks how fast
the host is running right now.

The benchmark shares a few cores of a busy host, and the host's speed for
pure-Python code swings by half or more from one second to the next and
from one minute to the next (measured: the same simulation draw took 0.62 s
to 1.71 s within a minute, on the CPU clock as on the wall clock, so the
time is lost to a slower CPU and not to waiting for one).  So while a draw
runs, a timer signal interrupts it every ``SAMPLE_INTERVAL_S`` and times a
short run of this kernel, which lives here and not in ``src/``, so no change
to the simulator can move it: a small discrete-event loop doing what the
simulator's hot paths do (heap pushes and pops, dict inserts and deletes,
sorting short lists of slotted objects by a key).  A draw's host times,
less the time the samples took, are then scaled to the reference host by
``REFERENCE_SAMPLE_S`` over the mean sample time during the draw, raised to
``SENSITIVITY``.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import signal
import statistics
import time
from typing import List

#: Items one sample pushes through the kernel.
SAMPLE_ITEMS = 100
#: The sample's time on the reference host, an idle 2-core Intel Xeon
#: virtual machine: the lowest of 3000 samples run back to back.  Scaled
#: host figures read as if every draw had run on a host that fast; samples
#: taken from the timer, with the simulator's data in the caches, take
#: longer, so the scaled figures run above the unscaled ones even on an
#: idle host.
REFERENCE_SAMPLE_S = 0.00073
#: Wall time between samples; a sample takes about 2% of it.
SAMPLE_INTERVAL_S = 0.05
#: How much faster than the kernel's the simulator's time grows as the
#: host slows, on log scales.  Over 40 runs of this benchmark (seeds 1-10 of
#: each workload, twenty minutes on a shared 2-core Xeon host) a run's
#: time per event followed its mean sample time with slopes of 1.2 to 1.4
#: and correlations of 0.89 to 0.99; at 1.25 every workload's spread
#: between seeds was smaller than or within 0.013 of the spread at 1.
SENSITIVITY = 1.25

clock = time.perf_counter


class _Item:
    __slots__ = ("key", "size", "left")

    def __init__(self, key: str, size: float) -> None:
        self.key = key
        self.size = size
        self.left = size


def _kernel(items: int) -> float:
    heap: list = []
    live = {}
    now = acc = 0.0
    state = 12345
    for seq in range(items):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        item = _Item(f"j{seq}", 1.0 + (state % 1000) / 100.0)
        live[item.key] = item
        heapq.heappush(heap, (now + item.size, seq, item.key))
        if len(live) > 40:
            now, _, key = heapq.heappop(heap)
            del live[key]
            for other in sorted(live.values(), key=lambda job: (job.left, job.key))[:8]:
                other.left = max(0.0, other.left - 0.01)
                acc += other.left
    return acc


def to_reference(sample_s: float) -> float:
    """Factor that turns host time, taken while samples took ``sample_s``
    on average, into reference-host time."""
    return (REFERENCE_SAMPLE_S / sample_s) ** SENSITIVITY


def sample_seconds() -> float:
    """Host time of one kernel sample, with the collector off so that the
    simulator's heap cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = clock()
        _kernel(SAMPLE_ITEMS)
        return clock() - started
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Samples the kernel from a ``SIGALRM`` handler while entered.

    Samples are kept in time order as ``(start, duration)``; the queries
    below answer for any interval of the ``clock`` while sampling.
    """

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._previous = None

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        started = clock()
        self.durations.append(sample_seconds())
        self.starts.append(started)

    def _between(self, start: float, end: float) -> List[float]:
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return self.durations[lo:hi]

    def spent(self, start: float, end: float) -> float:
        """Time the samples that started in ``[start, end)`` took."""
        return sum(self._between(start, end))

    def sample_s(self, start: float, end: float) -> float:
        """Mean sample time in ``[start, end)``, or over all samples
        so far if no sample fell inside."""
        inside = self._between(start, end)
        return statistics.fmean(inside or self.durations or [sample_seconds()])
