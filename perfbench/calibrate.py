"""Host-speed calibration: a fixed kernel timed beside every pass.

The benchmark's hosts are shared machines whose speed drifts by more than
half within a minute or two, for all interpreted code alike, so raw host
seconds of back-to-back runs of unchanged code spread further than any
useful bound.  The drift is a CPU's own, and fast: on a 2-vCPU VM, over
150 s of back-to-back Fig. 2 cells (0.5-0.9 s each) on one CPU, this
kernel's median time per second swung between 1.7 and 2.6 ms from one
second to the next, and each cell's host seconds spread (IQR / median,
per α) by 0.26-0.39.  Divided by the kernel's median time sampled on the
*other* CPU during the cell, they spread by 0.21-0.31; sampled on the
*same* CPU, during the cell, by 0.11-0.15; on the same CPU but over the
±1.5 s or ±15 s around the cell, by 0.13-0.24 or 0.22-0.35.

So ``run.py`` pins itself and its children to one CPU, and while a
child runs, the parent — which otherwise only waits for it — times one
``_kernel`` call every ``INTERVAL_S`` with a :class:`HostClock`.  Every
interval the child times (a cell, or its set-up) is reported rescaled
to a host on which the kernel takes ``REFERENCE_UNIT_S``:

    reported = host seconds * scale
    scale = REFERENCE_UNIT_S / median time of the kernel samples taken
            during that interval

Both processes stamp their times with ``time.monotonic`` (Linux's
``CLOCK_MONOTONIC``, one clock for every process), which is how the
samples are matched to the child's intervals.

The kernel is the benchmark's own code, never calls repro, and runs in
another process than the program: it shares no heap, garbage collector
or interpreter with it, so a change to the program moves the rescaled
numbers as it moves the raw ones and only the host's speed is divided
out.  Its samples take about 4 % of the CPU the child runs on, on every
commit alike.  It does what the simulator's interpreter time is made of
— method calls on slotted objects and dict updates — over a working set
of a few MB, which the child's own work evicts from the CPU's caches
between two samples whatever the program's size.
"""

from __future__ import annotations

import statistics
import time

__all__ = ["INTERVAL_S", "REFERENCE_UNIT_S", "HostClock"]

#: Kernel time on the reference host: the rescaled unit of speed.
REFERENCE_UNIT_S = 0.002
#: Host seconds between two kernel samples while a pass runs.
INTERVAL_S = 0.05
_NODES = 20000
_KEYS = 40000
_STEPS = 2000
#: Kernel calls made when a clock is built, so that its first samples
#: do not pay for touching its tables' fresh memory.
_WARMUP = 20
#: Fewest samples a scale is taken from; an interval with fewer borrows
#: the samples nearest to it.
_MIN_SAMPLES = 5


class _Node:
    __slots__ = ("rate", "load")

    def __init__(self):
        self.rate = 1.0
        self.load = 0.0

    def bump(self, x: float) -> float:
        self.load += x * self.rate
        return self.load


class HostClock:
    """Samples the host's speed, one kernel call per :meth:`tick`."""

    def __init__(self):
        self._nodes = [_Node() for _ in range(_NODES)]
        self._table = dict.fromkeys(range(_KEYS), 0.0)
        self._step = 0
        for _ in range(_WARMUP):
            self._kernel()
        #: ``(time.monotonic() at its middle, host seconds)`` of each
        #: kernel call so far, in time order.
        self.samples: list[tuple[float, float]] = []

    def _kernel(self) -> None:
        nodes, table = self._nodes, self._table
        start = self._step
        for i in range(start, start + _STEPS):
            v = nodes[(i * 7919) % _NODES].bump(0.5)
            k = (i * 104729) % _KEYS
            table[k] = table[k] * 0.5 + v
        self._step = start + _STEPS

    def tick(self) -> None:
        t = time.monotonic()
        self._kernel()
        d = time.monotonic() - t
        self.samples.append((t + d / 2, d))

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_UNIT_S`` over the median time of the kernel samples
        taken between the ``time.monotonic`` readings *start* and *end*."""
        while len(self.samples) < _MIN_SAMPLES:
            self.tick()
        times = [d for t, d in self.samples if start <= t <= end]
        if len(times) < _MIN_SAMPLES:
            middle = (start + end) / 2
            times = [d for _, d in sorted(
                self.samples, key=lambda s: abs(s[0] - middle),
            )[:_MIN_SAMPLES]]
        return REFERENCE_UNIT_S / statistics.median(times)
