"""Machine-speed calibration: a fixed pure-Python kernel timed between
operations.

The benchmark shares a small machine with other tenants.  Their load slows
everything a run does alike: pipelines, replay steps, CLI processes and
set-up all read 20-40% slow for minutes at a time, then fast again.  A run
therefore also times this kernel, which does the same work in every run and
on every commit (it uses no package code): constructing and hashing frozen
dataclasses, hashing frozensets of them, counting in a dict and sorting by
string, the operations the package's hot paths are made of.

The kernel is sampled in proportion to the run's elapsed time, between
operations, with the garbage collector off so that the size of the run's
own heap does not matter.  Operation times are multiplied by
``(NOMINAL_S / mean kernel time) ** ELASTICITY``: about the time the run
would have taken at the speed where the kernel takes ``NOMINAL_S``.  The
mean, not the median, because short samples land on either side of a
neighbour's bursts and the operations average over both.  The elasticity is
below 1 because the kernel, a tight loop over a small heap, speeds up and
slows down more than the operations do.  Over four ten-run checks of all
workloads, the slope of log operation time on log kernel time was 0.5-1.2,
0.8 on average.  Of the exponents 0.5, 0.6, 0.75, 0.9 and 1, 0.75 gave the
smallest summed spread of the operation metrics in each of the four.

Short spans timed on their own (a set-up, a CLI process) run between two
samples and are scaled by the full factor of those two alone: the speed at
that moment fits them better than the run's mean does.
"""
from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass

NOMINAL_S = 0.040  # about the kernel's mean on a quiet 2-CPU x86-64 VM, Python 3.11
INTERVAL_S = 0.4   # one sample per this much run time: about 10% extra time
MAX_BATCH = 25
ELASTICITY = 0.75


@dataclass(frozen=True)
class _Item:
    name: str
    label: int


def kernel(n: int = 5000) -> int:
    items = [_Item(f"s{i % 997}", i % 13) for i in range(n)]
    seen: dict[frozenset, int] = {}
    for i, item in enumerate(items):
        key = frozenset((item, items[(i * 7) % n]))
        seen[key] = seen.get(key, 0) + 1
    return len(sorted(seen, key=lambda k: sorted(str(m) for m in k)))


class Calibrator:
    def __init__(self):
        self.samples: list[float] = []
        self._last = time.perf_counter()

    def sample(self, count: int = 1) -> None:
        gc.disable()
        try:
            for _ in range(count):
                start = time.perf_counter()
                kernel()
                self.samples.append(time.perf_counter() - start)
        finally:
            gc.enable()
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Between operations: sample in proportion to the time since the
        last sample, so that every stretch of the run is represented."""
        due = int((time.perf_counter() - self._last) / INTERVAL_S)
        if due:
            self.sample(min(due, MAX_BATCH))

    def around(self, fn, *args):
        """``fn(*args)`` between two kernel samples; returns its result and
        the speed factor of those two samples alone."""
        self.sample()
        result = fn(*args)
        self.sample()
        return result, 2 * NOMINAL_S / (self.samples[-2] + self.samples[-1])

    @property
    def factor(self) -> float:
        """The run's factor for operation times."""
        return (NOMINAL_S / statistics.fmean(self.samples)) ** ELASTICITY
