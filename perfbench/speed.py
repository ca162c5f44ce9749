"""A fixed reference task that measures how fast the machine runs right now.

On a shared host the speed of every Python program drifts together, by up
to 1.7x within minutes, as other tenants come and go (see ``README.md``).
A run times this task between its jobs, outside their timing, about once
every ``EVERY_S`` of run time.  The task calls nothing of the library, so a change to the library
cannot move it.  Each time the benchmark reports is scaled by
``REFERENCE_MS / mean(task times of the run)``: it is the time the same work
takes at the speed where this task takes ``REFERENCE_MS``.

The mean, not the median: from one sample to the next the task takes either
about 2 or about 3.6 ms on the machine the benchmark was tuned on, and a job
pays the average of the slow and fast stretches it runs through.  The median
of such samples jumps between the two modes as their shares shift.
"""

from __future__ import annotations

import gc
import statistics
import time

REFERENCE_MS = 4.0
EVERY_S = 0.1  # one sample per this much run time; about 4% of a run at REFERENCE_MS
BURST = 10  # most samples taken at once, after a long job
_LETTERS, _LENGTH = 4, 5
_EXPECTED = (_LETTERS ** _LENGTH, _LENGTH * (_LETTERS - 1) * _LETTERS ** (_LENGTH - 1))


def reference_task() -> tuple[int, int]:
    """Breadth-first closure of the words of length 5 over 4 letters under
    "raise one letter": tuples, dicts and lists, the kind of work a crystal
    graph build does.  Edges are counted, not kept, so the task adds well
    under 1 MB to the peak RSS the benchmark reports.  Returns the vertex and
    edge counts."""
    start = (0,) * _LENGTH
    level = {start: 0}
    frontier = [start]
    edges = 0
    while frontier:
        following = []
        for word in frontier:
            for i in range(_LENGTH):
                if word[i] < _LETTERS - 1:
                    raised = word[:i] + (word[i] + 1,) + word[i + 1:]
                    edges += 1
                    if raised not in level:
                        level[raised] = level[word] + 1
                        following.append(raised)
        frontier = following
    return len(level), edges


class SpeedProbe:
    """Samples of the reference task's wall time over one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = time.perf_counter()

    def sample(self) -> None:
        # The task makes no cycles.  With the collector off, its time does not
        # depend on how much the run's earlier jobs left on the heap.
        gc.disable()
        try:
            start = time.perf_counter()
            counts = reference_task()
            self._last = time.perf_counter()
        finally:
            gc.enable()
        self.samples.append((self._last - start) * 1000.0)
        if counts != _EXPECTED:
            raise RuntimeError(f"reference task gave {counts}, expected {_EXPECTED}")

    def due(self) -> None:
        """Take one sample for each ``EVERY_S`` since the last one, so a run
        of long jobs gets as many samples as one of short jobs."""
        for _ in range(min(int((time.perf_counter() - self._last) / EVERY_S), BURST)):
            self.sample()

    def mean_ms(self) -> float:
        return statistics.fmean(self.samples)

    def scale(self) -> float:
        """Factor from this run's wall times to times at the reference speed."""
        return REFERENCE_MS / self.mean_ms()
