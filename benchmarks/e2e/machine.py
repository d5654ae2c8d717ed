"""How fast is this machine right now? A fixed task, timed between passes.

The benchmark runs on shared two-core VMs whose speed drifts: the same
pass of the same commit took 0.47 s and, minutes later, 0.81 s, in bursts
lasting from seconds to a minute, while nothing else ran in the guest.
Medians over the passes of one run cannot remove a burst that covers the
run. So every run also times a fixed CPU task (numpy sorts plus a Python
dict loop, about 13 ms) at the boundaries between passes, and reports its
time metrics in *reference time*: measured time times ``REFERENCE_S``
over the median reading of that phase of the run. On a machine, and at a
moment, where the task takes ``REFERENCE_S``, reference time is wall
time. Measured over 15 s windows on one commit, this took the spread of
the per-window median pass time from 6-18 % to 3-6 %. The task is cache-
and allocator-heavy on purpose: a cache-resident variant tracked the
workloads worse.

The task, its size and ``REFERENCE_S`` are part of the benchmark's
definition: changing any of them rescales every time metric.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

__all__ = ["REFERENCE_S", "MachineSpeed"]

#: Seconds the task takes on the box the bounds were recorded on, quiet.
REFERENCE_S = 0.0125
#: Task runs per reading, and the least seconds between two readings
#: (passes can be much shorter than that).
RUNS_PER_READING = 3
MIN_GAP_S = 0.25

clock = time.perf_counter


class MachineSpeed:
    """Readings of the fixed task over one phase of a run."""

    _keys = np.random.default_rng(0).integers(0, 1 << 40, size=300_000)

    def __init__(self) -> None:
        self.readings: list[float] = []
        self._last = float("-inf")

    @classmethod
    def _task(cls) -> float:
        began = clock()
        np.sort(cls._keys)
        np.sort(cls._keys)
        table = {}
        for index in range(150_000):
            table[index] = index
        return clock() - began

    def sample(self, force: bool = False) -> None:
        """Take a reading, unless the last one is fresh enough."""
        if not force and clock() - self._last < MIN_GAP_S:
            return
        self.readings.extend(self._task() for _ in range(RUNS_PER_READING))
        self._last = clock()

    @property
    def task_s(self) -> float:
        return statistics.median(self.readings)

    @property
    def to_reference(self) -> float:
        """Multiply measured seconds by this to get reference seconds."""
        return REFERENCE_S / self.task_s
