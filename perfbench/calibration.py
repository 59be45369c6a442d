"""Host-time calibration: a fixed loop interleaved with the workload.

Raw host seconds move with the machine and with whatever else shares it:
on a shared 2-vCPU VM one loop's speed drifts by a factor of up to two
over seconds.  The benchmark therefore splits every timed repetition
into segments of a few tens of milliseconds (the workload calls
:meth:`HostTimer.tick` at its own natural boundaries: every few storm
iterations, every sparklite stage, every few served requests) and, at
each boundary, runs a fixed calibration loop for about a tenth of the
segment's duration.  The loop thereby samples the machine over the same
stretch of time as the workload, and the timed span converts into
*calibrated* seconds::

    calibrated = raw * REFERENCE_UNIT_S / mean_unit_s

where ``mean_unit_s`` is the loop's mean time per unit over the span.
On the reference machine calibrated and raw seconds agree on average; on
a machine twice as fast both halve and the calibrated figure stays put.
Calibration time itself is never part of the raw seconds.

The loop is a small mix of the work the simulator's host time goes to:
dict updates keyed by small ints, float arithmetic, method calls, tuple
allocation, heap pushes and small NumPy vector ops.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

#: Mean seconds of one calibration unit on the reference machine (2 vCPU
#: x86-64 VM, CPython 3.11, NumPy with one BLAS thread).
REFERENCE_UNIT_S = 8.0e-4

#: Calibration time at each boundary, as a share of the segment before it.
CALIBRATION_SHARE = 0.1

#: Calibration units run when a timer starts.
START_UNITS = 4


class _Acc:
    __slots__ = ("total",)

    def __init__(self):
        self.total = 0.0

    def add(self, value):
        self.total += value


def calibration_unit():
    """One fixed unit of simulator-like host work; returns a checksum."""
    table = {}
    heap = []
    acc = _Acc()
    for i in range(1200):
        key = (i * 7919) & 511
        table[key] = table.get(key, 0.0) + i * 0.5
        acc.add((i % 13) * 1.5)
        if i & 7 == 0:
            heapq.heappush(heap, (acc.total, i))
    vec = np.arange(64.0)
    for _ in range(60):
        vec = vec * 0.5 + 1.0
        acc.add(float(vec[3]))
    return acc.total + len(table) + len(heap)


class HostTimer:
    """Accumulates raw host seconds of timed segments, with calibration.

    ``start()`` opens a segment, ``tick()`` closes it, calibrates and opens
    the next, ``stop()`` closes the last one.  ``calibrated(raw)`` converts
    raw seconds measured under this timer.
    """

    def __init__(self):
        self.raw_s = 0.0
        self.unit_s = 0.0
        self.units = 0
        self._last_unit = REFERENCE_UNIT_S
        self._mark = None
        self._calibrate(START_UNITS)

    def _calibrate(self, n):
        started = time.perf_counter()
        for _ in range(n):
            calibration_unit()
        elapsed = time.perf_counter() - started
        self.unit_s += elapsed
        self.units += n
        self._last_unit = elapsed / n

    def _close(self):
        segment = time.perf_counter() - self._mark
        self.raw_s += segment
        self._calibrate(max(1, round(CALIBRATION_SHARE * segment
                                     / self._last_unit)))

    def start(self):
        self._mark = time.perf_counter()

    def tick(self):
        self._close()
        self._mark = time.perf_counter()

    def stop(self):
        self._close()
        self._mark = None

    def calibrated(self, raw_s):
        """*raw_s* host seconds measured under this timer, calibrated."""
        return raw_s * REFERENCE_UNIT_S * self.units / self.unit_s
