"""Measurement helpers shared by the workloads and the layer probes.

Timings are collected as lists of seconds and summarised here, so every
workload reports its median and tail the same way, and normalises them to
host speed the same way.
"""

from __future__ import annotations

import resource
import statistics
import time
from typing import Callable, Sequence

import numpy as np

TAIL_BEYOND = 10
"""Samples that must lie above the reported tail percentile."""

now = time.perf_counter


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile that still has
    :data:`TAIL_BEYOND` samples above it.

    With ``n`` samples that is the order statistic of rank ``n - 10``
    (1-based), i.e. percentile ``100 * (n - 10) / n``.  A sample too short
    to leave ten beyond any percentile has no such tail and raises
    :class:`ValueError`, so a run that timed too few ops fails instead of
    reporting a tail that rests on fewer samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples leave fewer than {TAIL_BEYOND} "
                         f"beyond any percentile; run for longer")
    return float(ordered[n - TAIL_BEYOND - 1]), 100.0 * (n - TAIL_BEYOND) / n


REFERENCE_MS = 20.0
"""Scale of the normalised timings: the reference kernel's typical wall
time on the 2-vCPU Xeon KVM guest the bounds were set on [ms]."""


class ReferenceKernel:
    """A fixed NumPy workload timed beside every op to track host speed.

    On a shared host the CPU's speed drifts by up to 2x over seconds to
    minutes (neighbours contending for cache and memory bandwidth).  Thread
    CPU time drifts with it — the time is spent on the CPU, not stolen — so
    CPU-time clocks do not remove it.  This kernel resembles the
    beamforming inner loop — a random gather from a frame-sized float64
    buffer, a weight multiply and a reduction — and uses no code of the
    program.  Timing it right before each op and scaling the op by
    ``REFERENCE_MS / kernel time`` cuts the run-to-run spread two- to
    four-fold: an op that costs the program more still reads higher, a
    slower host much less so.  Its inputs are fixed (not drawn from the workload
    seed), so its own cost is the same on every run and every commit.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._buffer = rng.standard_normal(1601 * 256)
        self._index = rng.integers(0, self._buffer.size, size=1 << 21)
        self._weights = rng.standard_normal(1 << 21)

    def __call__(self) -> float:
        """Wall seconds of one pass of the kernel."""
        start = now()
        float((self._buffer[self._index] * self._weights).sum())
        return now() - start


def normalised(op_s: Sequence[float], ref_s: Sequence[float]) -> list[float]:
    """Each op's wall time rescaled to the reference host speed [s]."""
    scale = REFERENCE_MS / 1e3
    return [op * scale / ref for op, ref in zip(op_s, ref_s, strict=True)]


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far [MB]."""
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def timed(fn: Callable[[], object], repeats: int,
          fresh: Callable[[], object] | None = None) -> tuple[float, object]:
    """Median wall seconds of ``repeats`` calls, plus the last result.

    With ``fresh`` given, each call receives a freshly built argument
    (built outside the timed region), so a memo filled by one timed call
    cannot hide cost from the next.
    """
    samples = []
    result = None
    for _ in range(repeats):
        arg = fresh() if fresh is not None else None
        start = now()
        result = fn(arg) if fresh is not None else fn()
        samples.append(now() - start)
    return median(samples), result
