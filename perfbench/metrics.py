"""Statistics, the host reference clock and the metric-name rule of the benchmark.

Every timing the benchmark reports is *host-normalized*: a wall-clock
duration multiplied by ``REF_NOMINAL_MS / local reference``, where the local
reference is the median time of a fixed NumPy computation
(:class:`HostReference`) sampled within 0.3 s of the measured interval.
On a shared 2-CPU host the same deterministic solve ran anywhere between
1x and 1.9x its fastest time, in waves
of a few seconds; that fixed computation slows down with the program, so
the ratio is far steadier than the raw wall time (see
``perfbench/README.md`` for the measured spreads).  Raw medians are
printed beside the normalized ones.
"""

from __future__ import annotations

import bisect
import re
import resource
import statistics
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

#: Reference time the normalized timings are expressed at, in milliseconds
#: (about the reference's median time on a 2-CPU Xeon host, so normalized
#: timings there read close to raw ones).
REF_NOMINAL_MS = 1.6

#: Reference samples within this many seconds of an interval's midpoint set its scale.
REF_WINDOW_S = 0.3

#: Least time between two reference samples taken between ops.
REF_INTERVAL_S = 0.1

#: Metric names: a letter or digit, then letters, digits, ``_``, ``.`` and ``-``.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name: str) -> bool:
    """Whether ``name`` is a legal metric (or workload) name."""
    return METRIC_NAME.fullmatch(name) is not None


def median(values: Sequence[float]) -> float:
    """Median of ``values`` (0.0 for an empty sequence)."""
    return float(statistics.median(values)) if len(values) else 0.0


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean of ``values`` (0.0 for an empty sequence)."""
    return float(statistics.fmean(values)) if len(values) else 0.0


def tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(percentile, value)`` of the highest percentile with ``TAIL_BEYOND`` samples beyond it.

    The value is the ``TAIL_BEYOND + 1``-th largest sample, so exactly
    ``TAIL_BEYOND`` samples exceed its rank; its percentile is
    ``100 * (n - TAIL_BEYOND) / n``.  Returns ``None`` below
    ``TAIL_BEYOND + 1`` samples, where no such percentile exists.
    """
    count = len(values)
    if count < TAIL_BEYOND + 1:
        return None
    rank = count - TAIL_BEYOND
    return 100.0 * rank / count, float(sorted(values)[rank - 1])


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class HostReference:
    """Times a fixed NumPy computation that does not depend on the program.

    :meth:`sample` runs it (about 1.6 ms on a 2-CPU Xeon: small fancy-indexing,
    ``np.add.at`` and reduction calls, the same kind of work the solver's
    inner loops do) and records ``(midpoint, milliseconds)``.
    :meth:`scale` turns a wall-clock interval into host-normalized time.
    """

    def __init__(self) -> None:
        generator = np.random.default_rng(20261016)
        self._table = generator.random((40, 30))
        self._rows = np.arange(60).reshape(20, 3)
        self._index = np.arange(40) % 20
        self.times: List[float] = []
        self.millis: List[float] = []
        self._last = float("-inf")

    def _compute(self) -> float:
        total = 0.0
        counts = np.zeros(30)
        for i in range(150):
            row = self._rows[i % 20]
            match = self._rows == row[0]
            total += float(self._table[self._index[:8], i % 30].sum())
            np.add.at(counts, self._rows[:, 0] % 30, 1.0)
            total += float(match.sum(axis=1) @ self._table[:20, 0])
        return total + float(counts.sum())

    def sample(self, *, warm_up: bool = False) -> float:
        """Run the reference once (after one untimed run with ``warm_up``); returns milliseconds."""
        if warm_up:
            self._compute()
        started = time.perf_counter()
        self._compute()
        ended = time.perf_counter()
        millis = (ended - started) * 1e3
        self.times.append(0.5 * (started + ended))
        self.millis.append(millis)
        self._last = ended
        return millis

    def due(self) -> bool:
        """Whether ``REF_INTERVAL_S`` has passed since the last sample."""
        return time.perf_counter() - self._last >= REF_INTERVAL_S

    def maybe_sample(self) -> None:
        """Sample if :meth:`due`."""
        if self.due():
            self.sample()

    def local_ms(self, at: float) -> float:
        """Median reference time within ``REF_WINDOW_S`` of ``at`` (at least the 3 nearest samples)."""
        if not self.times:
            raise RuntimeError("no host reference samples taken")
        lo = bisect.bisect_left(self.times, at - REF_WINDOW_S)
        hi = bisect.bisect_right(self.times, at + REF_WINDOW_S)
        if hi - lo < 3:
            nearest = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - at))[:3]
            return median([self.millis[i] for i in nearest])
        return median(self.millis[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """Factor turning the wall interval ``[start, end]`` into host-normalized time."""
        return REF_NOMINAL_MS / self.local_ms(0.5 * (start + end))

    def normalized(self, start: float, end: float) -> float:
        """Host-normalized duration of ``[start, end]`` in seconds."""
        return (end - start) * self.scale(start, end)


__all__ = [
    "TAIL_BEYOND",
    "REF_NOMINAL_MS",
    "REF_WINDOW_S",
    "REF_INTERVAL_S",
    "METRIC_NAME",
    "valid_metric_name",
    "median",
    "mean",
    "tail",
    "peak_rss_mb",
    "HostReference",
]
