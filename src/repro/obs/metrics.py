"""Metrics: counters, time series, one histogram and the registry.

The evaluation figures are all read off this module: Fig 9 per-request
scheduling time (``fm.schedule_ms``), Fig 10 utilization curves
(``util.*``) and Table 2 overheads (``fm.heartbeat_bytes``).  The registry
is deliberately dumb storage — analysis lives in :mod:`repro.experiments`.

- :class:`Series` — an append-only ``(time, value)`` series;
- :class:`Histogram` — HDR-style log buckets for latencies spanning
  several orders of magnitude (``sim.callback_ms``);
- :class:`MetricsRegistry` — named counters, series and histograms;
- :func:`attach_loop_metrics` — event-loop sampling into a registry;
- :func:`percentile` and :func:`format_table` — the shared helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.events import EventLoop, LoopHook

#: log buckets per octave: a bucket is ~9 % wide, so any histogram
#: percentile is within ~9 % of the true value
SUBBUCKETS_PER_OCTAVE = 8
_GROWTH = 2.0 ** (1.0 / SUBBUCKETS_PER_OCTAVE)
_LOG_GROWTH = math.log(_GROWTH)
#: zero and negative values share one bucket that sorts before every other
_ZERO_BUCKET = -(10 ** 9)


def percentile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of an already-sorted sequence,
    q in [0, 100]."""
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


@dataclass
class Series:
    """An append-only (time, value) series with summary helpers."""

    name: str
    points: List[Tuple[float, float]] = field(default_factory=list)

    def append(self, time: float, value: float) -> None:
        self.points.append((time, value))

    def values(self) -> List[float]:
        return [v for _, v in self.points]

    def times(self) -> List[float]:
        return [t for t, _ in self.points]

    def mean(self) -> float:
        values = self.values()
        return sum(values) / len(values) if values else 0.0

    def max(self) -> float:
        values = self.values()
        return max(values) if values else 0.0

    def percentile(self, q: float) -> float:
        return percentile(sorted(self.values()), q)

    def resample(self, step: float) -> List[Tuple[float, float]]:
        """Mean value per ``step``-wide time bucket (for plotting/printing).

        Bucket starts are ``floor(time / step) * step``: explicit
        ``math.floor`` so negative and non-multiple start times label the
        bucket by its true lower edge instead of truncating toward zero.
        """
        if not self.points:
            return []
        buckets: Dict[int, List[float]] = {}
        for time, value in self.points:
            buckets.setdefault(math.floor(time / step), []).append(value)
        return [
            (index * step, sum(vals) / len(vals))
            for index, vals in sorted(buckets.items())
        ]

    def __len__(self) -> int:
        return len(self.points)


class Histogram:
    """HDR-style log buckets: bucket i covers ``(growth**i, growth**(i+1)]``.

    Keeps exact ``count``/``sum``/``min``/``max``, reports percentiles from
    bucket counts in O(#buckets) and serialises deterministically.  Zero
    and negative values land in a dedicated zero bucket.
    """

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._counts: Dict[int, int] = {}

    def record(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value <= 0.0:
            index = _ZERO_BUCKET
        else:
            index = math.ceil(math.log(value) / _LOG_GROWTH - 1e-12) - 1
        self._counts[index] = self._counts.get(index, 0) + 1

    def _bucket_bounds(self, index: int) -> Tuple[float, float]:
        """(inclusive lower, exclusive upper) value range of a bucket."""
        if index == _ZERO_BUCKET:
            return (min(self.min, 0.0) if self.count else 0.0, 0.0)
        return (_GROWTH ** index, _GROWTH ** (index + 1))

    @property
    def min(self) -> float:
        return self._min if self.count else 0.0

    @property
    def max(self) -> float:
        return self._max if self.count else 0.0

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Value at quantile ``q`` (0..100), interpolated inside its bucket
        and clamped to the exactly-tracked min/max."""
        if not self.count:
            return 0.0
        target = (q / 100.0) * self.count
        cumulative = 0
        for index in sorted(self._counts):
            bucket_count = self._counts[index]
            if cumulative + bucket_count >= target:
                low, high = self._bucket_bounds(index)
                frac = (target - cumulative) / bucket_count
                value = low + (high - low) * frac
                return min(max(value, self.min), self.max)
            cumulative += bucket_count
        return self.max

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """Prometheus-style ``(le_upper_bound, cumulative_count)`` pairs."""
        out: List[Tuple[float, int]] = []
        cumulative = 0
        for index in sorted(self._counts):
            cumulative += self._counts[index]
            out.append((self._bucket_bounds(index)[1], cumulative))
        return out

    def snapshot(self) -> dict:
        """Deterministic summary for dumps and assertions."""
        return {
            "name": self.name,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }


class MetricsRegistry:
    """Named counters, series and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._series: Dict[str, Series] = {}
        self._histograms: Dict[str, Histogram] = {}

    def increment(self, name: str, amount: float = 1.0) -> None:
        self._counters[name] = self._counters.get(name, 0.0) + amount

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    def counters(self) -> Dict[str, float]:
        return dict(self._counters)

    def record(self, name: str, time: float, value: float) -> None:
        self.series(name).append(time, value)

    def series(self, name: str) -> Series:
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = Series(name)
        return series

    def series_names(self) -> List[str]:
        return sorted(self._series)

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    def histogram_names(self) -> List[str]:
        return sorted(self._histograms)


def attach_loop_metrics(loop: EventLoop, registry: MetricsRegistry,
                        sample_every: int = 64) -> LoopHook:
    """Sample every ``sample_every``-th executed event of ``loop`` into
    ``registry``; returns the hook handle for ``loop.remove_hook``.

    Records ``sim.callback_ms`` (callback wall time: the one metric that is
    *not* reproducible across runs, which is why it lives here rather than
    in the trace), ``sim.queue_depth`` (pending events as a series) and the
    ``sim.events_sampled`` counter.
    """
    callback_ms = registry.histogram("sim.callback_ms")
    queue_depth = registry.series("sim.queue_depth")

    def hook(lp: EventLoop, event, wall_seconds: float) -> None:
        callback_ms.record(wall_seconds * 1000.0)
        queue_depth.append(lp.now, float(lp.pending()))
        registry.increment("sim.events_sampled")

    return loop.add_hook(hook, sample_every=sample_every)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Plain-text table used by the experiment harness reports."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
