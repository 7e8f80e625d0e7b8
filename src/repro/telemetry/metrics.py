"""Metrics registry: counters, gauges and time-bucketed histograms.

All series are keyed on *simulated* time.  The registry is the numeric
side of the telemetry subsystem: components record queue depths,
allocation latencies, bytes moved and occupancy here, and the ``trace``
CLI dumps everything as JSONL for offline analysis.

Design notes:

* A :class:`Counter` is monotonic; it keeps both the running total and
  the ``(time, delta)`` increments so any windowed rate can be derived.
* A :class:`Gauge` records ``(time, value)`` samples (last write wins
  at equal timestamps, matching the kernel's deterministic ordering).
* A :class:`Histogram` buckets observations two ways at once: by value
  (configurable bounds) and by simulation-time window
  (``window_seconds``), so "allocation latency between t=120 and
  t=180" is a direct lookup.
"""

from __future__ import annotations

import bisect
import json
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: Default value-bucket upper bounds (seconds-ish scales), +inf implied.
DEFAULT_BOUNDS = (0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0)


def _label_key(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted(labels.items()))


class Metric:
    """Shared bookkeeping for all metric kinds."""

    kind = "metric"

    def __init__(self, env, name: str, labels: Dict[str, str],
                 sample_resolution: Optional[float] = None):
        self.env = env
        self.name = name
        self.labels = dict(labels)
        #: Optional coalescing window (simulated seconds): samples
        #: landing in the same window merge into one, bounding series
        #: memory and append cost on hot paths at 10k-node scale.
        #: ``None`` (the default) keeps every sample.
        self.sample_resolution = sample_resolution

    def _base(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"metric": self.name, "type": self.kind}
        if self.labels:
            out["labels"] = self.labels
        return out


class Counter(Metric):
    """Monotonically increasing total with an increment series."""

    kind = "counter"

    def __init__(self, env, name: str, labels: Dict[str, str],
                 sample_resolution: Optional[float] = None):
        super().__init__(env, name, labels, sample_resolution)
        self.total = 0.0
        self.samples: List[Tuple[float, float]] = []   # (time, delta)

    def inc(self, value: float = 1.0) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.total += value
        now = self.env.now
        res = self.sample_resolution
        samples = self.samples
        if res and samples and now - samples[-1][0] < res:
            # Batched mode: merge increments landing inside one
            # resolution window (the running total stays exact).
            t, delta = samples[-1]
            samples[-1] = (t, delta + value)
        else:
            samples.append((now, value))

    def rows(self) -> Iterator[Dict[str, Any]]:
        running = 0.0
        for t, delta in self.samples:
            running += delta
            yield {**self._base(), "t": t, "delta": delta,
                   "total": running}


class Gauge(Metric):
    """Point-in-time value with full history."""

    kind = "gauge"

    def __init__(self, env, name: str, labels: Dict[str, str],
                 sample_resolution: Optional[float] = None):
        super().__init__(env, name, labels, sample_resolution)
        self.samples: List[Tuple[float, float]] = []   # (time, value)

    @property
    def value(self) -> Optional[float]:
        return self.samples[-1][1] if self.samples else None

    def set(self, value: float) -> None:
        now = self.env.now
        samples = self.samples
        if samples:
            last_t = samples[-1][0]
            res = self.sample_resolution
            if last_t == now or (res and now - last_t < res):
                # Same-instant overwrite keeps one sample per timestamp;
                # batched mode widens that to one per resolution window
                # (last write wins — the step function the samples trace
                # is exact to within the window).
                samples[-1] = (now, float(value))
                return
        samples.append((now, float(value)))

    def add(self, delta: float) -> None:
        self.set((self.value or 0.0) + delta)

    def max(self) -> Optional[float]:
        return max((v for _, v in self.samples), default=None)

    def time_weighted_mean(self, until: Optional[float] = None) -> float:
        """Mean of the step function traced by the samples."""
        if not self.samples:
            return 0.0
        end = self.env.now if until is None else until
        total = 0.0
        for (t0, v), (t1, _) in zip(self.samples, self.samples[1:], strict=False):
            total += v * (t1 - t0)
        last_t, last_v = self.samples[-1]
        total += last_v * max(0.0, end - last_t)
        span = end - self.samples[0][0]
        return total / span if span > 0 else self.samples[-1][1]

    def rows(self) -> Iterator[Dict[str, Any]]:
        for t, v in self.samples:
            yield {**self._base(), "t": t, "value": v}


class Histogram(Metric):
    """Value-bucketed observations, partitioned into sim-time windows."""

    kind = "histogram"

    def __init__(self, env, name: str, labels: Dict[str, str],
                 bounds: Sequence[float] = DEFAULT_BOUNDS,
                 window_seconds: float = 60.0):
        super().__init__(env, name, labels)
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        self.bounds = tuple(sorted(bounds))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.window_seconds = float(window_seconds)
        #: window index -> [per-bound counts..., +inf count]
        self.windows: Dict[int, List[int]] = {}
        self._sums: Dict[int, float] = {}
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        window = int(self.env.now // self.window_seconds)
        counts = self.windows.setdefault(
            window, [0] * (len(self.bounds) + 1))
        counts[bisect.bisect_left(self.bounds, value)] += 1
        self._sums[window] = self._sums.get(window, 0.0) + value
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def bucket_counts(self) -> List[int]:
        """Aggregate value-bucket counts over all time windows."""
        total = [0] * (len(self.bounds) + 1)
        for counts in self.windows.values():
            for i, c in enumerate(counts):
                total[i] += c
        return total

    def quantile(self, q: float) -> Optional[float]:
        """Approximate quantile from the aggregated buckets (upper bound)."""
        if not 0 <= q <= 1:
            raise ValueError("quantile must be in [0, 1]")
        if not self.count:
            return None
        target = q * self.count
        seen = 0
        for bound, c in zip(self.bounds, self.bucket_counts(), strict=False):
            seen += c
            # Empty buckets never satisfy a quantile: q=0 must report
            # the first *populated* bucket's bound, not bounds[0].
            if c > 0 and seen >= target:
                return bound
        return self.max

    def percentiles(self, ps: Sequence[float]) -> Dict[float, Optional[float]]:
        """Named percentiles (percent values, e.g. ``(50, 95, 99)``).

        Thin wrapper over :meth:`quantile`: returns ``{p: value}`` with
        the same bucket-upper-bound semantics, ``None`` values when the
        histogram is empty.  The benchmark harness consumes this to emit
        ``*_p50``/``*_p95``/``*_p99`` baseline keys.
        """
        return {p: self.quantile(p / 100.0) for p in ps}

    def rows(self) -> Iterator[Dict[str, Any]]:
        for window in sorted(self.windows):
            counts = self.windows[window]
            yield {**self._base(),
                   "t0": window * self.window_seconds,
                   "t1": (window + 1) * self.window_seconds,
                   "bounds": list(self.bounds),
                   "counts": counts,
                   "count": sum(counts),
                   "sum": self._sums[window]}


class MetricsRegistry:
    """Creates-or-returns metrics by (name, labels); dumps them as JSONL."""

    def __init__(self, env, sample_resolution: Optional[float] = None):
        self.env = env
        if sample_resolution is not None and sample_resolution <= 0:
            raise ValueError("sample_resolution must be positive")
        #: Coalescing window inherited by new counters/gauges (see
        #: :class:`Metric`); ``None`` keeps the exact per-instant
        #: default behaviour.
        self.sample_resolution = sample_resolution
        self._metrics: Dict[Tuple[str, Tuple[Tuple[str, str], ...]],
                            Metric] = {}

    def _get(self, cls, name: str, labels: Dict[str, str], **kwargs):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(self.env, name, labels, **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}")
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels,
                         sample_resolution=self.sample_resolution)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels,
                         sample_resolution=self.sample_resolution)

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_BOUNDS,
                  window_seconds: float = 60.0,
                  **labels: str) -> Histogram:
        return self._get(Histogram, name, labels, bounds=bounds,
                         window_seconds=window_seconds)

    # ----------------------------------------------------------- queries
    def names(self) -> List[str]:
        return sorted({m.name for m in self._metrics.values()})

    # ------------------------------------------------------------ export
    def rows(self) -> Iterator[Dict[str, Any]]:
        for metric in self._metrics.values():
            yield from metric.rows()

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(row, default=str)
                         for row in self.rows())

    def snapshot_state(self) -> list:
        """Checkpoint fingerprint: every metric row, canonically sorted.

        Registration order is deterministic in a replayed run, but
        sorting by the serialized row makes the fingerprint independent
        of it — metric *values* are what must match after restore.
        """
        return sorted((dict(row) for row in self.rows()),
                      key=lambda row: json.dumps(row, sort_keys=True,
                                                 default=str))
