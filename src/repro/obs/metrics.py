"""Counters, gauges and streaming histograms — the metric half of ``repro.obs``.

Everything here is dependency-free and cheap enough to leave permanently
enabled: a counter increment is one locked integer add, a histogram
observation is one locked dict increment.  Nothing is written anywhere until
a consumer asks — ``MetricsRegistry.snapshot()`` for the JSON view the
``/stats`` endpoint serves, ``MetricsRegistry.render_prometheus()`` for the
``/metrics`` scrape format.

Histograms use a **fixed log-bucket layout**: bucket ``i`` covers
``(growth**i, growth**(i+1)]`` with ``growth = 10**(1/BUCKETS_PER_DECADE)``.
Only non-empty buckets are stored (a dict of ``index -> count``), so a
histogram is O(observed decades x buckets-per-decade) in memory regardless of
how many samples streamed through it.  Quantiles come from a cumulative walk
over the buckets; the estimate for a quantile is the geometric midpoint of
its bucket, so the relative error is bounded by ``sqrt(growth) - 1``
(~15% at the default 8 buckets/decade) and exact values are never stored.
Merging two histograms adds their bucket counts — exact, associative and
commutative, which is what makes per-worker histograms aggregatable.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Callable, Iterator, Mapping, NamedTuple

# Log-bucket layout: 8 buckets per decade => growth factor ~1.3335 and a
# worst-case relative quantile error of sqrt(growth)-1 ~= 15.5%.
BUCKETS_PER_DECADE = 8
GROWTH = 10.0 ** (1.0 / BUCKETS_PER_DECADE)
_LOG_GROWTH = math.log(GROWTH)

# Values at or below this observe into the underflow bucket (timings are
# positive; zero only appears for degenerate/mocked clocks).
_MIN_VALUE = 1e-12
_UNDERFLOW = -10 ** 9  # sentinel bucket index for values <= _MIN_VALUE

LabelsKey = tuple[tuple[str, str], ...]


def _labels_key(labels: Mapping[str, Any]) -> LabelsKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def bucket_index(value: float) -> int:
    """The log-bucket index covering ``value`` (lower-exclusive bounds)."""
    if value <= _MIN_VALUE:
        return _UNDERFLOW
    # ceil(log_growth(v)) - 1 gives the bucket whose range (g**i, g**(i+1)]
    # contains v; math.ceil on the float log is stable because consumers only
    # need *a* consistent bucketing, not exact boundary classification.
    return math.ceil(math.log(value) / _LOG_GROWTH) - 1


def bucket_bounds(index: int) -> tuple[float, float]:
    """The ``(low, high]`` value range of one bucket index."""
    if index == _UNDERFLOW:
        return (0.0, _MIN_VALUE)
    return (GROWTH ** index, GROWTH ** (index + 1))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def snapshot(self) -> int:
        return self._value


class Gauge:
    """A value that goes up and down (queue depth, pool size, ...)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> float:
        return self._value


class HistogramSnapshot(NamedTuple):
    """Immutable view of a histogram at one instant."""

    count: int
    sum: float
    min: float | None
    max: float | None
    p50: float | None
    p95: float | None
    p99: float | None

    def to_dict(self) -> dict[str, Any]:
        return dict(self._asdict())


class Histogram:
    """Streaming log-bucket histogram: p50/p95/p99 without storing samples."""

    __slots__ = ("_lock", "_buckets", "_count", "_sum", "_min", "_max")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._buckets: dict[int, int] = {}
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        index = bucket_index(value)
        with self._lock:
            self._buckets[index] = self._buckets.get(index, 0) + 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float | None:
        """Estimated ``q``-quantile (geometric bucket midpoint, clamped).

        The estimate lands in the same bucket as the true quantile, so its
        relative error is bounded by ``sqrt(GROWTH) - 1``.  ``None`` before
        the first observation.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self._count == 0:
                return None
            rank = q * self._count
            cumulative = 0
            estimate: float | None = None
            for index in sorted(self._buckets):
                cumulative += self._buckets[index]
                if cumulative >= rank:
                    low, high = bucket_bounds(index)
                    estimate = math.sqrt(max(low, _MIN_VALUE) * high)
                    break
            if estimate is None:  # pragma: no cover - rank <= count always hits
                estimate = self._max
            # The true min/max are tracked exactly; never report outside them.
            return min(max(estimate, self._min), self._max)

    def merge(self, other: "Histogram") -> "Histogram":
        """A new histogram holding both inputs' observations (exact)."""
        merged = Histogram()
        for source in (self, other):
            with source._lock:
                for index, count in source._buckets.items():
                    merged._buckets[index] = merged._buckets.get(index, 0) + count
                merged._count += source._count
                merged._sum += source._sum
                for bound in (source._min, source._max):
                    if bound is None:
                        continue
                    if merged._min is None or bound < merged._min:
                        merged._min = bound
                    if merged._max is None or bound > merged._max:
                        merged._max = bound
        return merged

    def snapshot(self) -> HistogramSnapshot:
        with self._lock:
            count, total = self._count, self._sum
            low, high = self._min, self._max
        return HistogramSnapshot(
            count=count,
            sum=total,
            min=low,
            max=high,
            p50=self.quantile(0.50),
            p95=self.quantile(0.95),
            p99=self.quantile(0.99),
        )


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """Process-wide name + labels -> metric map.

    Metric names are dotted lowercase (``pipeline.cache.lookups``); labels
    distinguish instances of the same metric (``stage="train"``,
    ``cache="densities"``).  Lookup creates on first use, so instrumentation
    sites never need registration boilerplate — but a name must keep one
    metric type for the registry's lifetime.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, LabelsKey], Metric] = {}

    # ------------------------------------------------------------------
    def _get_or_create(
        self, name: str, labels: Mapping[str, Any], factory: Callable[[], Metric]
    ) -> Metric:
        key = (name, _labels_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory()
                self._metrics[key] = metric
            return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        metric = self._get_or_create(name, labels, Counter)
        if not isinstance(metric, Counter):
            raise TypeError(f"metric {name!r} is a {type(metric).__name__}, not a Counter")
        return metric

    def gauge(self, name: str, **labels: Any) -> Gauge:
        metric = self._get_or_create(name, labels, Gauge)
        if not isinstance(metric, Gauge):
            raise TypeError(f"metric {name!r} is a {type(metric).__name__}, not a Gauge")
        return metric

    def histogram(self, name: str, **labels: Any) -> Histogram:
        metric = self._get_or_create(name, labels, Histogram)
        if not isinstance(metric, Histogram):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, not a Histogram"
            )
        return metric

    # ------------------------------------------------------------------
    def items(self) -> Iterator[tuple[str, LabelsKey, Metric]]:
        with self._lock:
            entries = list(self._metrics.items())
        for (name, labels), metric in sorted(entries, key=lambda e: e[0]):
            yield name, labels, metric

    def reset(self) -> None:
        """Drop every metric (tests; a long-lived service never calls this)."""
        with self._lock:
            self._metrics.clear()

    # ------------------------------------------------------------------
    # Export formats
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """JSON-native view: ``{name: [{labels, <value|histogram fields>}]}``."""
        out: dict[str, list[dict[str, Any]]] = {}
        for name, labels, metric in self.items():
            entry: dict[str, Any] = {"labels": dict(labels)}
            if isinstance(metric, Histogram):
                entry.update(metric.snapshot().to_dict())
                entry["type"] = "histogram"
            elif isinstance(metric, Gauge):
                entry["value"] = metric.snapshot()
                entry["type"] = "gauge"
            else:
                entry["value"] = metric.snapshot()
                entry["type"] = "counter"
            out.setdefault(name, []).append(entry)
        return out

    def render_prometheus(self, prefix: str = "repro") -> str:
        """Prometheus text exposition format (histograms as summaries)."""
        lines: list[str] = []
        seen_types: set[str] = set()
        for name, labels, metric in self.items():
            metric_name = f"{prefix}_{name}".replace(".", "_").replace("-", "_")
            if isinstance(metric, Histogram):
                snap = metric.snapshot()
                if metric_name not in seen_types:
                    lines.append(f"# TYPE {metric_name} summary")
                    seen_types.add(metric_name)
                for q, value in (("0.5", snap.p50), ("0.95", snap.p95), ("0.99", snap.p99)):
                    if value is None:
                        continue
                    label_text = _prom_labels(labels, extra=(("quantile", q),))
                    lines.append(f"{metric_name}{label_text} {value:.9g}")
                label_text = _prom_labels(labels)
                lines.append(f"{metric_name}_count{label_text} {snap.count}")
                lines.append(f"{metric_name}_sum{label_text} {snap.sum:.9g}")
            else:
                kind = "gauge" if isinstance(metric, Gauge) else "counter"
                if kind == "counter":
                    metric_name += "_total"
                if metric_name not in seen_types:
                    lines.append(f"# TYPE {metric_name} {kind}")
                    seen_types.add(metric_name)
                value = metric.snapshot()
                rendered = f"{value:.9g}" if isinstance(value, float) else str(value)
                lines.append(f"{metric_name}{_prom_labels(labels)} {rendered}")
        return "\n".join(lines) + ("\n" if lines else "")


def _prom_labels(
    labels: LabelsKey, extra: tuple[tuple[str, str], ...] = ()
) -> str:
    pairs = tuple(labels) + extra
    if not pairs:
        return ""
    body = ",".join(
        f'{key}="{value}"'.replace("\\", "\\\\").replace("\n", "\\n")
        for key, value in pairs
    )
    return "{" + body + "}"


# The process-global registry every instrumentation site records into.
REGISTRY = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """The process-global :class:`MetricsRegistry`."""
    return REGISTRY


__all__ = [
    "BUCKETS_PER_DECADE",
    "Counter",
    "GROWTH",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "REGISTRY",
    "bucket_bounds",
    "bucket_index",
    "metrics",
]
