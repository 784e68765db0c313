"""A process-wide metrics registry: counters, gauges, fixed-bucket histograms.

Before this module the repo's operational numbers were scattered — each
:class:`~repro.util.cache.LRUCache` kept its own ``stats()``, the circuit
breaker its per-rung tallies, the executor its mode counts — and nothing
correlated them.  :class:`MetricsRegistry` is the one sink:

* :class:`Counter` — monotone ``inc()``;
* :class:`Gauge` — ``set()`` to the latest value;
* :class:`Histogram` — fixed bucket boundaries with interpolated
  p50/p95/p99 quantile estimates (constant memory, no sample retention);
* **collectors** — zero-argument callables registered per subsystem
  (cache stats, breaker state, subscription counts) and pulled at
  :meth:`MetricsRegistry.snapshot` time, so existing ``stats()`` providers
  are absorbed without double bookkeeping.

Series are keyed by ``(name, labels)`` — ``registry.counter("executor.batches",
mode="process")`` — and everything lands in one nested
:meth:`~MetricsRegistry.snapshot` dict or one Prometheus-style text
exposition (:meth:`~MetricsRegistry.render_prometheus`, the CLI's
``--metrics`` output).

Like the tracer, this module is stdlib-only and imports nothing from the
rest of the package; recording a metric never touches seeds or RNG state.
All mutation is lock-protected (the thread executor records task latencies
concurrently).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "METRICS",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Default histogram boundaries: latencies from 10us to 30s, roughly
#: geometric — wide enough for a cache hit and a merged-view recount alike.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.00001, 0.0000316, 0.0001, 0.000316, 0.001, 0.00316,
    0.01, 0.0316, 0.1, 0.316, 1.0, 3.16, 10.0, 30.0,
)

Labels = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> Labels:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for ups and downs")
        with self._lock:
            self.value += amount


class Gauge:
    """A value that can go up and down; reports the latest ``set()``."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount


class Histogram:
    """A fixed-bucket histogram with interpolated quantile estimates.

    ``boundaries`` are the inclusive upper edges of the finite buckets; one
    implicit overflow bucket catches everything above the last edge.  Memory
    is constant in the number of observations, and :meth:`quantile` linearly
    interpolates within the bucket that crosses the requested rank — the
    usual fixed-bucket p50/p95/p99 estimate (exact values are not retained).
    """

    __slots__ = ("boundaries", "bucket_counts", "count", "total", "minimum", "maximum", "_lock")

    def __init__(self, boundaries: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        edges = tuple(float(edge) for edge in boundaries)
        if not edges or any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("histogram boundaries must be non-empty and increasing")
        self.boundaries = edges
        self.bucket_counts = [0] * (len(edges) + 1)  # +1 overflow
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        position = bisect_left(self.boundaries, value)
        with self._lock:
            self.bucket_counts[position] += 1
            self.count += 1
            self.total += value
            if self.minimum is None or value < self.minimum:
                self.minimum = value
            if self.maximum is None or value > self.maximum:
                self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 <= q <= 1``); 0.0 when empty.

        Linear interpolation inside the crossing bucket, clamped to the
        observed min/max so estimates never leave the data's range."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        lower = 0.0
        for position, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                if position < len(self.boundaries):
                    lower = self.boundaries[position]
                continue
            if cumulative + bucket_count >= rank:
                upper = (
                    self.boundaries[position]
                    if position < len(self.boundaries)
                    else (self.maximum if self.maximum is not None else lower)
                )
                fraction = (rank - cumulative) / bucket_count
                estimate = lower + (upper - lower) * max(0.0, min(1.0, fraction))
                if self.minimum is not None:
                    estimate = max(estimate, self.minimum)
                if self.maximum is not None:
                    estimate = min(estimate, self.maximum)
                return estimate
            cumulative += bucket_count
            if position < len(self.boundaries):
                lower = self.boundaries[position]
        return self.maximum if self.maximum is not None else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": round(self.total, 9),
            "mean": round(self.mean, 9),
            "min": None if self.minimum is None else round(self.minimum, 9),
            "max": None if self.maximum is None else round(self.maximum, 9),
            "p50": round(self.quantile(0.50), 9),
            "p95": round(self.quantile(0.95), 9),
            "p99": round(self.quantile(0.99), 9),
        }


class MetricsRegistry:
    """Name+labels -> instrument table with one unified snapshot.

    The module-level :data:`METRICS` is the process-wide default; services
    create their own instance per default (isolating tests and twin
    services) and accept a shared one via ``ServiceConfig.metrics``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, Labels], Counter] = {}
        self._gauges: Dict[Tuple[str, Labels], Gauge] = {}
        self._histograms: Dict[Tuple[str, Labels], Histogram] = {}
        self._collectors: Dict[str, Callable[[], Any]] = {}

    # ------------------------------------------------------------ instruments
    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._gauges.get(key)
            if instrument is None:
                instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(
        self,
        name: str,
        boundaries: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = self._histograms[key] = Histogram(boundaries)
        return instrument

    def register_collector(self, name: str, collect: Callable[[], Any]) -> None:
        """Register a pull-style stats source (cache, breaker, subscription
        count); re-registering a name replaces the previous collector."""
        with self._lock:
            self._collectors[name] = collect

    # -------------------------------------------------------------- exporters
    def _grouped(self) -> Dict[str, Dict[str, List[Tuple[Labels, Any]]]]:
        """``kind -> name -> [(labels, reading), ...]`` sorted by name and
        labels; a histogram's reading is its ``to_dict()``."""
        with self._lock:
            tables = {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": dict(self._histograms),
            }
        grouped: Dict[str, Dict[str, List[Tuple[Labels, Any]]]] = {}
        for kind, table in tables.items():
            by_name = grouped[kind] = {}
            for (name, labels), instrument in sorted(table.items()):
                reading = instrument.to_dict() if kind == "histograms" else instrument.value
                by_name.setdefault(name, []).append((labels, reading))
        return grouped

    def series(self, kind: str, name: str) -> List[Tuple[Dict[str, str], Any]]:
        """Every series of one metric as ``(labels, reading)`` pairs —
        ``kind`` is ``"counters"``, ``"gauges"`` or ``"histograms"``."""
        rows = self._grouped()[kind].get(name, ())
        return [(dict(labels), reading) for labels, reading in rows]

    def _collected(self) -> Dict[str, Any]:
        with self._lock:
            collectors = dict(self._collectors)
        return {name: collect() for name, collect in sorted(collectors.items())}

    def snapshot(self) -> Dict[str, Any]:
        """Every series (keyed by its ``"k=v,..."`` label text) plus every
        collector's current output, one dict."""
        snapshot: Dict[str, Any] = {
            kind: {
                name: {
                    ",".join(f"{k}={v}" for k, v in labels): reading
                    for labels, reading in series
                }
                for name, series in by_name.items()
            }
            for kind, by_name in self._grouped().items()
        }
        snapshot["collected"] = self._collected()
        return snapshot

    def render_prometheus(self) -> str:
        """Prometheus-style text exposition of the full snapshot.

        Counter/gauge series render as ``repro_<name>{labels} value``;
        histograms as ``_count``/``_sum`` plus ``quantile`` series; numeric
        leaves of collected subsystem stats are flattened into gauges (so
        cache hit-rates and breaker failure counts are scrapable too).
        Labels render from the stored ``(key, value)`` pairs, with ``\\``,
        ``"`` and newline escaped in values as the text format requires."""
        lines: List[str] = []
        grouped = self._grouped()

        def metric_name(*parts: str) -> str:
            raw = "_".join(part for part in parts if part)
            cleaned = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in raw)
            return f"repro_{cleaned}"

        def label_block(labels: Labels) -> str:
            rendered = [f'{key}="{_escape_label_value(value)}"' for key, value in labels]
            return "{" + ",".join(rendered) + "}" if rendered else ""

        for kind, table in (("counter", "counters"), ("gauge", "gauges")):
            for name, series in grouped[table].items():
                lines.append(f"# TYPE {metric_name(name)} {kind}")
                for labels, value in series:
                    lines.append(f"{metric_name(name)}{label_block(labels)} {value:g}")
        for name, series in grouped["histograms"].items():
            lines.append(f"# TYPE {metric_name(name)} summary")
            for labels, stats in series:
                base = metric_name(name)
                lines.append(f"{base}_count{label_block(labels)} {stats['count']:g}")
                lines.append(f"{base}_sum{label_block(labels)} {stats['sum']:g}")
                for quantile, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
                    block = label_block(labels + (("quantile", quantile),))
                    lines.append(f"{base}{block} {stats[key]:g}")

        def flatten(prefix: str, payload: Any) -> None:
            if isinstance(payload, dict):
                for key, value in sorted(payload.items()):
                    flatten(f"{prefix}_{key}" if prefix else str(key), value)
            elif isinstance(payload, bool):
                lines.append(f"{metric_name(prefix)} {int(payload)}")
            elif isinstance(payload, (int, float)):
                lines.append(f"{metric_name(prefix)} {payload:g}")

        for name, payload in self._collected().items():
            flatten(name, payload)
        return "\n".join(lines) + "\n"


#: The process-wide default registry (importable from anywhere; services
#: default to a private instance — pass ``ServiceConfig(metrics=METRICS)``
#: to aggregate several services here).
METRICS = MetricsRegistry()
