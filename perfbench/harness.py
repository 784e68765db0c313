"""Shared plumbing of the served-path benchmark: percentiles, timing, the
machine record, span-tree accounting and the workload result object.

Nothing here imports the program (``repro``) at module level, so
``run.py`` can check where ``repro`` comes from before anything loads it.
"""

from __future__ import annotations

import bisect
import math
import multiprocessing
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple


def request_seed(seed: int, offset: int) -> int:
    """The seed of a benchmark request: run ``seed`` owns the non-negative
    block ``[|seed| * 10**6, (|seed| + 1) * 10**6)``.  Timed requests count
    up from the bottom; warm-ups use offsets from 900000, probes from
    950000."""
    return abs(seed) * 1_000_000 + offset


WARMUP_OFFSET = 900_000

#: Timed samples a run should hold, so that 10 lie beyond the p90.
MIN_MISSES = 100

PROBE_OFFSET = 950_000


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else float("nan")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100)."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def timed(call: Callable[[], Any]) -> Tuple[float, Any]:
    """``(seconds, result)`` of one call."""
    started = time.perf_counter()
    result = call()
    return time.perf_counter() - started, result


def per_call_us(call: Callable[[], Any], calls: int, batches: int = 5) -> float:
    """Median over ``batches`` of the mean time of ``calls`` back-to-back
    calls, in microseconds (for operations too short to time singly)."""
    samples = []
    for _ in range(batches):
        seconds, _ = timed(lambda: [call() for _ in range(calls)])
        samples.append(seconds / calls * 1e6)
    return median(samples)


# ------------------------------------------------------------- host speed
#: What one run of ``_probe_kernel`` takes at the reference host speed.
#: Every end-to-end time is reported scaled to this speed.
REFERENCE_PROBE_MS = 0.5

#: Probes nearest in time to a sample whose median scales it.
PROBE_NEIGHBOURS = 15


def _probe_kernel() -> int:
    """A fixed pure-Python workload (dict, set, tuple and sort operations,
    the program's own mix) that shares no code with the program."""
    table: Dict[Tuple[int, int], int] = {}
    for i in range(1000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
    members = frozenset(table)
    total = 0
    for a in range(97):
        for b in range(0, 89, 9):
            if (a, b) in members:
                total += table[(a, b)]
    ordered = sorted(table.items(), key=lambda item: item[1])
    return total + ordered[len(ordered) // 2][1]


class SpeedProbe:
    """The host's speed through a run, as the time of ``_probe_kernel``.

    On a shared host the same code runs up to twice as fast in one second
    as in the next, for every process alike.  A run therefore times the
    kernel every ``interval`` seconds while no operation is in flight, and
    scales each timed sample by ``REFERENCE_PROBE_MS`` over the median of
    the ``PROBE_NEIGHBOURS`` probes nearest to it in time: the figure the
    sample would have had at the reference speed.  The kernel shares no
    code with the program, so a change to the program moves the scaled
    figures as much as the raw ones."""

    def __init__(self, started: float, interval: float = 0.02) -> None:
        self.started = started
        self.interval = interval
        self.next_due = started
        #: ``(seconds since started, ms)`` per probe, its first column, and
        #: when each probe ended (seconds since started).
        self.samples: List[Tuple[float, float]] = []
        self.times: List[float] = []
        self.ends: List[float] = []
        #: Time spent probing, which a throughput leaves out.
        self.seconds = 0.0

    def due(self) -> bool:
        return time.perf_counter() >= self.next_due

    def run(self, times: int = 1) -> None:
        """Record ``times`` probes, each the faster of two kernel runs (so
        that a collection or an interrupt inside one does not count)."""
        for _ in range(times):
            began = time.perf_counter()
            fastest = min(timed(_probe_kernel)[0] for _ in range(2))
            ended = time.perf_counter()
            self.samples.append((began - self.started, fastest * 1000.0))
            self.times.append(began - self.started)
            self.ends.append(ended - self.started)
            self.seconds += ended - began
        self.next_due = time.perf_counter() + self.interval

    def median_ms(self) -> float:
        return median([ms for _, ms in self.samples])

    def scale_at(self, at: float) -> float:
        """Reference speed over the host's speed around ``at`` (seconds
        since started)."""
        low = max(0, bisect.bisect(self.times, at) - PROBE_NEIGHBOURS // 2)
        high = min(len(self.times), low + PROBE_NEIGHBOURS)
        low = max(0, high - PROBE_NEIGHBOURS)
        return REFERENCE_PROBE_MS / median([ms for _, ms in self.samples[low:high]])

    def scaled(self, samples: Iterable[Tuple[float, float]]) -> List[float]:
        """``(seconds since started, value)`` samples scaled to the
        reference speed."""
        return [value * self.scale_at(at) for at, value in samples]

    def scaled_seconds(self, end: float) -> float:
        """The loop's time from its start to ``end`` (seconds since
        started), less the probes, at the reference speed."""
        total, resumed = 0.0, 0.0
        for began, ended in zip(self.times + [end], self.ends + [end]):
            total += max(0.0, began - resumed) * self.scale_at(resumed)
            resumed = ended
        return total


def speed_around(call: Callable[[], Any]) -> Tuple[Any, float]:
    """``(result, scale)`` of one call, where ``scale`` is the reference
    speed over the host's speed in three probes just before the call and
    three just after it."""
    probe = SpeedProbe(time.perf_counter())
    probe.run(3)
    result = call()
    probe.run(3)
    return result, REFERENCE_PROBE_MS / probe.median_ms()


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def machine_record(seed: int) -> Dict[str, Any]:
    from repro.relational.columnar import columnar_available

    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "columnar_available": columnar_available(),
        "mp_start_method": multiprocessing.get_start_method(),
    }


def workload_record(spec, loop: str, database) -> Dict[str, Any]:
    """What a run records about its workload: the spec it was built from,
    how it is driven, its database's size and where that sits against the
    planner's size thresholds and the result cache, as configured by
    default in the program."""
    from dataclasses import asdict

    from repro.service import PlannerConfig, ServiceConfig

    planner = PlannerConfig()
    size = database.size()
    # The planner plans exact at size <= exact_size_threshold and upgrades
    # to columnar at size >= columnar_size_threshold.
    exact = planner.exact_size_threshold
    columnar = planner.columnar_size_threshold
    return {
        "spec": asdict(spec),
        "loop": loop,
        "facts": database.num_facts(),
        "size": size,
        "vs_exact_threshold": f"{size} {'<=' if size <= exact else '>'} {exact}",
        "vs_columnar_threshold": (
            "disabled"
            if columnar is None
            else f"{size} {'>=' if size >= columnar else '<'} {columnar}"
        ),
        "result_cache_entries": ServiceConfig().result_cache_size,
    }


# ------------------------------------------------------------- span trees
#: Which layer a span's self time belongs to.  The benchmark's own spans
#: are named ``bench.<layer>.<call>``; the program's spans by prefix.
_PROGRAM_LAYERS = (
    ("service.", "service"),
    ("cache.", "service"),
    ("executor.", "service"),
    ("scheme.", "core"),
    ("stream.", "stream"),
    ("shard.", "shard"),
)


def layer_of(name: str) -> str:
    if name.startswith("bench."):
        return name.split(".")[1]
    for prefix, layer in _PROGRAM_LAYERS:
        if name.startswith(prefix):
            return layer
    return "other"


def walk(spans: Iterable[Any]):
    for node in spans:
        yield node
        yield from walk(node.children)


def self_seconds(node) -> float:
    """A span's duration minus the part its children cover."""
    return max(0.0, node.seconds - sum(child.seconds for child in node.children))


def layer_self_ms(roots: Sequence[Any]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for node in walk(roots):
        layer = layer_of(node.name)
        totals[layer] = totals.get(layer, 0.0) + self_seconds(node) * 1000.0
    return {layer: round(value, 3) for layer, value in sorted(totals.items())}


def span_seconds(roots: Sequence[Any], name: str) -> List[float]:
    return [node.seconds for node in walk(roots) if node.name == name]


# ------------------------------------------------------------ the result
@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    #: Output-check failures, one line each (any makes the run incorrect).
    mismatches: List[str] = field(default_factory=list)
    #: Conditions that weaken a figure without making an output wrong.
    warnings: List[str] = field(default_factory=list)
    #: The metrics of the final JSON line: ``{name: (value, unit)}``.
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Everything else reported by name: the workload's own end-to-end
    #: figures and, in a traced run, its layer-specific figures.
    report: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Static and measured facts about the workload's inputs.
    inputs: Dict[str, Any] = field(default_factory=dict)
    #: Timed samples by kind, ``(seconds since the loop started, ms)``.
    samples: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    #: The traced run's tracer, whose span trees ``run.py`` writes out.
    tracer: Any = None

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.mismatches.append(message)
        return ok

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def note(self, name: str, value: float, unit: str) -> None:
        self.report[name] = (float(value), unit)
