"""Per-(canonical form, fingerprint class, scheme) cost profiles.

ROADMAP item 4 — the observed-cost adaptive planner — needs a durable,
structured record of what each scheme *actually* cost on each query shape at
each database scale, next to the Figure-1 dichotomy's prediction.  This
module is that data feed:

* a **fingerprint class** buckets database sizes logarithmically
  (``size.bit_length()``), so runs over same-order-of-magnitude databases
  share one profile while 1k vs 1M stay separate — the granularity at which
  the exact-vs-approximate tradeoff actually moves;
* a :class:`SchemeProfile` is a constant-memory latency/size sketch — run
  count, latency histogram (p50/p95/p99 via
  :class:`~repro.obs.metrics.Histogram`), mean database size and mean
  estimate magnitude — recorded on **every** execution by the service;
* a :class:`ProfileStore` holds the sketches keyed by
  ``(canonical_key, fingerprint_class, scheme, engine)`` — the engine label
  keeps "fpras_cq on the columnar engine" separate from "fpras_cq on the
  indexed engine", which is exactly the cost difference the planner's
  columnar-upgrade threshold wants to learn — serves the planner's
  ``QueryPlan.observed`` section (:meth:`summary`), and persists via
  :meth:`to_json`/:meth:`from_json` so observations survive process
  restarts (version-1 snapshots load with engine defaulted to
  ``"indexed"``).

Recording never touches RNG state.  The store carries a monotone
:attr:`~ProfileStore.version` bumped on every mutation: the adaptive planner
keys its plan cache on it, so a plan computed from one profile snapshot is
never served after the snapshot moved (plans stay a pure function of
(request, profile snapshot, config)).
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.metrics import Histogram

__all__ = ["SchemeProfile", "ProfileStore", "fingerprint_class"]

#: Histogram edges for scheme latencies inside a profile sketch (10us–30s).
_PROFILE_BUCKETS: Tuple[float, ...] = (
    0.00001, 0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, 30.0,
)


def fingerprint_class(database_size: int) -> int:
    """The log2 size bucket a database falls in (0 for empty databases)."""
    return max(0, int(database_size)).bit_length()


def label_by_scheme(
    entries: Iterable[Tuple[str, str, Dict[str, Any]]],
) -> Dict[str, Dict[str, Any]]:
    """Key ``(scheme, engine, summary)`` entries, in their order, by the bare
    scheme name when only one engine was seen for that scheme (the shape
    pre-engine consumers expect) and by ``"scheme@engine"`` otherwise; each
    value is the summary plus its ``engine``."""
    entries = list(entries)
    engines_per_scheme = Counter(scheme for scheme, _, _ in entries)
    labelled: Dict[str, Dict[str, Any]] = {}
    for scheme, engine, summary in entries:
        label = scheme if engines_per_scheme[scheme] == 1 else f"{scheme}@{engine}"
        labelled[label] = dict(summary, engine=engine)
    return labelled


@dataclass
class SchemeProfile:
    """The latency/size sketch of one (canonical form, size bucket, scheme)."""

    runs: int = 0
    latency: Histogram = field(default_factory=lambda: Histogram(_PROFILE_BUCKETS))
    total_database_size: float = 0.0
    total_estimate_magnitude: float = 0.0

    def record(
        self, seconds: float, database_size: int, estimate: Optional[float] = None
    ) -> None:
        self.runs += 1
        self.latency.observe(seconds)
        self.total_database_size += float(database_size)
        if estimate is not None:
            self.total_estimate_magnitude += abs(float(estimate))

    def summary(self) -> Dict[str, Any]:
        runs = max(1, self.runs)
        return {
            "runs": self.runs,
            "mean_seconds": round(self.latency.mean, 9),
            "p50_seconds": round(self.latency.quantile(0.50), 9),
            "p95_seconds": round(self.latency.quantile(0.95), 9),
            "p99_seconds": round(self.latency.quantile(0.99), 9),
            "max_seconds": round(self.latency.maximum or 0.0, 9),
            "mean_database_size": round(self.total_database_size / runs, 2),
            "mean_estimate_magnitude": round(self.total_estimate_magnitude / runs, 4),
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "runs": self.runs,
            "total_database_size": self.total_database_size,
            "total_estimate_magnitude": self.total_estimate_magnitude,
            "latency": {
                "boundaries": list(self.latency.boundaries),
                "bucket_counts": list(self.latency.bucket_counts),
                "count": self.latency.count,
                "sum": self.latency.total,
                "min": self.latency.minimum,
                "max": self.latency.maximum,
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SchemeProfile":
        sketch = payload.get("latency", {})
        histogram = Histogram(tuple(sketch.get("boundaries", _PROFILE_BUCKETS)))
        counts = sketch.get("bucket_counts")
        if counts:
            # Tolerate truncated/overlong snapshots (hand-edited files,
            # partial writes): missing trailing buckets are zero, surplus
            # mass folds into the overflow bucket — count/sum stay the
            # authoritative totals either way.
            slots = len(histogram.bucket_counts)
            for position, value in enumerate(counts):
                histogram.bucket_counts[min(position, slots - 1)] += int(value)
        histogram.count = int(sketch.get("count", 0))
        histogram.total = float(sketch.get("sum", 0.0))
        histogram.minimum = sketch.get("min")
        histogram.maximum = sketch.get("max")
        profile = cls(
            runs=int(payload.get("runs", 0)),
            latency=histogram,
            total_database_size=float(payload.get("total_database_size", 0.0)),
            total_estimate_magnitude=float(payload.get("total_estimate_magnitude", 0.0)),
        )
        return profile


class ProfileStore:
    """All profile sketches of one service (or one persisted snapshot)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._profiles: Dict[Tuple[str, int, str, str], SchemeProfile] = {}
        self._version = 0
        self._merge_drops = 0

    def __len__(self) -> int:
        return len(self._profiles)

    @property
    def version(self) -> int:
        """Monotone mutation counter: bumped on every :meth:`record` and
        :meth:`merge`.  The adaptive planner includes it in its plan-cache
        key, so cached plans never outlive the snapshot they were predicted
        from."""
        return self._version

    def record(
        self,
        canonical_key: str,
        database_size: int,
        scheme: str,
        seconds: float,
        estimate: Optional[float] = None,
        engine: str = "indexed",
    ) -> None:
        """Fold one execution into the matching sketch (creating it).

        The whole fold happens under the store lock: the sketch's ``runs``
        and size/magnitude totals are plain ``+=`` updates, so mutating them
        outside the lock would let concurrent thread-backend requests lose
        increments (the histogram's own lock protects only the histogram).
        """
        key = (canonical_key, fingerprint_class(database_size), scheme, engine)
        with self._lock:
            profile = self._profiles.get(key)
            if profile is None:
                profile = self._profiles[key] = SchemeProfile()
            profile.record(seconds, database_size, estimate)
            self._version += 1

    def get(
        self,
        canonical_key: str,
        database_size: int,
        scheme: str,
        engine: str = "indexed",
    ) -> Optional[SchemeProfile]:
        return self._profiles.get(
            (canonical_key, fingerprint_class(database_size), scheme, engine)
        )

    def summary(self, canonical_key: str, database_size: int) -> Dict[str, Any]:
        """Every scheme's observed costs for this canonical form in this
        size bucket — the payload ``QueryPlan.observed`` carries into
        ``explain()``.  Empty dict when nothing was observed yet."""
        bucket = fingerprint_class(database_size)
        with self._lock:
            matching = {
                (scheme, engine): profile
                for (key, klass, scheme, engine), profile in self._profiles.items()
                if key == canonical_key and klass == bucket
            }
        if not matching:
            return {}
        schemes = label_by_scheme(
            (scheme, engine, profile.summary())
            for (scheme, engine), profile in sorted(matching.items())
        )
        return {"fingerprint_class": bucket, "schemes": schemes}

    def stats(self) -> Dict[str, Any]:
        """Aggregate store statistics for ``CountingService.stats()``."""
        with self._lock:
            profiles = dict(self._profiles)
        return {
            "entries": len(profiles),
            "runs": sum(profile.runs for profile in profiles.values()),
            "canonical_forms": len({key for key, _, _, _ in profiles}),
            "schemes": sorted({scheme for _, _, scheme, _ in profiles}),
            "engines": sorted({engine for _, _, _, engine in profiles}),
            "version": self._version,
            "merge_drops": self._merge_drops,
        }

    # ----------------------------------------------------------- persistence
    def to_json(self, indent: Optional[int] = None) -> str:
        with self._lock:
            rows: List[Dict[str, Any]] = [
                {
                    "canonical_key": key,
                    "fingerprint_class": klass,
                    "scheme": scheme,
                    "engine": engine,
                    "profile": profile.to_dict(),
                }
                for (key, klass, scheme, engine), profile in sorted(
                    self._profiles.items()
                )
            ]
        return json.dumps({"version": 2, "profiles": rows}, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ProfileStore":
        payload = json.loads(text)
        store = cls()
        for row in payload.get("profiles", []):
            key = (
                str(row["canonical_key"]),
                int(row["fingerprint_class"]),
                str(row["scheme"]),
                # Version-1 snapshots predate the engine label; everything
                # they recorded ran on the indexed engine.
                str(row.get("engine", "indexed")),
            )
            store._profiles[key] = SchemeProfile.from_dict(row.get("profile", {}))
        return store

    def merge(self, other: "ProfileStore") -> None:
        """Fold another store's sketches in (persisted history + live runs).

        Matching histogram boundaries merge bucket-by-bucket.  Mismatched
        boundaries (a snapshot written by an older build with different
        edges) are **rebucketed**: each source bucket's mass lands in the
        target bucket whose upper edge covers the source bucket's upper
        edge, so ``count``/``sum``/quantiles stay consistent with ``runs``
        instead of silently diverging.  Mass the target's finite buckets
        cannot place (source buckets above the target's last edge, and the
        source's overflow bucket) folds into the target's overflow bucket
        and is tallied in the ``merge_drops`` stat — the count/total are
        still folded, only bucket-level precision was dropped.
        """
        with self._lock:
            for key, profile in other._profiles.items():
                mine = self._profiles.get(key)
                if mine is None:
                    self._profiles[key] = SchemeProfile.from_dict(profile.to_dict())
                    self._version += 1
                    continue
                theirs_hist = profile.latency
                mine_hist = mine.latency
                if mine_hist.boundaries == theirs_hist.boundaries:
                    for position, count in enumerate(theirs_hist.bucket_counts):
                        mine_hist.bucket_counts[position] += count
                else:
                    overflow = len(mine_hist.boundaries)
                    for position, count in enumerate(theirs_hist.bucket_counts):
                        if not count:
                            continue
                        if position < len(theirs_hist.boundaries):
                            upper = theirs_hist.boundaries[position]
                            target = bisect_left(mine_hist.boundaries, upper)
                            if target >= overflow:
                                # Above every finite target bucket.
                                target = overflow
                                self._merge_drops += count
                        else:
                            # Their overflow bucket: correct in ours only if
                            # their last edge reaches at least as high.
                            target = overflow
                            if theirs_hist.boundaries[-1] < mine_hist.boundaries[-1]:
                                self._merge_drops += count
                        mine_hist.bucket_counts[target] += count
                mine_hist.count += theirs_hist.count
                mine_hist.total += theirs_hist.total
                for bound in ("minimum", "maximum"):
                    theirs = getattr(theirs_hist, bound)
                    ours = getattr(mine_hist, bound)
                    if theirs is not None and (
                        ours is None
                        or (bound == "minimum" and theirs < ours)
                        or (bound == "maximum" and theirs > ours)
                    ):
                        setattr(mine_hist, bound, theirs)
                mine.runs += profile.runs
                mine.total_database_size += profile.total_database_size
                mine.total_estimate_magnitude += profile.total_estimate_magnitude
                self._version += 1

    # ----------------------------------------------------------- file helpers
    def save(self, path) -> None:
        """Write this store's snapshot to ``path`` (pretty-printed v2 JSON)."""
        with open(path, "w") as handle:
            handle.write(self.to_json(indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "ProfileStore":
        """Read a snapshot written by :meth:`save` (v1 snapshots load with
        the engine defaulted to ``"indexed"``)."""
        with open(path) as handle:
            return cls.from_json(handle.read())
