"""A small thread-safe LRU cache with hit/miss/eviction statistics.

Backs every cache of the package:

* the **prepared-query cache** (canonical query form ->
  :class:`repro.queries.prepared.PreparedQuery`), the process-wide store of
  compiled query artifacts (hypergraph, widths, decompositions),
* the service's **plan cache** (canonical query form + planner inputs ->
  QueryPlan), which skips re-deciding on repeated queries, and
* the service's **result cache** (canonical query form + database version
  fingerprint + scheme parameters -> estimate), which skips recounting
  entirely.

The module lives in :mod:`repro.util` rather than :mod:`repro.service` so the
queries/core layers can use it without depending on the service layer.

Entries rarely need explicit invalidation: the database component of every
result key embeds the structure's per-relation version counters, so mutating
a relation changes the keys of all affected queries and stale entries are
never *served*.  Under one-shot batch use they simply age out through LRU
eviction; under **streaming** use (long-lived, frequently mutated databases)
dead-fingerprint entries pile up faster than they churn out, so the cache
also supports targeted eviction: :meth:`LRUCache.invalidate_where` drops
every entry matching a key predicate, and
``CountingService.evict(database)`` uses it to purge all entries keyed to a
database's structure token in one call.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Optional


@dataclass
class CacheStats:
    """Counters reported by :meth:`LRUCache.stats`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    max_size: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "max_size": self.max_size,
            "hit_rate": round(self.hit_rate, 4),
        }


class LRUCache:
    """Least-recently-used cache over hashable keys.

    ``max_size <= 0`` disables caching entirely (every lookup misses, nothing
    is stored) — used to switch the service's caches off without littering the
    call sites with conditionals.
    """

    _MISSING = object()

    def __init__(self, max_size: int) -> None:
        self._max_size = int(max_size)
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, marking it most recently used on a hit."""
        with self._lock:
            value = self._entries.get(key, self._MISSING)
            if value is self._MISSING:
                self._misses += 1
                return default
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key`` without touching recency or statistics."""
        with self._lock:
            value = self._entries.get(key, self._MISSING)
            return default if value is self._MISSING else value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh ``key``, evicting the least recently used entry
        when full."""
        if self._max_size <= 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self._max_size:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def invalidate_where(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose *key* satisfies ``predicate``; returns how
        many were dropped (counted as evictions in :meth:`stats`).

        The streaming hook: result keys embed a database structure token and
        version fingerprint, so ``invalidate_where(lambda key: ...token...)``
        purges the dead entries a long-lived mutating database strands,
        instead of waiting for LRU churn.  The predicate runs under the cache
        lock — keep it cheap and non-reentrant.
        """
        with self._lock:
            doomed = [key for key in self._entries if predicate(key)]
            for key in doomed:
                del self._entries[key]
            self._evictions += len(doomed)
            return len(doomed)

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                max_size=self._max_size,
            )
