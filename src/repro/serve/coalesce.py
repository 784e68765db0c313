"""Request coalescing: identical in-flight work shares one execution.

The paper's whole economy — cheap approximate counting under the Figure-1
dichotomy — pays off at serving scale when a thundering herd of the same
query costs **one** count.  The PR-2 result cache already makes the herd
cheap *after* the first response lands; the :class:`Coalescer` closes the
window *during* it: requests that arrive while an identical count is still
running await the leader's future instead of starting their own.

Identity is the :func:`coalescing_key` — ``(canonical query form, version
fingerprint restricted to the query's relations, epsilon, delta, seed,
method, latency budget)`` after the service's request resolution:

* the **canonical form** makes alpha-renamed queries coalesce (the same
  sharing the plan/result caches exploit);
* the **restricted fingerprint** splits the key the instant a mutation
  touches one of the query's relations, so a follower never receives a
  count of the *previous* database state;
* **seed** joins the key because two requests with different explicit seeds
  are entitled to different random estimates — sharing would be wrong, not
  just surprising;
* the **latency budget** joins the key because the adaptive planner may
  pick a different scheme under a different budget.

Connection threads share the coalescer: one lock guards the in-flight
table, and a follower blocks on the leader's ``concurrent.futures.Future``
while the leader counts on its own thread.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Any, Callable, Dict, Hashable, Tuple

from repro.queries.canonical import query_relation_names
from repro.queries.prepared import prepare
from repro.service.service import CountingService, CountRequest


def coalescing_key(service: CountingService, request: CountRequest) -> Tuple:
    """The in-flight identity of a request (see module docstring), built
    from the service's own :meth:`~CountingService.resolve` — the resolution
    its pipeline counts the request under."""
    request = service.resolve(request)
    return (
        prepare(request.query).canonical_key,
        request.database.version_fingerprint(query_relation_names(request.query)),
        request.epsilon,
        request.delta,
        request.seed,
        request.method,
        request.latency_budget_seconds,
    )


class Coalescer:
    """Deduplicate identical in-flight calls by key.

    ``fetch(key, runner)`` either *leads* (runs ``runner()`` and publishes
    the outcome) or *follows* (blocks on the leader's future).  Returns
    ``(result, coalesced)``.  Leader failures propagate to every follower.
    The caller keeps the tallies (the server's ``serve.led`` and
    ``serve.coalesced`` metrics).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: Dict[Hashable, "Future[Any]"] = {}

    def fetch(self, key: Hashable, runner: Callable[[], Any]) -> Tuple[Any, bool]:
        with self._lock:
            future = self._inflight.get(key)
            leading = future is None
            if leading:
                future = self._inflight[key] = Future()
        if not leading:
            return future.result(), True
        try:
            result = runner()
        except BaseException as error:  # noqa: BLE001 - re-raised below
            future.set_exception(error)
            raise
        else:
            future.set_result(result)
            return result, False
        finally:
            with self._lock:
                del self._inflight[key]
