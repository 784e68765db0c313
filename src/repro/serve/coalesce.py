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

The coalescer is event-loop confined (no locks): membership checks and
future resolution all happen on the server's asyncio loop; only the counting
itself runs in a worker thread.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Dict, Hashable, Tuple

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


class _InFlight:
    """One running count: the future followers await plus bookkeeping."""

    __slots__ = ("future", "followers")

    def __init__(self, future: "asyncio.Future[Any]") -> None:
        self.future = future
        self.followers = 0


class Coalescer:
    """Deduplicate identical in-flight awaitables by key.

    ``fetch(key, runner)`` either *leads* (runs ``runner()`` and publishes
    the outcome) or *follows* (awaits the leader's future).  Returns
    ``(result, coalesced)``.  Leader failures propagate to every follower;
    a cancelled follower never cancels the leader (the future is shielded).
    The caller keeps the tallies (the server's ``serve.led`` and
    ``serve.coalesced`` metrics).
    """

    def __init__(self) -> None:
        self._inflight: Dict[Hashable, _InFlight] = {}

    async def fetch(
        self, key: Hashable, runner: Callable[[], Awaitable[Any]]
    ) -> Tuple[Any, bool]:
        entry = self._inflight.get(key)
        if entry is not None:
            entry.followers += 1
            # shield: a follower timing out/disconnecting must not cancel
            # the shared execution other followers (and the leader) await.
            return await asyncio.shield(entry.future), True

        loop = asyncio.get_running_loop()
        entry = _InFlight(loop.create_future())
        self._inflight[key] = entry
        try:
            result = await runner()
        except BaseException as error:  # noqa: BLE001 - re-raised below
            self._inflight.pop(key, None)
            if entry.followers:
                entry.future.set_exception(error)
                # Mark retrieved so the loop never logs "exception was
                # never retrieved" if every follower was cancelled.
                entry.future.exception()
            else:
                entry.future.cancel()
            raise
        self._inflight.pop(key, None)
        entry.future.set_result(result)
        return result, False
