"""Streaming workload driver: interleaved insert/delete/query schedules.

The batch workload (:mod:`repro.service.workload`) models a fixed database
hit by a burst of queries; this module models the *streaming* regime — a
database mutating continuously while subscribed queries are read between
mutations.  It produces randomized schedules over the existing synthetic
generators and replays them against ``CountingService.subscribe`` —
:func:`run_stream` is the ``python -m repro stream`` CLI backend, and
:func:`stream_schedule` (restricted to pure mutation events) drives the
``benchmarks/record_perf.py --suite stream`` measurement loop.

A schedule is a list of :class:`StreamEvent`\\ s:

* ``insert`` — add a random fact to a relation (mostly within the existing
  universe; occasionally a fresh vertex, exercising universe growth),
* ``delete`` — remove a random currently-present fact,
* ``query`` — read one of the subscriptions.

Determinism: schedules are generated from a seed, and replaying the same
schedule with the same seeds yields identical exact counts (the differential
tests additionally verify each exact read against a from-scratch recount).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.queries.query import ConjunctiveQuery
from repro.relational.structure import Database, Fact
from repro.service.service import CountingService
from repro.util.rng import RNGLike, as_generator, choice_cdf, draw_index

#: Relative frequencies of the event kinds in a default mixed schedule.
DEFAULT_MIX = {"insert": 0.25, "delete": 0.15, "query": 0.6}


@dataclass(frozen=True)
class StreamEvent:
    """One step of a streaming schedule."""

    kind: str  # "insert" | "delete" | "query"
    relation: Optional[str] = None
    fact: Optional[Fact] = None
    query_index: Optional[int] = None


def stream_schedule(
    num_events: int,
    database: Database,
    num_queries: int,
    rng: RNGLike = None,
    mix: Optional[Dict[str, float]] = None,
    relations: Optional[Sequence[str]] = None,
    fresh_vertex_probability: float = 0.05,
) -> List[StreamEvent]:
    """A randomized interleaving of ``num_events`` inserts, deletes and query
    reads over ``database``'s relations.

    Inserts draw uniform pairs over the universe (or, with
    ``fresh_vertex_probability``, introduce a new vertex); deletes pick a
    random present fact and are skipped for empty relations (an insert is
    scheduled instead).  ``relations`` defaults to every declared relation.
    The database is **not** mutated — the schedule is replayed later by
    :func:`run_stream`.
    """
    if num_events <= 0:
        raise ValueError("num_events must be positive")
    if num_queries <= 0:
        raise ValueError("num_queries must be positive")
    generator = as_generator(rng)
    mix = dict(DEFAULT_MIX if mix is None else mix)
    kinds = sorted(mix)
    weights = [mix[kind] for kind in kinds]
    total = sum(weights)
    if total <= 0:
        raise ValueError("mix weights must have a positive sum")
    cdf = choice_cdf([weight / total for weight in weights])
    names = list(relations) if relations is not None else database.signature.names()
    if not names:
        raise ValueError("database declares no relations to mutate")
    arities = {name: database.signature[name].arity for name in names}

    # Track the evolving relation contents and universe while scheduling, so
    # deletes always name a fact that will be present at replay time.
    contents: Dict[str, set] = {name: set(database.relation(name)) for name in names}
    universe = list(database.canonical_universe())
    next_fresh = 0

    def fresh_vertex():
        nonlocal next_fresh
        while f"v{next_fresh}" in database.universe:
            next_fresh += 1
        name = f"v{next_fresh}"
        next_fresh += 1
        return name

    events: List[StreamEvent] = []
    for _ in range(num_events):
        kind = kinds[draw_index(cdf, generator)]
        if kind == "query":
            events.append(
                StreamEvent(
                    kind="query",
                    query_index=int(generator.integers(0, num_queries)),
                )
            )
            continue
        relation = names[int(generator.integers(0, len(names)))]
        if kind == "delete" and contents[relation]:
            facts = sorted(contents[relation], key=repr)
            fact = facts[int(generator.integers(0, len(facts)))]
            contents[relation].discard(fact)
            events.append(StreamEvent(kind="delete", relation=relation, fact=fact))
            continue
        # Insert (also the fallback when a delete found the relation empty).
        arity = arities[relation]
        fact = None
        for _attempt in range(8):
            values = []
            for _position in range(arity):
                if universe and generator.random() >= fresh_vertex_probability:
                    values.append(universe[int(generator.integers(0, len(universe)))])
                else:
                    vertex = fresh_vertex()
                    universe.append(vertex)
                    values.append(vertex)
            candidate = tuple(values)
            if candidate not in contents[relation]:
                fact = candidate
                break
        if fact is None:
            # Near-saturated relation: force a genuinely new fact through a
            # fresh vertex rather than replaying a no-op insert.
            vertex = fresh_vertex()
            universe.append(vertex)
            fact = (vertex,) * arity
        contents[relation].add(fact)
        events.append(StreamEvent(kind="insert", relation=relation, fact=fact))
    return events


@dataclass
class StreamReport:
    """What a :func:`run_stream` replay did and how fast."""

    num_events: int
    inserts: int
    deletes: int
    reads: int
    refreshes: int
    #: Reads served without a refresh because the query's relations were
    #: untouched since the stored value.
    fresh_serves: int
    #: Reads that served a stale value (policy deferred the refresh).
    stale_serves: int
    #: Refresh modes observed, e.g. ``{"delta": 12, "reestimate": 3}``.
    modes: Dict[str, int]
    wall_seconds: float
    #: Wall-clock seconds the subscriptions spent inside refreshes (summed
    #: ``CountSubscription.spent_seconds`` — the refresh-timing share of
    #: ``wall_seconds``).
    refresh_seconds: float = 0.0
    #: Final per-subscription estimates, by query index.
    final_estimates: List[float] = field(default_factory=list)
    verified_reads: int = 0

    @property
    def events_per_second(self) -> float:
        return self.num_events / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "num_events": self.num_events,
            "inserts": self.inserts,
            "deletes": self.deletes,
            "reads": self.reads,
            "refreshes": self.refreshes,
            "fresh_serves": self.fresh_serves,
            "stale_serves": self.stale_serves,
            "modes": dict(self.modes),
            "wall_seconds": round(self.wall_seconds, 6),
            "refresh_seconds": round(self.refresh_seconds, 6),
            "events_per_second": round(self.events_per_second, 2),
            "final_estimates": list(self.final_estimates),
            "verified_reads": self.verified_reads,
        }


def run_stream(
    service: CountingService,
    queries: Sequence[ConjunctiveQuery],
    database: Database,
    schedule: Sequence[StreamEvent],
    refresh: str = "eager",
    debounce_ticks: int = 4,
    budget_seconds: float = 1.0,
    seed: Optional[int] = None,
    verify: bool = False,
) -> Tuple[StreamReport, List]:
    """Replay ``schedule`` against live subscriptions on ``queries``.

    One subscription per query is opened up front (seeded
    ``derive_seed(seed, i)``-style via the request seed), mutation events are
    applied to ``database``, and query events read the addressed
    subscription.  With ``verify=True`` every read of an exact-scheme
    subscription is checked against a from-scratch recount (slow; used by the
    differential tests and the bench's verification pass).

    Returns ``(report, subscriptions)``; the subscriptions are left open so
    callers can keep reading, and should be ``close()``\\ d when done.
    """
    from repro.core.exact import count_answers_exact
    from repro.stream.live import EXACT_SCHEMES
    from repro.util.rng import derive_seed

    subscriptions = []
    for index, query in enumerate(queries):
        from repro.service.service import CountRequest

        request = CountRequest(
            query=query,
            database=database,
            seed=None if seed is None else derive_seed(seed, index),
        )
        subscriptions.append(
            service.subscribe(
                request,
                refresh=refresh,
                debounce_ticks=debounce_ticks,
                budget_seconds=budget_seconds,
            )
        )

    inserts = deletes = reads = refreshes = fresh_serves = stale_serves = 0
    verified = 0
    modes: Dict[str, int] = {}
    started = time.perf_counter()
    for event in schedule:
        if event.kind == "insert":
            database.add_fact(event.relation, event.fact)
            inserts += 1
        elif event.kind == "delete":
            database.remove_fact(event.relation, event.fact)
            deletes += 1
        elif event.kind == "query":
            subscription = subscriptions[event.query_index % len(subscriptions)]
            live = subscription.read()
            reads += 1
            if live.refreshed:
                refreshes += 1
                modes[live.mode] = modes.get(live.mode, 0) + 1
            elif live.fresh:
                fresh_serves += 1
            else:
                stale_serves += 1
            if verify and live.fresh and subscription.scheme in EXACT_SCHEMES:
                expected = count_answers_exact(subscription.query, database)
                if live.estimate != expected:
                    raise AssertionError(
                        f"incremental count diverged: query "
                        f"{event.query_index} live={live.estimate} "
                        f"recount={expected}"
                    )
                verified += 1
        else:
            raise ValueError(f"unknown stream event kind {event.kind!r}")
    wall = time.perf_counter() - started

    # The final forced reads happen before the report so their refresh time
    # is included in ``refresh_seconds``.
    final_estimates = [sub.read(force=True).estimate for sub in subscriptions]
    report = StreamReport(
        num_events=len(schedule),
        inserts=inserts,
        deletes=deletes,
        reads=reads,
        refreshes=refreshes,
        fresh_serves=fresh_serves,
        stale_serves=stale_serves,
        modes=modes,
        wall_seconds=wall,
        refresh_seconds=sum(sub.spent_seconds for sub in subscriptions),
        final_estimates=final_estimates,
        verified_reads=verified,
    )
    return report, subscriptions


__all__ = [
    "StreamEvent",
    "StreamReport",
    "stream_schedule",
    "run_stream",
    "DEFAULT_MIX",
]
