"""Live counts over sharded databases: delta routing to the owning shard.

``CountingService.subscribe`` on a :class:`ShardedStructure` returns a
:class:`ShardSubscription`: the one subscription core,
:class:`~repro.stream.live.CountSubscription`, with a sharded refresh body.
The core brings the refresh policies (``eager`` / ``debounced`` /
``budget``), the :class:`~repro.stream.live.LiveCount` read envelope, the
``stream.refresh`` span, retries at the ``stream.refresh`` fault site with
stale-serve when they run out, the refresh metrics, drift re-planning and
the lifecycle — exactly as on a monolith.  This module only decides *what*
a refresh recounts.

The subscription decomposes the query once (the same
:func:`~repro.shard.plan.plan_sharded_count` the counting path uses) and
then keeps **one fingerprint per component, restricted to the component's
relations** (aggregated over all shards, so a fact landing on a shard that
did not previously own the component is still seen):

* a mutation routed to shard ``s`` bumps only shard ``s``'s counters for the
  touched relation, so a read after it re-counts exactly the components
  mentioning that relation — the others serve their cached counts for free;
* mutations of relations no component mentions don't even make the handle
  stale (the restriction the monolithic subscription also enjoys);
* universe growth is folded in only for components with a variable outside
  the positive atoms (the :func:`repro.stream.delta.delta_applicable`
  criterion, per component);
* stale reads **check ownership before recounting**: hash-by-tuple
  placement can move a relation's owning shard, so when some component's
  owner set moved the subscription re-plans and recounts follow the fresh
  plan — and when the decomposition stops localising entirely, it degrades
  to always-correct whole-query recomputes.  Unmoved owner sets keep the
  pinned plan (a single/local plan depends on nothing else).

Union/merged-strategy queries (answers span shards) have no per-shard
locality to exploit: the subscription keeps the core's one aggregate
fingerprint and recounts the whole query through the service's ``submit``
when it goes stale, exactly as the monolithic core does.

``mode`` is ``"initial"``, ``"shard-partial"`` (only touched shards
recounted), ``"shard-recount"`` (every component), or ``"recount"``
(union/merged recompute).  Only the last two count the whole query, so only
they feed the core's rolling prediction-error drift trigger.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import FrozenSet, Tuple

from repro.queries.canonical import query_relation_names
from repro.queries.components import query_components
from repro.queries.query import ConjunctiveQuery
from repro.relational.changelog import Fingerprint
from repro.shard.executor import combine_local_estimates
from repro.shard.plan import ShardCountPlan, plan_sharded_count
from repro.shard.sharded import ShardedStructure
from repro.stream.delta import delta_applicable
from repro.stream.live import CountSubscription, ticks_between
from repro.util.estimation import Budget


@dataclass
class _ComponentState:
    """One component's cached count and the fingerprint backing it.

    The fingerprint is the **aggregate** (all-shard) fingerprint restricted
    to the component's relations: a fact of a watched relation landing on a
    shard that did not previously own the component still makes the
    component stale (hash-by-tuple routing can move a relation's ownership),
    while mutations of other relations stay invisible — the restriction that
    makes untouched-shard reads free.  ``shard`` is the owning shard of the
    *current* plan; refreshes re-plan before recounting, so it tracks
    ownership migrations.
    """

    shard: int
    component: int
    query: ConjunctiveQuery
    relations: Tuple[str, ...]
    universe_sensitive: bool
    fingerprint: Fingerprint
    estimate: float
    refreshes: int = 0

    def pending_ticks(self, sharded: ShardedStructure) -> int:
        return ticks_between(
            self.fingerprint,
            sharded.version_fingerprint(self.relations),
            self.universe_sensitive,
        )


class ShardSubscription(CountSubscription):
    """A live handle on one ``(query, sharded database)`` count.

    Created by :meth:`repro.service.service.CountingService.subscribe`; not
    instantiated directly.  The counting scheme and the shard decomposition
    are pinned at subscribe time.
    """

    def _count_initial(self) -> None:
        # A single/local plan is a function of the components and their
        # owner shards only: keep the components' relation names and the
        # owner sets the plan was made from, so a refresh re-plans only
        # when an owner set moved.
        self._component_relations = tuple(
            query_relation_names(component) for component in query_components(self.query)
        )
        self._owners = self._owner_sets()
        self.shard_plan: ShardCountPlan = plan_sharded_count(self.query, self._database)
        self._components = []
        if self.shard_plan.strategy not in ("single", "local"):
            self._estimate = self._recompute_union(refresh_index=0)
            return
        for task in self.shard_plan.tasks:
            state = _ComponentState(
                shard=task.shard,
                component=task.component,
                query=task.query,
                relations=query_relation_names(task.query),
                universe_sensitive=not delta_applicable(task.query, True),
                fingerprint=(0, ()),
                estimate=0.0,
            )
            self._recount_component(state, refresh_index=0)
            self._components.append(state)
        self._estimate = self._combined()

    def _owner_sets(self) -> Tuple[FrozenSet[int], ...]:
        return tuple(
            self._database.owner_shards(relations) for relations in self._component_relations
        )

    def _recount_component(self, state: _ComponentState, refresh_index: int) -> None:
        from repro.core.registry import REGISTRY

        shard = self._database.shards[state.shard]
        seed = self._seed_for(refresh_index, state.component)
        budget = self.shard_plan.task_budget(self.scheme, Budget(self.epsilon, self.delta))
        state.estimate = REGISTRY.count(
            self.scheme,
            state.query,
            shard,
            epsilon=budget.epsilon,
            delta=budget.delta,
            rng=seed,
            engine=self.plan.engine,
        ).estimate
        state.fingerprint = self._database.version_fingerprint(state.relations)
        if refresh_index > 0:
            state.refreshes += 1
        self._last_seed = seed

    def _recompute_union(self, refresh_index: int) -> float:
        seed = self._seed_for(refresh_index, 0)
        estimate = self._service.submit(self._recount_request(seed)).estimate
        self._last_seed = seed
        return estimate

    def _combined(self) -> float:
        return combine_local_estimates([state.estimate for state in self._components])

    def pending_ticks(self) -> int:
        """Version bumps not yet folded into the served value — only bumps on
        the owning shard of some component (or, for union plans, on any
        shard) count."""
        if not self._components:
            return super().pending_ticks()
        return sum(state.pending_ticks(self._database) for state in self._components)

    def _refresh_body(self, refresh_index: int) -> Tuple[str, ...]:
        started = time.perf_counter()
        if self._components:
            if self._force_recount:
                # A drift re-plan changed the scheme: the cached
                # per-component counts came from the old one.
                stale = list(self._components)
            else:
                stale = [
                    state
                    for state in self._components
                    if state.pending_ticks(self._database) > 0
                ]
            if stale and not self._replan_shards(stale, refresh_index):
                # Ownership migrated beyond the pinned decomposition (e.g. a
                # hash-by-tuple relation stopped localising): degrade to
                # whole-query recomputes on the core's aggregate fingerprint
                # — always correct, no per-shard routing anymore.
                self._components = []
            else:
                self._estimate = self._combined()
                self._mode = (
                    "shard-recount" if len(stale) == len(self._components) else "shard-partial"
                )
        if not self._components:
            self._estimate = self._recompute_union(refresh_index)
            self._mode = "recount"
        if self._mode != "shard-partial":
            self._note_prediction_error(time.perf_counter() - started)
        return ()

    def _replan_shards(self, stale, refresh_index: int) -> bool:
        """Re-plan before recounting stale components: mutations can move a
        relation's owning shard (hash-by-tuple placement).  The plan is
        rebuilt only when some component's owner set moved.  Returns
        ``False`` when the fresh plan no longer matches the pinned
        decomposition (the caller then degrades to whole-query recomputes);
        otherwise updates each component's owning shard and recounts the
        stale ones."""
        owners = self._owner_sets()
        if owners != self._owners:
            fresh = plan_sharded_count(self.query, self._database)
            self.shard_plan = fresh
            self._owners = owners
            if fresh.strategy not in ("single", "local"):
                return False
            if len(fresh.tasks) != len(self._components):
                return False
            for state, task in zip(self._components, fresh.tasks):
                state.shard = task.shard
        for state in stale:
            self._recount_component(state, refresh_index)
        return True

    @property
    def strategy(self) -> str:
        return self.shard_plan.strategy

    @property
    def component_refreshes(self) -> Tuple[int, ...]:
        """Per-component refresh counters, in component order (empty for
        union/merged plans) — the observable behind "only touched shards
        recount"."""
        return tuple(state.refreshes for state in self._components)
