"""Live count handles: one subscription core, two refresh bodies.

``CountingService.subscribe(request)`` returns a long-lived handle on one
``(query, database)`` pair whose value survives database mutations.  Every
``read()`` returns a :class:`LiveCount` carrying the estimate *and* its
staleness metadata, and decides — according to the subscription's refresh
policy — whether to fold the pending mutations in first.

:class:`CountSubscription` is the one subscription core.  It owns what every
live handle shares: policy validation, pending ticks (:func:`ticks_between`
over fingerprints restricted to the query's relations), the refresh
decision, the ``stream.refresh`` span, the retry loop at the
``stream.refresh`` fault site with stale-serve when retries run out, the
``stream.refreshes{mode=}`` / ``stream.refresh_seconds`` metrics, drift
re-planning, and the ``read`` / ``refresh`` / ``add_budget`` / ``close``
lifecycle.  Only the *refresh body* differs between the two handles:

* **The monolith** (:class:`CountSubscription` itself, on a plain
  :class:`~repro.relational.structure.Structure`):

  - *Untouched-relation updates are free.*  The stored fingerprint is
    restricted to the query's relations (the same restriction the service
    result cache keys on), so mutations elsewhere do not even make the handle
    stale.  Universe growth is likewise ignored when every query variable
    occurs in a positive atom (then new elements cannot carry new answers
    without a touched fact).
  - *Touched-relation updates on exact schemes delta-patch.*  The database's
    shared :class:`~repro.relational.changelog.ChangeLog` yields the net
    delta since the stored fingerprint;
    :func:`repro.stream.delta.delta_count_exact` turns it into ``new - old``
    and the stored value is patched — bit-identical to a from-scratch
    recount, at delta cost.  When the log has a gap or the delta argument is
    inapplicable (see :func:`~repro.stream.delta.delta_applicable`), the
    subscription falls back to a full recount through the service.
  - *Touched-relation updates on approximate schemes re-estimate* through
    the service with a deterministically derived seed
    (``derive_seed(base_seed, refresh_index)``), so a refreshed read equals
    the direct registry call with the same seed.  Results land in the
    service result cache under the current fingerprint, and refreshes check
    that cache first — concurrent subscriptions on the same shape share
    work.

* **Sharded databases** get
  :class:`~repro.shard.subscription.ShardSubscription`, a subclass whose
  body recounts only the query components living on touched shards (or the
  whole union/merged query), seeded ``derive_seed(base_seed, refresh_index,
  component)``.

Refresh policies (``refresh=``):

``"eager"``
    Every read of a stale handle refreshes before returning.
``"debounced"``
    Refresh only once at least ``debounce_ticks`` mutation ticks (version
    bumps of the query's relations) have accumulated; earlier reads serve
    the stale value, marked as such.
``"budget"``
    Refresh while the accumulated refresh cost stays under
    ``budget_seconds``; once exhausted, reads serve stale values until
    :meth:`~CountSubscription.add_budget` tops the account up.

``read(force=True)`` (or :meth:`~CountSubscription.refresh`) overrides any
policy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.registry import EXACT_SCHEMES
from repro.obs.profile import fingerprint_class
from repro.obs.trace import activate, span
from repro.queries.canonical import query_relation_names
from repro.relational.changelog import ChangeLog, ChangeLogGap, Fingerprint, rewind
from repro.relational.structure import Structure
from repro.resilience.retry import RetriesExhausted, run_with_retry
from repro.stream.delta import delta_applicable, delta_count_exact
from repro.util.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (service imports us)
    from repro.service.service import CountingService, CountRequest

REFRESH_POLICIES = ("eager", "debounced", "budget")

#: Drift re-planning knobs: a refresh first re-plans when the database has
#: crossed a fingerprint (log2 size) class since the plan was made, or when
#: the rolling mean of the last ``REPLAN_ERROR_WINDOW`` predicted-vs-actual
#: latency ratios exceeds ``REPLAN_ERROR_THRESHOLD`` — the "cheap-exact at
#: 1k facts isn't cheap at 10M" case.  Re-plans that change the scheme (or
#: engine) show up as ``stream.replan`` span events, a ``stream.replans``
#: counter increment, and provenance on the next :class:`LiveCount`.
REPLAN_ERROR_WINDOW = 4
REPLAN_ERROR_THRESHOLD = 4.0


def ticks_between(old: Fingerprint, new: Fingerprint, universe_sensitive: bool) -> int:
    """Version bumps between two relation-restricted fingerprints of the same
    relations, plus universe growth when ``universe_sensitive``."""
    old_universe, old_relations = old
    new_universe, new_relations = new
    ticks = sum(
        new_version - old_version
        for (_, old_version), (_, new_version) in zip(old_relations, new_relations)
    )
    if universe_sensitive:
        ticks += new_universe - old_universe
    return ticks


@dataclass(frozen=True)
class LiveCount:
    """One read of a subscription: the estimate plus staleness metadata."""

    estimate: float
    scheme: str
    query_class: str
    #: ``True`` when the value reflects the database contents at read time.
    fresh: bool
    #: Whether *this* read performed a refresh.
    refreshed: bool
    #: How the served value was (last) computed: ``"initial"`` | ``"delta"``
    #: | ``"recount"`` | ``"reestimate"`` | ``"cached"`` on a monolith;
    #: ``"initial"`` | ``"shard-partial"`` | ``"shard-recount"`` |
    #: ``"recount"`` on a sharded database.
    mode: str
    #: Version bumps of the query's relations not yet folded into the value
    #: (0 when fresh).
    pending_ticks: int
    #: Refreshes performed over the subscription's lifetime (initial compute
    #: excluded).
    refresh_count: int
    #: The seed the served value was computed with (``None`` for exact
    #: schemes); a direct registry call with this seed reproduces it.
    seed: Optional[int]
    epsilon: float
    delta: float
    #: Resilience provenance of the last refresh attempt: injected faults
    #: absorbed by retries, or the stale-serve note when retries ran out.
    degradations: Tuple[str, ...] = ()
    #: Change-log gaps survived so far: each one forced a full recount, after
    #: which the fingerprint re-anchors so later refreshes delta-patch again.
    gap_recounts: int = 0
    #: Drift re-plans that changed the scheme/engine over the subscription's
    #: lifetime, and one provenance note per re-plan (what crossed, old ->
    #: new scheme).
    replans: int = 0
    replan_events: Tuple[str, ...] = ()

    @property
    def count(self) -> int:
        """The estimate rounded to the nearest integer."""
        return int(round(self.estimate))


class _StreamState:
    """Per-database streaming state the service keeps: the live
    subscriptions on one database plus, for a plain
    :class:`~repro.relational.structure.Structure`, one shared change log.

    The log only records relations some live subscription watches (refcounted
    via :meth:`watch`/part of :meth:`discard`), so heavy churn on unwatched
    relations — the advertised "free" path — cannot grow it.  A sharded
    database has no fact-observer hook and its subscriptions recount instead
    of patching, so its state carries no log."""

    def __init__(self, database) -> None:
        self.database = database
        self._watched: Dict[str, int] = {}
        self.changelog: Optional[ChangeLog] = (
            ChangeLog(database, relation_filter=self._watched.__contains__)
            if isinstance(database, Structure)
            else None
        )
        self.subscriptions: List["CountSubscription"] = []

    def watch(self, relation_names) -> None:
        """Start recording ``relation_names`` (called before the watching
        subscription takes its first fingerprint)."""
        for name in relation_names:
            count = self._watched.get(name, 0)
            if count == 0 and self.changelog is not None:
                # The unrecorded window ends here; covers() must know.
                self.changelog.mark_floor(name)
            self._watched[name] = count + 1

    def unwatch(self, relation_names) -> None:
        for name in relation_names:
            count = self._watched.get(name, 0) - 1
            if count <= 0:
                self._watched.pop(name, None)
            else:
                self._watched[name] = count

    def discard(self, subscription: "CountSubscription") -> bool:
        """Remove a subscription; returns ``True`` when none remain (the
        change log is then detached and the caller drops this state)."""
        try:
            self.subscriptions.remove(subscription)
            self.unwatch(subscription._relations)
        except ValueError:
            pass
        if not self.subscriptions:
            if self.changelog is not None:
                self.changelog.detach()
            return True
        self.trim()
        return False

    def trim(self) -> None:
        """Drop change-log events no live subscription can still ask about:
        per relation, everything at or before the minimum subscribed
        fingerprint version (relations no subscription watches are trimmed
        to the present)."""
        if self.changelog is None:
            return
        floors: Dict[str, int] = {}
        for subscription in self.subscriptions:
            _, relation_versions = subscription._fingerprint
            for name, version in relation_versions:
                floors[name] = min(floors.get(name, version), version)
        current = self.database._relation_versions
        entries = tuple(
            (name, floors.get(name, current.get(name, 0)))
            for name in self.changelog.recorded_relations()
        )
        if entries:
            self.changelog.trim((0, entries))


class CountSubscription:
    """A live handle on one ``(query, database)`` count — the subscription
    core, with the monolithic refresh body.

    Created by :meth:`repro.service.service.CountingService.subscribe`; not
    instantiated directly.  The plan (scheme, engine) is pinned at subscribe
    time so refreshes never silently hop between schemes as the database
    grows (only drift re-planning moves it).  Subclasses replace
    :meth:`_count_initial`, :meth:`_refresh_body` and, when they track finer
    fingerprints, :meth:`pending_ticks`.
    """

    def __init__(
        self,
        service: "CountingService",
        request: "CountRequest",
        state: _StreamState,
        refresh: str = "eager",
        debounce_ticks: int = 4,
        budget_seconds: float = 1.0,
    ) -> None:
        if refresh not in REFRESH_POLICIES:
            raise ValueError(
                f"unknown refresh policy {refresh!r}; expected one of "
                f"{REFRESH_POLICIES}"
            )
        if debounce_ticks < 1:
            raise ValueError("debounce_ticks must be at least 1")
        self._service = service
        self._request = request
        self._state = state
        self._database = request.database
        self._policy = refresh
        self._debounce_ticks = int(debounce_ticks)
        self._budget_seconds = float(budget_seconds)
        self._spent_seconds = 0.0
        self._closed = False

        self.query = request.query
        # CountingService.subscribe hands over a resolved request: its
        # database, epsilon, delta and latency budget are already set.
        self.epsilon = request.epsilon
        self.delta = request.delta
        self._base_seed = request.seed
        self._relations = query_relation_names(request.query)
        from repro.queries.prepared import prepare

        # The query never changes; compute its canonical key once instead of
        # re-canonicalising on every refresh's cache lookup.
        self._canonical_key = prepare(request.query).canonical_key
        # Universe growth can only matter when some variable ranges outside
        # the positive atoms (see delta_applicable); otherwise ignore it.
        self._universe_sensitive = not delta_applicable(request.query, True)
        self.plan = self._plan()
        self.scheme = self.plan.scheme
        self.query_class = self.plan.query_class
        #: Drift tracking: the fingerprint class the current plan was made
        #: at, the rolling predicted-vs-actual ratios of recent refreshes,
        #: and the re-plan provenance served on every LiveCount.
        self._planned_class = fingerprint_class(self._database.size())
        self._error_ratios: List[float] = []
        self._replans = 0
        self._replan_events: Tuple[str, ...] = ()
        self._force_recount = False

        self._refresh_count = 0
        #: Position among the state's subscriptions at creation — the stable
        #: half of this subscription's ``stream.refresh`` fault key.
        self._ordinal = len(state.subscriptions)
        self._degradations: Tuple[str, ...] = ()
        self._gap_recounts = 0
        self._last_seed: Optional[int] = None
        self._count_initial()
        self._mode = "initial"
        self._fingerprint = self._database.version_fingerprint(self._relations)

    # -------------------------------------------------------------- internals
    def _plan(self):
        return self._service.planner.plan(
            self.query,
            self._database,
            override=self._request.method,
            latency_budget_seconds=self._request.latency_budget_seconds,
        )

    def _seed_for(self, refresh_index: int, *path: int) -> Optional[int]:
        if self.scheme in EXACT_SCHEMES or self._base_seed is None:
            # Exact schemes ignore randomness; a stable None seed makes their
            # result-cache entries shareable across refreshes and callers.
            return None
        return derive_seed(self._base_seed, refresh_index, *path)

    def pending_ticks(self) -> int:
        """Version bumps of the query's relations (plus universe growth, when
        this query is sensitive to it) since the stored value."""
        return ticks_between(
            self._fingerprint,
            self._database.version_fingerprint(self._relations),
            self._universe_sensitive,
        )

    def _should_refresh(self, ticks: int) -> bool:
        if ticks <= 0:
            return False
        if self._policy == "eager":
            return True
        if self._policy == "debounced":
            return ticks >= self._debounce_ticks
        return self._spent_seconds < self._budget_seconds

    def _refresh(self) -> None:
        """Fold pending mutations in, under the service's failure model.

        The refresh body is one retryable operation at the
        ``stream.refresh`` fault site (key = subscription ordinal + refresh
        index); a retried refresh re-runs with the same derived seed, so
        recovery is bit-identical.  When retries run out the subscription
        *serves stale*: the stored value, fingerprint, and refresh index all
        stay put, so the next read simply tries this refresh again.

        Telemetry: each refresh records a ``stream.refresh`` span on the
        service's tracer (a nested ``submit`` nests under it thanks to
        tracer re-activation being a no-op), a per-mode refresh counter and
        a refresh-latency histogram on the service's metrics registry."""
        refresh_index = self._refresh_count + 1
        site_key = (self._ordinal, refresh_index)
        with activate(self._service.tracer):
            with span(
                "stream.refresh",
                ordinal=self._ordinal,
                refresh_index=refresh_index,
                scheme=self.scheme,
            ) as refresh_span:
                self._maybe_replan(refresh_span)
                started = time.perf_counter()
                try:
                    notes, trace = run_with_retry(
                        lambda: self._refresh_body(refresh_index),
                        sites=(("stream.refresh", site_key),),
                        policy=self._service.config.retry,
                        plan=self._service.config.fault_plan,
                    )
                except RetriesExhausted as error:
                    mode = "stale"
                    self._degradations = (
                        f"stream.refresh{list(site_key)}: retries exhausted; "
                        f"serving stale value ({error})",
                    )
                else:
                    mode = self._mode
                    self._degradations = (*trace.notes, *notes)
                    self._refresh_count = refresh_index
                    self._force_recount = False
                    # Re-anchor: the new fingerprint is taken *after* the
                    # refresh folded everything in, and trim() floors
                    # the shared log at the subscriptions' new minima — so
                    # even a gap-forced recount leaves the log able to
                    # delta-patch the next refresh.
                    self._fingerprint = self._database.version_fingerprint(
                        self._relations
                    )
                    self._state.trim()
                seconds = time.perf_counter() - started
                self._spent_seconds += seconds
                refresh_span.set(mode=mode)
                for note in self._degradations:
                    refresh_span.event(note)
        metrics = self._service.metrics
        metrics.counter("stream.refreshes", mode=mode).inc()
        metrics.histogram("stream.refresh_seconds").observe(seconds)

    def _maybe_replan(self, refresh_span) -> None:
        """Drift detection, run before every refresh folds mutations in (so
        a re-planned refresh never misses an update): re-plan when the
        database crossed a fingerprint class since planning, or when the
        rolling predicted-vs-actual latency error of the pinned scheme
        exceeds the threshold.  A ``method=``-forced subscription re-plans
        too (size-dependent engine upgrades still apply) but can never hop
        schemes — the override wins inside the planner."""
        current_class = fingerprint_class(self._database.size())
        reason = None
        if current_class != self._planned_class:
            reason = (
                f"size bucket crossed: 2^{self._planned_class} -> "
                f"2^{current_class}"
            )
        elif len(self._error_ratios) >= REPLAN_ERROR_WINDOW:
            mean_ratio = sum(self._error_ratios) / len(self._error_ratios)
            if mean_ratio > REPLAN_ERROR_THRESHOLD:
                reason = (
                    f"rolling prediction error {mean_ratio:.2f}x exceeds "
                    f"threshold {REPLAN_ERROR_THRESHOLD}x"
                )
        if reason is None:
            return
        fresh = self._plan()
        self._planned_class = current_class
        self._error_ratios = []
        changed = (fresh.scheme, fresh.engine) != (self.plan.scheme, self.plan.engine)
        old_scheme = self.scheme
        self.plan = fresh
        self.scheme = fresh.scheme
        self.query_class = fresh.query_class
        if not changed:
            return
        # The stored estimate came from the old scheme; patching it (or
        # keeping cached per-component counts) under the new plan would
        # corrupt the stream, so the next refresh recounts from scratch (the
        # result cache stays safe — its keys carry the scheme).
        self._force_recount = True
        self._replans += 1
        note = (
            f"stream.replan[{self._ordinal}]: {reason}; "
            f"{old_scheme} -> {self.scheme}"
        )
        self._replan_events = self._replan_events + (note,)
        refresh_span.event(
            "stream.replan",
            reason=reason,
            old_scheme=old_scheme,
            new_scheme=self.scheme,
        )
        refresh_span.set(scheme=self.scheme)
        self._service.metrics.counter("stream.replans").inc()

    def _note_prediction_error(self, seconds: float) -> None:
        """Feed the rolling drift window with one whole-query count's actual
        latency against the cost model's current prediction for the pinned
        scheme (skipped while the sketch is cold — no prediction to be
        wrong)."""
        prediction = self._service.cost_model.predict(
            self._canonical_key,
            self._database.size(),
            self.scheme,
            self.plan.engine,
        )
        if prediction.cold or not prediction.seconds:
            return
        self._error_ratios.append(seconds / prediction.seconds)
        del self._error_ratios[:-REPLAN_ERROR_WINDOW]

    # ------------------------------------------------------ monolithic body
    def _recount_request(self, seed: Optional[int]) -> "CountRequest":
        """A whole-query count through the service, pinned to the
        subscription's scheme."""
        from repro.service.service import CountRequest

        return CountRequest(
            query=self.query,
            database=self._database,
            epsilon=self.epsilon,
            delta=self.delta,
            seed=seed,
            method=self.scheme,
        )

    def _count_initial(self) -> None:
        """The initial compute, through the service (plans, caches,
        registry)."""
        self._last_seed = self._seed_for(0)
        self._estimate = self._service.submit(self._recount_request(self._last_seed)).estimate

    def _refresh_body(self, refresh_index: int) -> Tuple[str, ...]:
        """One refresh attempt: a result-cache hit, else a delta patch
        (exact schemes), else a recount / re-estimate through the service.
        Sets ``_estimate``, ``_mode`` and ``_last_seed``; returns the extra
        provenance notes (a survived change-log gap)."""
        seed = self._seed_for(refresh_index)
        self._gap_note = None
        key = self._service.result_key(self._canonical_key, self._request, self.plan, seed)
        cached = self._service.result_cache.get(key)
        if cached is not None:
            self._estimate = cached
            self._mode = "cached"
        elif (
            not self._force_recount
            and self.scheme in EXACT_SCHEMES
            and self._try_delta_patch()
        ):
            self._service.result_cache.put(key, self._estimate)
        else:
            result = self._service.submit(self._recount_request(seed))
            self._estimate = result.estimate
            self._mode = "recount" if self.scheme in EXACT_SCHEMES else "reestimate"
            self._note_prediction_error(result.execute_seconds)
        self._last_seed = seed
        if self._gap_note is None:
            return ()
        self._gap_recounts += 1
        return (self._gap_note,)

    def _try_delta_patch(self) -> bool:
        """Patch the stored exact count from the change log's net delta;
        ``False`` when the log has a gap or the delta argument is unsound
        here (the caller then recounts)."""
        old_universe, _ = self._fingerprint
        universe_changed = self._database._universe_version != old_universe
        if not delta_applicable(self.query, universe_changed):
            return False
        changelog = self._state.changelog
        try:
            delta = changelog.delta_since(self._fingerprint)
        except ChangeLogGap as gap:
            self._gap_note = (
                f"stream.refresh[{self._ordinal}]: change-log gap ({gap}); "
                "full recount, fingerprint re-anchored"
            )
            return False
        if delta:
            old_database = rewind(self._database, delta)
            self._estimate = self._estimate + delta_count_exact(
                self.query, old_database, self._database, delta,
                engine=self.plan.engine,
            )
        self._mode = "delta"
        return True

    # ----------------------------------------------------------------- public
    def read(self, force: bool = False) -> LiveCount:
        """The current value, refreshed first when the policy (or ``force``)
        says so.  Always cheap when the query's relations are untouched."""
        if self._closed:
            raise RuntimeError("subscription is closed")
        ticks = self.pending_ticks()
        refreshed = False
        if force and ticks > 0 or not force and self._should_refresh(ticks):
            self._refresh()
            # A refresh that exhausted its retries serves stale: the
            # fingerprint did not advance, so the ticks stay pending.
            ticks = self.pending_ticks()
            refreshed = ticks == 0
        return LiveCount(
            estimate=self._estimate,
            scheme=self.scheme,
            query_class=self.query_class,
            fresh=ticks == 0,
            refreshed=refreshed,
            mode=self._mode,
            pending_ticks=ticks,
            refresh_count=self._refresh_count,
            seed=self._last_seed,
            epsilon=self.epsilon,
            delta=self.delta,
            degradations=self._degradations,
            gap_recounts=self._gap_recounts,
            replans=self._replans,
            replan_events=self._replan_events,
        )

    def refresh(self) -> LiveCount:
        """Fold every pending mutation in now, regardless of policy."""
        return self.read(force=True)

    def add_budget(self, seconds: float) -> None:
        """Top up a ``refresh="budget"`` subscription's refresh account."""
        self._budget_seconds += float(seconds)

    @property
    def spent_seconds(self) -> float:
        """Total wall-clock seconds spent refreshing (budget accounting)."""
        return self._spent_seconds

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the subscription (idempotent).  The database's change log
        is detached when its last subscription closes."""
        if not self._closed:
            self._closed = True
            self._service._drop_subscription(self)

    def __enter__(self) -> "CountSubscription":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(scheme={self.scheme!r}, "
            f"policy={self._policy!r}, estimate={self._estimate}, "
            f"refreshes={self._refresh_count})"
        )


__all__ = [
    "LiveCount",
    "CountSubscription",
    "REFRESH_POLICIES",
    "EXACT_SCHEMES",
    "ticks_between",
]
