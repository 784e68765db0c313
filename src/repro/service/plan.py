"""The query planner: choose a counting scheme, explainably.

Given a query and a database, :class:`Planner` produces a :class:`QueryPlan`
naming one of the registered counting schemes together with the decision
trace that led there.  The decision table (see DESIGN.md):

1. A user override (``method=``) wins, after validation against the query
   class through :data:`repro.core.registry.REGISTRY` (e.g. Theorem 16's
   FPRAS is only sound for plain CQs).
2. Small instances (database ``size()`` under the configured threshold and
   at most :data:`EXACT_VARIABLE_LIMIT` query variables) use the **exact**
   CSP-backtracking counter: it is error-free and, on small inputs, faster
   than setting up an approximation scheme.
3. Otherwise the Figure-1 dichotomy picks the scheme by query class, exactly
   as :func:`repro.core.classify_query` recommends: plain CQs get the
   Theorem-16 FPRAS, DCQs the Theorem-13 FPTRAS, ECQs the Theorem-5 FPTRAS.
4. With ``adaptive=True`` and a :class:`~repro.service.cost.CostModel`
   attached, the planner then overlays **observed costs** on the pick of
   rules 2-3 (never on an override): it predicts every sound scheme's
   latency (p95 of the recorded sketch for this canonical form in this
   database-size bucket) and picks the cheapest one under the request's
   ``latency_budget_seconds``.  Schemes whose sketches are *cold* (fewer
   than ``min_observations`` recorded runs) are never chosen adaptively,
   and when **every** candidate is cold the static pick stands,
   byte-identical to a non-adaptive plan — the cold-start contract.

Adaptive choice never touches *how* a scheme runs — estimates stay
bit-identical to a direct registry call under equal seeds; only *which*
scheme runs changes.  Determinism: the plan is a pure function of
(request, profile snapshot, config) — the profile store's monotone version
joins the plan-cache key, so a cached plan is never served across snapshot
changes.

Width artifacts come from the **prepared query**
(:func:`repro.queries.prepared.prepare`): they are computed at most once per
canonical query shape per process and shared with the scheme run itself.
Widths are pulled **per width, lazily** — an exact plan computes none, a
Theorem-5 override computes only treewidth/arity, a Theorem-13/16 override
only the fhw-based widths, and only the dichotomy path (which must discuss
the whole Figure-1 profile) computes the full profile.  ``QueryPlan.explain``
prints whichever widths the plan actually computed and the trace warns when a
width exceeds its alarm (:data:`TREEWIDTH_ALARM`, :data:`FHW_ALARM`; the
scheme still runs, merely without its fixed-parameter efficiency).

The CSP engine is a function of the input, not an option: databases of
``size()`` at least ``columnar_size_threshold`` run on the vectorized
columnar engine, smaller ones on the indexed engine.  Estimates are
bit-identical across engines, so the rule only decides speed.

Plans are cached on the canonical query form plus the decision inputs, so
repeated queries skip even the per-width lookups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core.registry import REGISTRY, SCHEME_BY_CLASS
from repro.obs.profile import fingerprint_class
from repro.queries.prepared import PreparedQuery, prepare
from repro.queries.query import ConjunctiveQuery, QueryClass
from repro.relational.structure import Structure
from repro.util.cache import LRUCache
from repro.service.cost import PREDICTION_BASIS, CostModel

#: Small instances plan exact only when the query has at most this many
#: variables.
EXACT_VARIABLE_LIMIT = 10
#: Widths above these alarms add a warning to the decision trace (the scheme
#: still runs; it is correct for every instance, merely not fixed-parameter
#: efficient outside the bounded regime).
TREEWIDTH_ALARM = 4
FHW_ALARM = 3.0
#: Entries of a planner's plan cache.
PLAN_CACHE_SIZE = 256


@dataclass(frozen=True)
class PlannerConfig:
    """Thresholds of the planner's decision table."""

    #: Databases with ``size()`` at most this use the exact counter
    #: (provided the query has at most ``EXACT_VARIABLE_LIMIT`` variables).
    exact_size_threshold: int = 800
    #: Databases with ``size()`` at least this run the chosen scheme on the
    #: vectorized columnar CSP engine, smaller ones on the indexed engine
    #: (estimates are bit-identical across engines, so the rule only
    #: changes speed).  ``None`` keeps every plan on the indexed engine.
    columnar_size_threshold: Optional[int] = 5000
    #: When ``True`` (and the planner holds a :class:`CostModel`), overlay
    #: observed per-scheme costs on the static decision table: pick the
    #: cheapest sound scheme whose predicted p95 fits the request's latency
    #: budget.  Off by default — the static Figure-1 table is the paper's
    #: contract and the adaptive overlay is strictly opt-in.
    adaptive: bool = False
    #: A (form, bucket, scheme, engine) sketch with fewer recorded runs than
    #: this is *cold*: the adaptive overlay refuses to trust it and falls
    #: back to the dichotomy when every candidate is cold.
    min_observations: int = 3

    def fingerprint(self) -> Tuple:
        return (
            self.exact_size_threshold,
            self.columnar_size_threshold,
            self.adaptive,
            self.min_observations,
        )


@dataclass(frozen=True)
class QueryPlan:
    """An explainable counting plan for one (query, database-size) input.

    Width fields are ``None`` when the decision did not need them (widths are
    exponential in the query size, so the planner computes each one lazily
    and only when the chosen scheme's guarantees refer to it).
    """

    scheme: str
    query_class: str
    engine: str
    database_size: int
    size_class: str  # "small" | "large"
    treewidth: Optional[int]
    fractional_hypertreewidth: Optional[float]
    adaptive_width_upper: Optional[float]
    arity: Optional[int]
    reference: str
    override: Optional[str]
    trace: Tuple[str, ...] = field(default_factory=tuple)
    #: Observed per-scheme cost summaries for this canonical form in this
    #: database-size bucket — ``ProfileStore.summary()`` output, attached by
    #: the service *after* the plan-cache fetch (so cached plans never carry
    #: stale observations).  ``None`` when nothing was observed yet.
    observed: Optional[Dict[str, Any]] = None
    #: The adaptive overlay's prediction record: basis, budget, profile
    #: snapshot version, and every candidate's predicted cost plus the
    #: verdict that chose or rejected it.  After execution the service
    #: re-attaches the plan with ``actual_seconds`` / ``error_ratio`` /
    #: ``outcome`` folded in (predicted-vs-actual accounting).  ``None``
    #: when the overlay did not run (adaptive off, override, or every
    #: candidate cold — the cold-start fallback leaves the plan untouched).
    predicted: Optional[Dict[str, Any]] = None

    def explain(self) -> str:
        """Human-readable plan summary (one decision per line).  Each width
        is printed only if the plan computed it — any subset may be absent."""
        lines = [
            f"scheme:      {self.scheme}",
            f"reference:   {self.reference}",
            f"query class: {self.query_class}",
            f"engine:      {self.engine}",
            f"database:    size={self.database_size} ({self.size_class})",
        ]
        width_parts = []
        if self.treewidth is not None:
            width_parts.append(f"tw={self.treewidth}")
        if self.fractional_hypertreewidth is not None:
            width_parts.append(f"fhw={self.fractional_hypertreewidth:.2f}")
        if self.adaptive_width_upper is not None:
            width_parts.append(f"aw<={self.adaptive_width_upper:.2f}")
        if self.arity is not None:
            width_parts.append(f"arity={self.arity}")
        if width_parts:
            lines.append("widths:      " + " ".join(width_parts))
        lines.append("decision:")
        lines.extend(f"  - {step}" for step in self.trace)
        if self.predicted:
            budget = self.predicted.get("budget_seconds")
            budget_text = "none" if budget is None else f"{budget:.6f}s"
            lines.append(
                f"predicted:   (basis {self.predicted.get('basis', '?')}, "
                f"budget {budget_text}, profile snapshot "
                f"v{self.predicted.get('snapshot_version', '?')})"
            )
            for name, entry in self.predicted.get("candidates", {}).items():
                marker = "*" if name == self.predicted.get("chosen") else "-"
                seconds = entry.get("seconds")
                cost = "cold" if seconds is None else f"{seconds:.6f}s"
                lines.append(
                    f"  {marker} {name}: {cost} runs={entry.get('runs', 0)} "
                    f"({entry.get('verdict', '?')})"
                )
            actual = self.predicted.get("actual_seconds")
            if actual is not None:
                chosen = self.predicted.get("candidates", {}).get(
                    self.predicted.get("chosen"), {}
                )
                expected = chosen.get("seconds")
                ratio = self.predicted.get("error_ratio")
                lines.append(
                    "  predicted-vs-actual: "
                    + (
                        f"predicted={expected:.6f}s "
                        if expected is not None
                        else "predicted=cold "
                    )
                    + f"actual={actual:.6f}s"
                    + (f" ratio={ratio:.3f}" if ratio is not None else "")
                    + f" outcome={self.predicted.get('outcome', '?')}"
                )
        if self.observed and self.observed.get("schemes"):
            lines.append(
                "observed:    (recorded costs, size bucket "
                f"2^{self.observed.get('fingerprint_class', '?')})"
            )
            for scheme, summary in self.observed["schemes"].items():
                # Multi-engine summaries key entries as "scheme@engine".
                marker = "*" if scheme.split("@", 1)[0] == self.scheme else "-"
                lines.append(
                    f"  {marker} {scheme}: runs={summary['runs']} "
                    f"p50={summary['p50_seconds']:.6f}s "
                    f"p95={summary['p95_seconds']:.6f}s "
                    f"mean={summary['mean_seconds']:.6f}s"
                )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """The plan's ``query_plan`` wire payload (:mod:`repro.serve.schema`
        holds the one plan serializer)."""
        from repro.serve.schema import to_payload  # serve imports service

        return to_payload(self)


def validate_scheme(scheme: str, query_class: QueryClass) -> None:
    """Reject scheme overrides that are unsound for the query's class
    (delegates to the scheme registry's applicability table).  The name check
    reads the registry live, so schemes registered after import are planable
    without touching this module."""
    names = REGISTRY.names(include_unions=False)
    if scheme not in names:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {names}")
    REGISTRY.validate(scheme, query_class)


class Planner:
    """Plans queries against the decision table, with a plan cache keyed on
    the canonical query form + the decision inputs (size class, override,
    engine, thresholds) — repeated queries skip even the lazy width
    lookups."""

    def __init__(
        self,
        config: Optional[PlannerConfig] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.config = config or PlannerConfig()
        self.cache = LRUCache(PLAN_CACHE_SIZE)
        self.cost_model = cost_model

    def plan(
        self,
        query: ConjunctiveQuery,
        database: Structure,
        override: Optional[str] = None,
        prepared: Optional[PreparedQuery] = None,
        latency_budget_seconds: Optional[float] = None,
    ) -> QueryPlan:
        """Produce (or fetch from cache) the plan for ``query`` over
        ``database``.  ``prepared`` may be passed in when the caller already
        compiled the query.  ``latency_budget_seconds`` only matters under
        the adaptive overlay (the static table has no notion of cost)."""
        config = self.config
        database_size = database.size()
        small = (
            database_size <= config.exact_size_threshold
            and len(query.variables) <= EXACT_VARIABLE_LIMIT
        )
        size_class = "small" if small else "large"
        if prepared is None:
            prepared = prepare(query)
        query_key = prepared.canonical_key
        threshold = config.columnar_size_threshold
        engine = (
            "columnar"
            if threshold is not None and database_size >= threshold
            else "indexed"
        )
        adaptive = config.adaptive and self.cost_model is not None
        if adaptive:
            # The adaptive decision reads (budget, profile snapshot, size
            # bucket); all three join the cache key so a plan is a pure
            # function of (request, profile snapshot, config) and a cached
            # plan is never served across snapshot changes.
            adaptive_key: Optional[Tuple] = (
                latency_budget_seconds,
                self.cost_model.snapshot_token,
                fingerprint_class(database_size),
            )
        else:
            adaptive_key = None
        cache_key = (
            query_key,
            size_class,
            override,
            engine,
            config.fingerprint(),
            adaptive_key,
        )
        cached = self.cache.get(cache_key)
        if cached is not None:
            # A cached plan's database_size (and its trace) reflect the size
            # at planning time; the decision is the same within a size class
            # (and on the same side of the columnar threshold, part of the
            # key).
            return cached
        plan = self._plan_uncached(
            query,
            prepared,
            database_size,
            size_class,
            override,
            engine,
            adaptive=adaptive,
            latency_budget_seconds=latency_budget_seconds,
        )
        self.cache.put(cache_key, plan)
        return plan

    def _plan_uncached(
        self,
        query: ConjunctiveQuery,
        prepared: PreparedQuery,
        database_size: int,
        size_class: str,
        override: Optional[str],
        engine: str,
        adaptive: bool = False,
        latency_budget_seconds: Optional[float] = None,
    ) -> QueryPlan:
        config = self.config
        query_class = query.query_class()
        trace = [f"classified as {query_class.value}"]
        # Each width is pulled lazily from the shared prepared query, and only
        # when the decision (or the chosen scheme's guarantee) refers to it.
        treewidth: Optional[int] = None
        fhw: Optional[float] = None
        aw_upper: Optional[float] = None
        arity: Optional[int] = None

        if override is not None:
            validate_scheme(override, query_class)
            scheme = override
            trace.append(f"user override: scheme forced to {scheme!r}")
        elif size_class == "small":
            scheme = "exact"
            trace.append(
                f"small instance (database size {database_size} <= "
                f"{config.exact_size_threshold}, |vars| "
                f"{len(query.variables)} <= {EXACT_VARIABLE_LIMIT}): "
                "exact CSP count is error-free and fast here"
            )
        else:
            # The dichotomy path discusses the whole Figure-1 profile, so it
            # is the one place the full width profile is (shared-ly) computed.
            report = prepared.classification()
            widths = report.widths
            treewidth = widths.treewidth
            fhw = widths.fractional_hypertreewidth
            aw_upper = widths.adaptive_width.upper_bound
            arity = widths.arity
            trace.append(
                f"width profile: tw={treewidth} "
                f"fhw={fhw:.2f} "
                f"aw<={aw_upper:.2f} "
                f"arity={arity}"
            )
            scheme = SCHEME_BY_CLASS[query_class]
            trace.append(
                f"large instance: Figure-1 dichotomy recommends "
                f"{report.recommended_algorithm} — {report.recommendation_reason}"
            )

        predicted: Optional[Dict[str, Any]] = None
        if adaptive and override is None and self.cost_model is not None:
            scheme, predicted = self._adaptive_overlay(
                prepared,
                database_size,
                query_class,
                scheme,
                engine,
                latency_budget_seconds,
                trace,
            )

        if scheme == "fptras_ecq":
            if treewidth is None:
                treewidth = prepared.treewidth()
                arity = prepared.hypergraph_arity()
                trace.append(
                    f"lazy widths for Theorem 5: tw={treewidth} arity={arity} "
                    "(fhw not needed)"
                )
            if treewidth > TREEWIDTH_ALARM:
                trace.append(
                    f"warning: treewidth {treewidth} exceeds the alarm "
                    f"threshold {TREEWIDTH_ALARM}; Theorem 5's FPTRAS still "
                    "runs but is not fixed-parameter efficient here"
                )
        if scheme in ("fpras_cq", "fptras_dcq"):
            if fhw is None:
                fhw = prepared.fractional_hypertreewidth()[0]
                aw_upper = fhw  # Lemma 12: aw <= fhw.
                trace.append(
                    f"lazy widths for {scheme}: fhw={fhw:.2f} aw<={aw_upper:.2f} "
                    "(treewidth not needed)"
                )
            if fhw > FHW_ALARM:
                trace.append(
                    f"warning: fhw {fhw:.2f} exceeds "
                    f"the alarm threshold {FHW_ALARM}; the scheme still runs "
                    "but without its efficiency guarantee"
                )

        if engine == "columnar":
            trace.append(
                f"database size {database_size} >= columnar threshold "
                f"{config.columnar_size_threshold}: upgrading to the "
                "vectorized columnar engine (bit-identical estimates)"
            )

        return QueryPlan(
            scheme=scheme,
            query_class=query_class.value,
            engine=engine,
            database_size=database_size,
            size_class=size_class,
            treewidth=treewidth,
            fractional_hypertreewidth=fhw,
            adaptive_width_upper=aw_upper,
            arity=arity,
            reference=REGISTRY.reference(scheme),
            override=override,
            trace=tuple(trace),
            predicted=predicted,
        )

    def _adaptive_overlay(
        self,
        prepared: PreparedQuery,
        database_size: int,
        query_class: QueryClass,
        baseline_scheme: str,
        engine: str,
        latency_budget_seconds: Optional[float],
        trace: list,
    ) -> Tuple[str, Optional[Dict[str, Any]]]:
        """Overlay observed costs on the static decision: predict every
        sound scheme's p95 latency for this (form, size-bucket, engine) and
        pick the cheapest warm one under the budget.  Returns the (possibly
        unchanged) scheme and the prediction record.  When **every**
        candidate is cold, returns the baseline untouched with no trace
        lines and no record — the cold-start contract keeps cold-store
        plans byte-identical to non-adaptive ones."""
        model = self.cost_model
        assert model is not None
        candidates = [
            name
            for name in REGISTRY.names(include_unions=False)
            if query_class in REGISTRY.get(name).query_classes
        ]
        predictions = model.predict_schemes(
            prepared.canonical_key, database_size, candidates, engine
        )
        warm = {name: p for name, p in predictions.items() if not p.cold}
        if not warm:
            return baseline_scheme, None

        budget = latency_budget_seconds
        fitting = {
            name: p
            for name, p in warm.items()
            if budget is None or p.seconds <= budget
        }
        # Cheapest fitting scheme; registry order breaks exact ties so the
        # choice is deterministic.  When nothing fits the budget, the
        # cheapest warm scheme is still the best effort on offer.
        order = {name: index for index, name in enumerate(candidates)}
        pool = fitting or warm
        chosen = min(pool.values(), key=lambda p: (p.seconds, order[p.scheme]))

        budget_text = "none" if budget is None else f"{budget:.6f}s"
        trace.append(
            f"adaptive overlay: {PREDICTION_BASIS} predictions from profile "
            f"snapshot v{model.snapshot_token} "
            f"(engine {engine}, size bucket 2^{fingerprint_class(database_size)}, "
            f"budget {budget_text})"
        )
        entries: Dict[str, Dict[str, Any]] = {}
        for name in candidates:
            p = predictions[name]
            if p.cold:
                verdict = (
                    f"cold: {p.runs} runs < min_observations "
                    f"{model.min_observations}"
                )
            elif name == chosen.scheme:
                verdict = (
                    "chosen: cheapest warm scheme under budget"
                    if name in fitting
                    else "chosen: no warm scheme fits the budget; "
                    "cheapest warm is the best effort"
                )
            elif name not in fitting:
                verdict = f"rejected: predicted {p.seconds:.6f}s over budget"
            else:
                verdict = (
                    f"rejected: predicted {p.seconds:.6f}s slower than "
                    f"{chosen.scheme} ({chosen.seconds:.6f}s)"
                )
            entries[name] = {
                "seconds": p.seconds,
                "runs": p.runs,
                "verdict": verdict,
            }
            cost = "cold" if p.cold else f"{p.seconds:.6f}s"
            trace.append(f"candidate {name}: {cost} — {verdict}")
        if chosen.scheme == baseline_scheme:
            trace.append(
                f"adaptive choice agrees with the static pick {baseline_scheme!r}"
            )
        else:
            trace.append(
                f"adaptive choice replaces the static pick {baseline_scheme!r} "
                f"with {chosen.scheme!r} (estimates are scheme-exact; only "
                "which scheme runs changes)"
            )
        predicted = {
            "basis": PREDICTION_BASIS,
            "min_observations": model.min_observations,
            "snapshot_version": model.snapshot_token,
            "budget_seconds": budget,
            "fingerprint_class": fingerprint_class(database_size),
            "engine": engine,
            "baseline": baseline_scheme,
            "chosen": chosen.scheme,
            "candidates": entries,
        }
        return chosen.scheme, predicted
