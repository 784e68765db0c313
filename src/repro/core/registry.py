"""The :class:`SchemeRegistry`: one dispatchable surface for every counting
scheme.

The paper contributes several counting algorithms (the exact baselines, the
Theorem-5/13 FPTRASes, the Theorem-16 FPRAS, oracle-based exact counting, the
Section-6 Karp–Luby union estimator), and the seed code had five ad-hoc entry
points with five slightly different signatures — every new consumer (CLI,
service executor, samplers, applications) had to re-encode the dispatch.

The registry unifies them: every scheme registers a runner with the uniform
envelope

    ``count(prepared, database, epsilon, delta, rng, engine) -> CountResult``

where ``prepared`` is a :class:`repro.queries.prepared.PreparedQuery` (plain
queries are prepared on entry, so repeated shapes share width/decomposition
artifacts process-wide) and :class:`CountResult` records the estimate together
with the scheme, the widths the run relied on, the scheme's statistics and a
short trace.  The scheme-applicability table (which query classes each scheme
is sound for, and which theorem backs it) lives here too; the planner's
``validate_scheme`` reads it.

Registering a new scheme (e.g. a future UCQ-native plan) makes it reachable
from the service, the CLI and the benches without touching any call site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence, Tuple, Union

from repro.obs.trace import span
from repro.queries.prepared import PreparedQuery, prepare
from repro.queries.query import ConjunctiveQuery, QueryClass
from repro.relational.csp import DEFAULT_ENGINE
from repro.relational.structure import Structure
from repro.util.estimation import budget_ledger
from repro.util.rng import RNGLike

QueryLike = Union[ConjunctiveQuery, PreparedQuery]

#: Registered schemes whose estimates are error-free integers: only these can
#: be delta-patched by a live subscription (an approximation's estimate is a
#: random variable, not a count one can add a delta to), and products of
#: their per-shard counts are bit-identical to the unsharded count.
EXACT_SCHEMES = frozenset({"exact", "oracle_exact"})


@dataclass(frozen=True)
class CountResult:
    """The uniform result envelope of a registry-dispatched counting run.

    (This is the *scheme-level* record; the service layer wraps it in its own
    ``repro.service.service.CountResult`` adding plan/cache provenance.)
    """

    #: The (approximate) answer count.  Error-free schemes (``exact``,
    #: ``oracle_exact``) store the exact ``int`` unconverted, preserving
    #: arbitrary-precision exactness beyond 2**53; approximation schemes
    #: store a ``float``.
    estimate: float
    scheme: str
    query_class: str
    canonical_key: str
    epsilon: Optional[float]
    delta: Optional[float]
    engine: str
    #: The width parameters the scheme's guarantees refer to, as far as the
    #: run computed them (e.g. ``{"treewidth": 1, "arity": 2}``).
    widths: Dict[str, Any] = field(default_factory=dict)
    #: The scheme's own statistics record, when it produces one
    #: (e.g. :class:`repro.core.oracle_counting.OracleCountingStatistics`).
    statistics: Optional[Any] = None
    trace: Tuple[str, ...] = ()

    @property
    def count(self) -> int:
        """The estimate rounded to the nearest integer (answer counts are
        integers)."""
        return int(round(self.estimate))

    def rounded(self) -> int:
        return self.count

    def to_dict(self) -> Dict[str, Any]:
        return {
            "estimate": self.estimate,
            "count": self.count,
            "scheme": self.scheme,
            "query_class": self.query_class,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "engine": self.engine,
            "widths": dict(self.widths),
            "trace": list(self.trace),
        }


#: A scheme runner: (prepared, query, database, epsilon, delta, rng, engine,
#: **kwargs) -> (estimate, widths, statistics, trace).
Runner = Callable[..., Tuple[float, Dict[str, Any], Optional[Any], Tuple[str, ...]]]


@dataclass(frozen=True)
class SchemeSpec:
    """One registered counting scheme."""

    name: str
    runner: Runner
    #: Which query classes the scheme is sound for.
    query_classes: Tuple[QueryClass, ...]
    #: The theorem / construction backing the scheme.
    reference: str
    #: Union schemes count ``|⋃_i Ans(phi_i, D)|`` and take a sequence of
    #: queries instead of a single one.
    union: bool = False


class SchemeRegistry:
    """Name -> scheme table with uniform dispatch.

    The module-level :data:`REGISTRY` carries the package's built-in schemes;
    private registries can be built for tests or experiments.
    """

    def __init__(self) -> None:
        self._schemes: Dict[str, SchemeSpec] = {}

    def register(
        self,
        name: str,
        runner: Runner,
        query_classes: Sequence[QueryClass],
        reference: str,
        union: bool = False,
    ) -> SchemeSpec:
        if name in self._schemes:
            raise ValueError(f"scheme {name!r} is already registered")
        spec = SchemeSpec(
            name=name,
            runner=runner,
            query_classes=tuple(query_classes),
            reference=reference,
            union=union,
        )
        self._schemes[name] = spec
        return spec

    def get(self, name: str) -> SchemeSpec:
        spec = self._schemes.get(name)
        if spec is None:
            raise ValueError(
                f"unknown scheme {name!r}; expected one of {self.names()}"
            )
        return spec

    def names(self, include_unions: bool = True) -> Tuple[str, ...]:
        return tuple(
            name
            for name, spec in self._schemes.items()
            if include_unions or not spec.union
        )

    def reference(self, name: str) -> str:
        return self.get(name).reference

    def validate(self, name: str, query_class: QueryClass) -> None:
        """Reject scheme/class pairings the scheme is not sound for."""
        spec = self.get(name)
        if not spec.union and query_class not in spec.query_classes:
            raise ValueError(
                f"scheme {name!r} does not apply to {query_class.value} queries "
                f"({spec.reference})"
            )

    # -------------------------------------------------------------- dispatch
    def count(
        self,
        scheme: str,
        query: QueryLike,
        database: Structure,
        epsilon: float = 0.2,
        delta: float = 0.05,
        rng: RNGLike = None,
        engine: str = DEFAULT_ENGINE,
        prepared: Optional[PreparedQuery] = None,
        **kwargs: Any,
    ) -> CountResult:
        """Run one scheme through the uniform envelope.

        ``query`` may be a plain :class:`ConjunctiveQuery` (prepared — and
        thereby cached process-wide — on entry) or an already-prepared query.
        Extra keyword arguments are forwarded to the scheme runner (e.g.
        ``oracle_mode`` for the Lemma-22 schemes).
        """
        spec = self.get(scheme)
        if spec.union:
            raise ValueError(
                f"scheme {scheme!r} counts unions; call count_union instead"
            )
        if isinstance(query, PreparedQuery):
            prepared, query = query, query.query
        elif prepared is None:
            prepared = prepare(query)
        query_class = query.query_class()
        self.validate(scheme, query_class)
        with span(
            "scheme.count",
            scheme=scheme,
            query_class=query_class.value,
            engine=engine,
        ):
            estimate, widths, statistics, trace = _run_with_ledger(
                spec.runner,
                prepared,
                query,
                database,
                epsilon=epsilon,
                delta=delta,
                rng=rng,
                engine=engine,
                **kwargs,
            )
        return CountResult(
            # Exact schemes return ints, kept unconverted (float() would lose
            # precision beyond 2**53 — exact counts must stay exact).
            estimate=estimate if isinstance(estimate, int) else float(estimate),
            scheme=scheme,
            query_class=query_class.value,
            canonical_key=prepared.canonical_key,
            epsilon=epsilon,
            delta=delta,
            engine=engine,
            widths=widths,
            statistics=statistics,
            trace=trace,
        )

    def count_union(
        self,
        queries: Sequence[QueryLike],
        database: Structure,
        scheme: str = "union_karp_luby",
        epsilon: float = 0.2,
        delta: float = 0.05,
        rng: RNGLike = None,
        engine: str = DEFAULT_ENGINE,
        **kwargs: Any,
    ) -> CountResult:
        """Estimate ``|⋃_i Ans(phi_i, D)|`` through a registered union
        scheme (Section 6's Karp–Luby estimator by default)."""
        spec = self.get(scheme)
        if not spec.union:
            raise ValueError(f"scheme {scheme!r} is not a union scheme")
        prepared_queries = [prepare(query) for query in queries]
        plain = [item.query for item in prepared_queries]
        estimate, widths, statistics, trace = _run_with_ledger(
            spec.runner,
            prepared_queries,
            plain,
            database,
            epsilon=epsilon,
            delta=delta,
            rng=rng,
            engine=engine,
            **kwargs,
        )
        classes = sorted({query.query_class().value for query in plain})
        return CountResult(
            estimate=float(estimate),
            scheme=scheme,
            query_class="+".join(classes),
            canonical_key=" | ".join(item.canonical_key for item in prepared_queries),
            epsilon=epsilon,
            delta=delta,
            engine=engine,
            widths=widths,
            statistics=statistics,
            trace=trace,
        )


def _run_with_ledger(runner: Runner, *args: Any, **kwargs: Any):
    """Run a scheme under a budget ledger; unless an enclosing ledger
    collects them, its rows end the trace, one line each."""
    with budget_ledger() as ledger:
        estimate, widths, statistics, trace = runner(*args, **kwargs)
    return estimate, widths, statistics, trace + (ledger.lines() if ledger else ())


# ------------------------------------------------------------ built-in runners
def _run_exact(prepared, query, database, epsilon, delta, rng, engine, **kwargs):
    from repro.core.exact import count_answers_exact

    estimate = count_answers_exact(query, database, engine=engine, **kwargs)
    return estimate, {}, None, ("exact CSP-backtracking count (error-free)",)


def _run_oracle_exact(prepared, query, database, epsilon, delta, rng, engine, **kwargs):
    from repro.core.oracle_counting import exact_count_answers_via_oracle

    estimate = exact_count_answers_via_oracle(
        query, database, rng=rng, engine=engine, **kwargs
    )
    return estimate, {}, None, ("exact count via EdgeFree oracle splitting",)


def _run_fpras_cq(prepared, query, database, epsilon, delta, rng, engine, **kwargs):
    from repro.core.fpras import fpras_count_cq

    result = fpras_count_cq(
        query,
        database,
        epsilon=epsilon,
        delta=delta,
        rng=rng,
        return_result=True,
        prepared=prepared,
        **kwargs,
    )
    widths = {"fractional_hypertreewidth": result.fractional_hypertreewidth}
    trace = (
        f"Theorem 16 FPRAS over a nice fhw-decomposition "
        f"(fhw={result.fractional_hypertreewidth:.2f}, "
        f"{result.num_states} states, tree size {result.tree_size}, "
        f"{result.fallback_samples} fallback samples)",
    )
    return result.estimate, widths, None, trace


def _run_fptras_dcq(prepared, query, database, epsilon, delta, rng, engine, **kwargs):
    from repro.core.fptras import fptras_count_dcq

    result = fptras_count_dcq(
        query,
        database,
        epsilon=epsilon,
        delta=delta,
        rng=rng,
        engine=engine,
        return_result=True,
        prepared=prepared,
        **kwargs,
    )
    widths = {
        "treewidth": result.treewidth,
        "arity": result.arity,
        "adaptive_width_upper_bound": result.adaptive_width_upper_bound,
    }
    trace = (f"Theorem 13 FPTRAS (oracle mode {result.oracle_mode})",)
    return result.estimate, widths, result.statistics, trace


def _run_fptras_ecq(prepared, query, database, epsilon, delta, rng, engine, **kwargs):
    from repro.core.fptras import fptras_count_ecq

    result = fptras_count_ecq(
        query,
        database,
        epsilon=epsilon,
        delta=delta,
        rng=rng,
        engine=engine,
        return_result=True,
        prepared=prepared,
        **kwargs,
    )
    widths = {"treewidth": result.treewidth, "arity": result.arity}
    trace = (f"Theorem 5 FPTRAS (oracle mode {result.oracle_mode})",)
    return result.estimate, widths, result.statistics, trace


def _run_union_karp_luby(
    prepared_queries, queries, database, epsilon, delta, rng, engine, **kwargs
):
    # Imported lazily: repro.unions dispatches its per-query counts back
    # through this registry.
    from repro.unions.karp_luby import approx_count_union

    estimate = float(
        approx_count_union(
            queries,
            database,
            epsilon=epsilon,
            delta=delta,
            rng=rng,
            engine=engine,
            **kwargs,
        )
    )
    trace = (f"Karp–Luby union estimator over {len(queries)} components",)
    return estimate, {}, None, trace


def default_registry() -> SchemeRegistry:
    """A fresh registry carrying the package's built-in schemes."""
    registry = SchemeRegistry()
    every_class = (QueryClass.CQ, QueryClass.DCQ, QueryClass.ECQ)
    registry.register(
        "exact",
        _run_exact,
        every_class,
        "CSP backtracking baseline (Section 1.1)",
    )
    registry.register(
        "oracle_exact",
        _run_oracle_exact,
        every_class,
        "exact counting via EdgeFree oracle splitting (Lemma 22 plumbing)",
    )
    registry.register(
        "fpras_cq",
        _run_fpras_cq,
        (QueryClass.CQ,),
        "Theorem 16 (FPRAS, bounded fractional hypertreewidth)",
    )
    registry.register(
        "fptras_dcq",
        _run_fptras_dcq,
        (QueryClass.CQ, QueryClass.DCQ),
        "Theorem 13 (FPTRAS, bounded adaptive width)",
    )
    registry.register(
        "fptras_ecq",
        _run_fptras_ecq,
        every_class,
        "Theorem 5 (FPTRAS, bounded treewidth and arity)",
    )
    registry.register(
        "union_karp_luby",
        _run_union_karp_luby,
        every_class,
        "Karp–Luby estimator for unions (Section 6)",
        union=True,
    )
    return registry


#: The process-wide registry every counting path dispatches through.
REGISTRY = default_registry()
