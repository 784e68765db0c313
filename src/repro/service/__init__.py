"""`repro.service`: planning, caching, and parallel batch execution for
query counting.

The library's counting schemes (exact baselines, the Theorem-5/13 FPTRASes,
the Theorem-16 FPRAS, oracle counting) are one-shot calls; this package turns
them into a serving layer:

* :class:`~repro.service.plan.Planner` / :class:`~repro.service.plan.QueryPlan`
  — explainable scheme selection via the Figure-1 dichotomy, width measures
  and database-size heuristics, with user overrides;
* :class:`~repro.service.cost.CostModel` — observed-cost latency predictions
  from the service's profile store; with ``PlannerConfig(adaptive=True)`` the
  planner picks the cheapest sound scheme under a per-request latency budget
  (override > budget-adaptive > dichotomy, cold-start falls back to the
  dichotomy);
* :class:`~repro.util.cache.LRUCache` — plan and result caches keyed on
  canonical query forms and the databases' per-relation version counters;
* :class:`~repro.service.service.CountingService` — ``submit()`` /
  ``count_batch()`` front-end with serial / thread / process-pool execution
  and deterministic per-task seeding;
* :mod:`~repro.service.workload` — drives the :mod:`repro.workloads`
  generators through the service end-to-end.

See DESIGN.md ("The service layer") for the architecture.
"""

from repro.queries.canonical import (
    canonical_query_key,
    canonical_variable_renaming,
    database_cache_key,
)
from repro.util.cache import CacheStats, LRUCache
from repro.service.cost import CostModel, CostPrediction
from repro.service.executor import EXECUTOR_MODES
from repro.service.plan import Planner, PlannerConfig, QueryPlan
from repro.service.service import (
    BatchReport,
    CountingService,
    CountRequest,
    CountResult,
    ServiceConfig,
)
from repro.service.workload import mixed_query_workload, workload_database

__all__ = [
    "CountingService",
    "ServiceConfig",
    "CountRequest",
    "CountResult",
    "BatchReport",
    "Planner",
    "PlannerConfig",
    "QueryPlan",
    "CostModel",
    "CostPrediction",
    "LRUCache",
    "CacheStats",
    "EXECUTOR_MODES",
    "canonical_query_key",
    "canonical_variable_renaming",
    "database_cache_key",
    "mixed_query_workload",
    "workload_database",
]
