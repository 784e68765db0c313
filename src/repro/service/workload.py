"""Workload driver: run the :mod:`repro.workloads` generators through the
service end-to-end.

Produces mixed CQ/DCQ/ECQ batches over synthetic graph databases (the paper
has no datasets; DESIGN.md records this substitution) and measures the
service's batch throughput — the building block of ``benchmarks/record_perf.py
--suite service`` and the CLI's ``batch --workload N``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.queries.query import ConjunctiveQuery
from repro.relational.structure import Database
from repro.service.service import BatchReport, CountingService, CountRequest
from repro.util.rng import RNGLike, as_generator
from repro.workloads import database_from_graph, erdos_renyi_graph, random_tree_query

#: The class mix a "mixed" workload cycles through: plain CQs, DCQs with one
#: or two disequalities, ECQs with one negated atom.
_MIX = (
    {"num_disequalities": 0, "num_negations": 0},  # CQ
    {"num_disequalities": 1, "num_negations": 0},  # DCQ
    {"num_disequalities": 2, "num_negations": 0},  # DCQ
    {"num_disequalities": 0, "num_negations": 1},  # ECQ
)


def mixed_query_workload(
    num_queries: int,
    num_variables: Tuple[int, int] = (3, 5),
    rng: RNGLike = None,
    relation: str = "E",
    negated_relation: str = "F",
) -> List[ConjunctiveQuery]:
    """``num_queries`` random tree-shaped queries cycling through the
    CQ/DCQ/ECQ mix, with variable counts drawn from ``num_variables``
    (inclusive range)."""
    if num_queries <= 0:
        raise ValueError("num_queries must be positive")
    generator = as_generator(rng)
    low, high = num_variables
    queries = []
    for index in range(num_queries):
        recipe = _MIX[index % len(_MIX)]
        size = int(generator.integers(low, high + 1))
        queries.append(
            random_tree_query(
                num_variables=size,
                relation=relation,
                negated_relation=negated_relation,
                rng=generator,
                **recipe,
            )
        )
    return queries


def workload_database(
    num_vertices: int = 12,
    edge_probability: float = 0.3,
    negated_facts: int = 8,
    rng: RNGLike = None,
    relation: str = "E",
    negated_relation: str = "F",
) -> Database:
    """A synthetic database for the mixed workload: an Erdős–Rényi graph as a
    symmetric binary relation plus a sparse second relation for the negated
    atoms of the workload's ECQs (the schemes require every relation a query
    mentions to be declared in the database)."""
    generator = as_generator(rng)
    database = database_from_graph(
        erdos_renyi_graph(num_vertices, edge_probability, rng=generator),
        relation=relation,
    )
    from repro.relational.signature import RelationSymbol

    database.add_relation(RelationSymbol(negated_relation, 2))
    for _ in range(negated_facts):
        u, v = (
            int(generator.integers(0, num_vertices)),
            int(generator.integers(0, num_vertices)),
        )
        database.add_fact(negated_relation, (u, v))
    return database


@dataclass
class WorkloadReport:
    """A batch report plus the per-scheme breakdown of a workload run."""

    batch: BatchReport
    scheme_counts: Dict[str, int]
    class_counts: Dict[str, int]

    @property
    def throughput_qps(self) -> float:
        return self.batch.throughput_qps


def run_workload(
    service: CountingService,
    queries: Sequence[ConjunctiveQuery],
    database: Optional[Database] = None,
    seed: Optional[int] = None,
    epsilon: Optional[float] = None,
    delta: Optional[float] = None,
    executor: Optional[str] = None,
    max_workers: Optional[int] = None,
) -> WorkloadReport:
    """Run a workload through ``service.count_batch`` and summarise it."""
    requests = [
        CountRequest(query=query, database=database, epsilon=epsilon, delta=delta)
        for query in queries
    ]
    batch = service.count_batch(
        requests, seed=seed, executor=executor, max_workers=max_workers
    )
    scheme_counts: Dict[str, int] = {}
    class_counts: Dict[str, int] = {}
    for result in batch.results:
        scheme_counts[result.scheme] = scheme_counts.get(result.scheme, 0) + 1
        class_counts[result.query_class] = class_counts.get(result.query_class, 0) + 1
    return WorkloadReport(
        batch=batch, scheme_counts=scheme_counts, class_counts=class_counts
    )
