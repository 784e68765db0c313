"""Service workloads built from the :mod:`repro.workloads` generators.

Produces mixed CQ/DCQ/ECQ batches over synthetic graph databases (the paper
has no datasets; DESIGN.md records this substitution) for
``service.count_batch`` — the building block of ``benchmarks/record_perf.py
--suite service`` and the CLI's ``batch --workload N``.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.queries.query import ConjunctiveQuery
from repro.relational.structure import Database
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
