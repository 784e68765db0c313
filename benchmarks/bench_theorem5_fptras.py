"""Experiment: Figure 1, bounded-arity tractable cell / Theorem 5.

Claim reproduced: for ECQs whose hypergraphs have bounded treewidth and arity,
the FPTRAS of Theorem 5 computes (epsilon, delta)-approximations of
|Ans(phi, D)| whose accuracy tracks the exact count, at a cost that does not
explode with the database (the f(||phi||) factor is paid once per query).

The bench runs the FPTRAS and the exact baseline on seeded Erdős–Rényi
databases for three bounded-treewidth ECQ shapes (the introduction's friends
query, a two-hop query with a disequality, and a star query with pairwise
distinct leaves) and reports count, estimate and relative error.
"""

from __future__ import annotations

import zlib

import pytest

from repro.core import count_answers_exact, fptras_count_ecq
from repro.queries import parse_query
from repro.queries.builders import friends_query, star_query
from repro.relational import Database
from repro.util.estimation import relative_error
from repro.workloads import database_from_graph, erdos_renyi_graph

EPSILON = 0.4
DELTA = 0.2


def _friends_database(num_people: int, seed: int) -> Database:
    graph = erdos_renyi_graph(num_people, 0.25, rng=seed)
    return database_from_graph(graph, relation="F")


CASES = [
    ("friends (intro example)", friends_query(), "F", 14),
    ("two-hop with disequality", parse_query("Ans(x, y) :- E(x, z), E(z, y), x != y"), "E", 12),
    ("star-3 distinct leaves", star_query(3, with_disequalities=True), "E", 10),
]


@pytest.mark.parametrize("name, query, relation, size", CASES, ids=[c[0] for c in CASES])
def test_theorem5_accuracy(name, query, relation, size, table_printer, benchmark):
    """Accuracy of the Theorem-5 FPTRAS against the exact count."""
    graph = erdos_renyi_graph(size, 0.3, rng=zlib.crc32(name.encode()) % 1000)
    database = database_from_graph(graph, relation=relation)
    truth = count_answers_exact(query, database)
    estimate = benchmark.pedantic(
        lambda: fptras_count_ecq(query, database, EPSILON, DELTA, rng=1),
        rounds=1,
        iterations=1,
    )
    error = relative_error(estimate, truth) if truth else 0.0
    table_printer(
        f"Theorem 5 accuracy — {name}",
        ["query class", "treewidth", "|U(D)|", "exact", "FPTRAS", "rel. error"],
        [[query.query_class().value, 1, size, truth, f"{estimate:.1f}", f"{error:.3f}"]],
    )
    assert error <= 0.6 or abs(estimate - truth) <= 2


@pytest.mark.parametrize("size", [8, 12, 16])
def test_theorem5_fptras_runtime(benchmark, size):
    """Runtime of the FPTRAS as the database grows (fixed query)."""
    graph = erdos_renyi_graph(size, 0.3, rng=size)
    database = database_from_graph(graph, relation="F")
    query = friends_query()

    result = benchmark(
        lambda: fptras_count_ecq(query, database, EPSILON, DELTA, rng=size)
    )
    assert result >= 0


@pytest.mark.parametrize("size", [8, 12, 16])
def test_exact_baseline_runtime(benchmark, size):
    """Exact-counting baseline on the same instances (for comparison)."""
    graph = erdos_renyi_graph(size, 0.3, rng=size)
    database = database_from_graph(graph, relation="F")
    query = friends_query()
    result = benchmark(lambda: count_answers_exact(query, database))
    assert result >= 0
