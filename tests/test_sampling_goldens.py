"""Golden draws of the exact Section-6 samplers.

Exactly uniform answer samples (``sample_answers(exact=True)``), Karp–Luby
estimates with exact components, and a served sharded union estimate (whose
plan runs Karp–Luby over one component per shard restriction) are pinned to
the values recorded for the pinning recursion with exact counts, so any change
to the candidates, weights or random draws of the exact sampler shows up
here.  Estimates compare with ``==``: they must be bit-identical.
"""

from __future__ import annotations

import pytest

from repro.queries import parse_query
from repro.sampling import sample_answers
from repro.service import CountingService, CountRequest, ServiceConfig
from repro.shard import HashTuplePartitioner, ShardedStructure
from repro.unions import approx_count_union
from repro.workloads import database_from_graph, erdos_renyi_graph

SAMPLES = {
    "Ans(x, y) :- E(x, z), E(z, y)": [(9, 6), (9, 0), (5, 1), (7, 10), (8, 5), (8, 5)],
    "Ans(x) :- E(x, y), E(y, z)": [(9,), (4,), (9,), (0,), (5,), (2,)],
    "Ans(x, y, z) :- E(x, y), E(y, z), x != z": [
        (9, 2, 0), (0, 7, 3), (7, 0, 8), (5, 9, 1), (4, 7, 3), (2, 9, 5),
    ],
    # E is symmetric, so the negation leaves no answer.
    "Ans(x, y) :- E(x, y), not E(y, x)": [],
    "Ans() :- E(x, y), E(y, z), E(z, x)": [(), (), (), (), (), ()],
}
UNION = (
    "Ans(x, y) :- E(x, z), E(z, y)",
    "Ans(x, y) :- E(x, y)",
    "Ans(x, y) :- E(x, y), E(y, z), x != z",
)
UNION_ESTIMATES = {0: 84.375, 1: 92.8125, 2: 99.375}


@pytest.fixture(scope="module")
def database():
    return database_from_graph(erdos_renyi_graph(12, 0.3, rng=31))


@pytest.mark.parametrize("engine", ["indexed", "columnar", "naive"])
@pytest.mark.parametrize("text", list(SAMPLES))
def test_exact_samples(database, text, engine):
    samples = sample_answers(parse_query(text), database, num_samples=6, rng=4, exact=True,
                             engine=engine)
    assert samples == SAMPLES[text]


@pytest.mark.parametrize("seed", sorted(UNION_ESTIMATES))
def test_karp_luby_with_exact_components(database, seed):
    queries = [parse_query(text) for text in UNION]
    estimate = approx_count_union(
        queries, database, epsilon=0.5, delta=0.1, rng=seed, exact_components=True
    )
    assert estimate == UNION_ESTIMATES[seed]


def test_served_sharded_union():
    """The 2-hop on a 2-shard hash-by-tuple split of G(30, 0.3) seed 31 plans
    as a union; fpras_cq at epsilon 0.2 runs Karp–Luby over exact components."""
    database = database_from_graph(erdos_renyi_graph(30, 0.3, rng=31))
    sharded = ShardedStructure.from_structure(database, HashTuplePartitioner(2))
    service = CountingService(sharded, ServiceConfig(executor="serial"))
    result = service.submit(CountRequest(
        query=parse_query("Ans(x, y) :- E(x, z), E(z, y)"), epsilon=0.2, seed=1,
        method="fpras_cq",
    ))
    assert result.shard_strategy == "union"
    assert result.estimate == 912.0359078590786
