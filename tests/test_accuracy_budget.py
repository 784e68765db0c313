"""The (epsilon, delta) budget audit: every approximate path's leaves must add
up to the budget its caller asked for.

Each cell opens a budget ledger, runs one estimate, and checks the ledger:

* the leaves' failure probabilities sum to at most the requested delta
  (multiplicity * delta over the rows, plus 1e-12 of rounding);
* no leaf's accuracy is underived, no leaf runs looser than the requested
  epsilon, and every product split composes to at most it:
  prod (1 + eps_i) <= 1 + eps.

The ledger draws no random numbers, so every cell is deterministic.  Two
cells fail for reasons tracked on the ROADMAP and stay here as strict
xfails, so fixing them shows up as an XPASS.
"""

import math

import pytest

from repro.core.registry import REGISTRY
from repro.queries import parse_query
from repro.queries.builders import friends_query
from repro.relational import Database
from repro.relational.signature import RelationSymbol
from repro.sampling import sample_answers
from repro.sampling.jvv import AnswerTable
from repro.service import CountingService, CountRequest, ServiceConfig
from repro.shard import ByRelationPartitioner, ShardedStructure, plan_sharded_count
from repro.unions import karp_luby
from repro.util.estimation import PRODUCT, UNDERIVED, Budget, budget_ledger
from repro.workloads import database_from_graph, erdos_renyi_graph

from test_colour_coding_compiled import DATABASES, TWO_FREE, golden_database

EPSILON, DELTA = 0.5, 0.25
SERVE = golden_database(*DATABASES["serve"])
PATH_EDGES = Database.from_graph_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
UNION = ("Ans(x) :- E(x, y), E(y, z), x != z", "Ans(x) :- E(x, y), E(x, z), y != z")


def audit(ledger, budget):
    assert ledger, "the cell spent no budget"
    assert ledger.delta_spent() <= budget.delta + 1e-12, ledger.lines()
    assert UNDERIVED not in {kind for (_, _, _, kind) in ledger}, ledger.lines()
    for (_, epsilon, _, kind), count in ledger.items():
        if kind == PRODUCT:
            assert (1.0 + epsilon) ** count <= 1.0 + budget.epsilon + 1e-12
        else:
            assert epsilon <= budget.epsilon


def fptras_dcq_phase_one():
    query = parse_query("Ans(x) :- E(x, y), E(x, z), y != z")
    REGISTRY.count("fptras_dcq", query, SERVE, epsilon=EPSILON, delta=DELTA, rng=0)


def fptras_ecq_phase_one():
    query = parse_query("Ans(x) :- E(x, y), E(y, z), not F(x, z)")
    REGISTRY.count("fptras_ecq", query, SERVE, epsilon=EPSILON, delta=DELTA, rng=0)


def fptras_ecq_phase_two():
    wider = golden_database(*DATABASES["wider"])
    REGISTRY.count("fptras_ecq", parse_query(TWO_FREE), wider, epsilon=EPSILON, delta=DELTA, rng=0)


def union_exact_components():
    REGISTRY.count_union(
        [parse_query(text) for text in UNION], PATH_EDGES,
        epsilon=EPSILON, delta=DELTA, rng=1, exact_components=True,
    )


def union_approximate_components():
    REGISTRY.count_union(
        [parse_query(text) for text in UNION], PATH_EDGES, epsilon=EPSILON, delta=DELTA, rng=1
    )


def sharded_local_plan():
    database = database_from_graph(erdos_renyi_graph(9, 0.3, rng=7))
    database.add_relation(RelationSymbol("F", 2))
    for fact in [(0, 1), (2, 3), (1, 4)]:
        database.add_fact("F", fact)
    sharded = ShardedStructure.from_structure(
        database, ByRelationPartitioner(2, assignment={"E": 0, "F": 1})
    )
    query = parse_query("Ans(x, u) :- E(x, y), F(u, v)")
    assert plan_sharded_count(query, sharded).strategy == "local"
    CountingService(sharded, ServiceConfig(executor="serial")).submit(
        CountRequest(query=query, epsilon=EPSILON, delta=DELTA, seed=17, method="fptras_ecq")
    )


def approximate_sampler():
    database = Database(universe=["alice", "bob", "carol", "dave", "erin", "frank"])
    for a, b in [("alice", "bob"), ("alice", "carol"), ("bob", "carol"), ("dave", "alice")]:
        database.add_fact("F", (a, b))
        database.add_fact("F", (b, a))
    sample_answers(friends_query(), database, num_samples=2, epsilon=EPSILON, delta=DELTA, rng=3)


def fpras_cq():
    database = database_from_graph(erdos_renyi_graph(7, 0.4, rng=1))
    query = parse_query("Ans(x) :- E(x, y), E(y, z), E(z, w), E(w, v)")
    REGISTRY.count("fpras_cq", query, database, epsilon=EPSILON, delta=DELTA, rng=1)


CELLS = [
    pytest.param(fptras_dcq_phase_one, {"lemma22.colour_coding_call"}, id="fptras_dcq"),
    pytest.param(fptras_ecq_phase_one, {"lemma22.colour_coding_call"}, id="fptras_ecq"),
    pytest.param(
        fptras_ecq_phase_two, {"lemma22.colour_coding_call", "dlm.median"}, id="dlm_phase_two"
    ),
    pytest.param(union_exact_components, {"karp_luby.sampling"}, id="karp_luby_exact"),
    pytest.param(
        union_approximate_components,
        {"karp_luby.sampling", "lemma22.colour_coding_call"},
        id="karp_luby_approximate",
        marks=pytest.mark.xfail(
            strict=True,
            reason="ROADMAP item 4: the Chernoff bound does not yet compose the "
            "approximate components' epsilon, so its row is underived",
        ),
    ),
    pytest.param(
        sharded_local_plan, {"shard.product", "lemma22.colour_coding_call"}, id="shard_local"
    ),
    pytest.param(approximate_sampler, {"lemma22.colour_coding_call"}, id="jvv_approximate"),
    pytest.param(
        fpras_cq,
        {"tree_automaton.union[64 samples]"},
        id="fpras_cq",
        marks=pytest.mark.xfail(
            strict=True,
            reason="ROADMAP item 3: the per-union sample count is not derived "
            "from (epsilon, delta)",
        ),
    ),
]


@pytest.mark.parametrize("cell, sites", CELLS)
def test_budget_adds_up(cell, sites):
    with budget_ledger() as ledger:
        cell()
    assert {site for (site, _, _, _) in ledger} == sites
    audit(ledger, Budget(EPSILON, DELTA))


def test_registry_trace_ends_with_its_ledger():
    query = parse_query("Ans(x) :- E(x, y), E(x, z), y != z")
    alone = REGISTRY.count("fptras_dcq", query, SERVE, epsilon=EPSILON, delta=DELTA, rng=0)
    with budget_ledger() as ledger:
        nested = REGISTRY.count("fptras_dcq", query, SERVE, epsilon=EPSILON, delta=DELTA, rng=0)
    assert alone.estimate == nested.estimate
    assert alone.trace == nested.trace + ledger.lines()
    assert ledger.lines()[0].startswith("budget lemma22.colour_coding_call: eps=0.5 ")


def test_exact_schemes_spend_nothing():
    query = parse_query("Ans(x) :- E(x, y), E(x, z), y != z")
    with budget_ledger() as ledger:
        result = REGISTRY.count("exact", query, SERVE)
    assert not ledger and result.trace == ("exact CSP-backtracking count (error-free)",)


def test_budget_children():
    budget = Budget(0.5, 0.05)
    assert budget.split_delta(4) == Budget(0.5, 0.0125)
    assert budget.product(1) == budget
    child = budget.product(3)
    assert (1.0 + child.epsilon) ** 3 == pytest.approx(1.5) and child.delta == 0.05 / 3
    # The uncapped median length DLM's phase 2 runs at delta 0.05.
    assert budget.repetitions(0.3) == 39
    with pytest.raises(ValueError):
        budget.split_delta(0)


def test_karp_luby_honours_its_sample_bound(monkeypatch):
    """k = 3, epsilon = 0.05, delta = 0.01 with exact components takes
    ceil(4 k ln(2/delta) / epsilon^2) draws; nothing caps them.  The real
    estimator runs, and a wrapper around the answer table's draw counts."""
    draws = []
    draw = AnswerTable.draw

    def counted_draw(table, generator):
        draws.append(1)
        return draw(table, generator)

    monkeypatch.setattr(AnswerTable, "draw", counted_draw)
    queries = [parse_query(text) for text in UNION + ("Ans(x) :- E(x, y)",)]
    karp_luby.approx_count_union(
        queries, PATH_EDGES, epsilon=0.05, delta=0.01, rng=0, exact_components=True
    )
    assert len(draws) == math.ceil(4 * 3 * math.log(200) / 0.05**2) == 25432
