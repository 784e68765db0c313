"""Tests for the workload generators and the shared utilities."""

from __future__ import annotations

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import (
    Budget,
    as_generator,
    check_epsilon_delta,
    check_positive_int,
    check_probability,
    relative_error,
    spawn_generators,
)
from repro.util.rng import (
    choice_cdf,
    draw_index,
    random_choice,
    random_coin,
    random_subset,
    shuffled,
    weighted_choice,
)
from repro.workloads import (
    database_from_graph,
    erdos_renyi_graph,
    grid_graph,
    power_law_graph,
    random_bipartite_graph,
    random_bounded_treewidth_query,
    random_database,
    random_high_arity_database,
    random_path_workload,
    random_star_workload,
    random_tree_query,
)
from repro.decomposition import exact_treewidth
from repro.queries import QueryClass


class TestRNG:
    def test_seed_reproducibility(self):
        first = as_generator(42).random(5)
        second = as_generator(42).random(5)
        assert np.allclose(first, second)

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert as_generator(generator) is generator

    def test_invalid_rng(self):
        with pytest.raises(TypeError):
            as_generator("not a seed")

    def test_spawn_generators_independent(self):
        children = spawn_generators(0, 3)
        assert len(children) == 3
        values = [child.random() for child in children]
        assert len(set(values)) == 3

    def test_random_helpers(self):
        assert random_choice([1, 2, 3], rng=0) in {1, 2, 3}
        assert set(shuffled([1, 2, 3], rng=0)) == {1, 2, 3}
        assert isinstance(random_coin(0.5, rng=0), bool)
        subset = random_subset(range(100), 0.5, rng=0)
        assert 20 <= len(subset) <= 80
        assert weighted_choice(["a", "b"], [0.0, 1.0], rng=0) == "b"
        with pytest.raises(ValueError):
            random_choice([], rng=0)
        with pytest.raises(ValueError):
            weighted_choice(["a"], [0.0], rng=0)
        with pytest.raises(ValueError, match="non-negative"):
            weighted_choice(["a", "b"], [-1.0, 2.0], rng=0)

    @pytest.mark.parametrize("length", range(1, 10))
    def test_draw_index_matches_generator_choice(self, length):
        """The table-driven draw returns ``Generator.choice``'s index and
        leaves the stream where ``choice`` leaves it, for NumPy-normalised
        and Python-normalised probabilities, zero weights included."""
        weights_rng = np.random.default_rng(length)
        for trial in range(300):
            weights = weights_rng.random(length) * weights_rng.integers(1, 1000)
            weights[weights_rng.random(length) < 0.2] = 0.0
            if weights.sum() <= 0:
                weights[weights_rng.integers(length)] = 1.0
            python_weights = weights.tolist()
            for p in (weights / weights.sum(), [w / sum(python_weights) for w in python_weights]):
                ours = np.random.default_rng([length, trial])
                numpys = np.random.default_rng([length, trial])
                for _ in range(3):
                    assert draw_index(choice_cdf(p), ours) == int(numpys.choice(length, p=p))
                assert ours.random() == numpys.random()


class TestEstimationHelpers:
    def test_budget_validation(self):
        with pytest.raises(ValueError):
            Budget(epsilon=1.5, delta=0.1)
        with pytest.raises(ValueError):
            Budget(epsilon=0.1, delta=0.0)
        budget = Budget(0.1, 0.2)
        assert budget.split_delta(2).delta == pytest.approx(0.1)

    def test_relative_error(self):
        assert relative_error(110, 100) == pytest.approx(0.1)
        assert relative_error(0, 0) == 0.0
        assert math.isinf(relative_error(1, 0))

    def test_repetitions_monotone_in_delta(self):
        assert Budget(0.5, 0.01).repetitions(1 / 3) >= Budget(0.5, 0.2).repetitions(1 / 3)
        assert Budget(0.5, 0.1).repetitions(1 / 3) % 2 == 1

    def test_validation_helpers(self):
        assert check_probability(0.5) == 0.5
        with pytest.raises(ValueError):
            check_probability(1.5)
        with pytest.raises(ValueError):
            check_epsilon_delta(0.0, 0.1)
        assert check_positive_int(3) == 3
        with pytest.raises(ValueError):
            check_positive_int(0)
        with pytest.raises(ValueError):
            check_positive_int(1.5)


class TestGraphWorkloads:
    def test_erdos_renyi_reproducible(self):
        first = erdos_renyi_graph(20, 0.3, rng=1)
        second = erdos_renyi_graph(20, 0.3, rng=1)
        assert set(first.edges()) == set(second.edges())

    def test_grid_graph(self):
        graph = grid_graph(3, 4)
        assert graph.number_of_nodes() == 12
        assert graph.number_of_edges() == 17

    def test_bipartite(self):
        graph = random_bipartite_graph(5, 5, 0.5, rng=2)
        left = set(range(5))
        for u, v in graph.edges():
            assert (u in left) != (v in left)

    def test_power_law_graph_connected_core(self):
        graph = power_law_graph(30, edges_per_vertex=2, rng=3)
        assert graph.number_of_nodes() == 30
        assert graph.number_of_edges() >= 29


class TestDatabaseWorkloads:
    def test_database_from_graph_symmetric(self):
        graph = nx.path_graph(3)
        database = database_from_graph(graph)
        assert database.has_fact("E", (0, 1)) and database.has_fact("E", (1, 0))
        assert len(database.universe) == 3

    def test_random_database_shapes(self):
        database = random_database(10, {"R": 3, "S": 2}, facts_per_relation=20, rng=4)
        assert database.signature["R"].arity == 3
        assert len(database.relation("R")) <= 20
        assert all(len(fact) == 2 for fact in database.relation("S"))

    def test_random_high_arity_database(self):
        database = random_high_arity_database(
            8, ["R0", "R1"], arity=4, facts_per_relation=15, rng=5
        )
        assert database.arity() == 4
        assert len(database.relation("R0")) > 0


class TestQueryWorkloads:
    def test_random_tree_query_treewidth_one(self):
        query = random_tree_query(6, num_free=3, rng=6)
        assert exact_treewidth(query.hypergraph()) == 1
        assert query.num_free() == 3

    def test_random_tree_query_with_extensions(self):
        query = random_tree_query(5, num_disequalities=2, num_negations=1, rng=7)
        assert query.query_class() is QueryClass.ECQ
        assert len(query.disequalities) == 2

    def test_random_bounded_treewidth_query(self):
        query = random_bounded_treewidth_query(8, treewidth=2, rng=8)
        assert exact_treewidth(query.hypergraph()) <= 2

    def test_path_and_star_workloads(self):
        paths = random_path_workload([1, 2, 3])
        assert [len(q.atoms) for q in paths] == [1, 2, 3]
        stars = random_star_workload([2, 3], with_disequalities=True)
        assert all(q.query_class() is QueryClass.DCQ for q in stars)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            random_tree_query(1)
        with pytest.raises(ValueError):
            random_bounded_treewidth_query(2, treewidth=3)


@settings(max_examples=20, deadline=None)
@given(
    num_variables=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=300),
)
def test_random_tree_queries_always_have_treewidth_one(num_variables, seed):
    query = random_tree_query(num_variables, rng=seed)
    assert exact_treewidth(query.hypergraph()) <= 1
