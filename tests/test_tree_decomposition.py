"""Tests for tree decompositions, the f-width DP, treewidth and nice tree
decompositions (Definitions 4, 32, 42 and Lemma 43)."""

from __future__ import annotations

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decomposition import (
    NiceTreeDecomposition,
    TreeDecomposition,
    exact_treewidth,
    f_width_decomposition,
    make_nice,
    treewidth_decomposition,
    treewidth_upper_bound,
)
from repro.decomposition.f_width import decomposition_from_ordering
from repro.hypergraph import (
    Hypergraph,
    complete_graph_hypergraph,
    cycle_hypergraph,
    grid_hypergraph,
    path_hypergraph,
    random_hypergraph,
    star_hypergraph,
    tree_hypergraph,
)


def gnp_hypergraph(seed: int) -> Hypergraph:
    """G(22, 0.2) without isolated vertices: beyond the exact-width limit,
    where min-fill and min-degree disagree for seeds 152 and 1."""
    graph = nx.gnp_random_graph(22, 0.2, seed=seed)
    graph.remove_nodes_from(list(nx.isolates(graph)))
    return Hypergraph.from_graph(graph)


class TestTreeDecomposition:
    def test_single_bag_is_valid(self):
        hypergraph = Hypergraph(edges=[(1, 2), (2, 3)])
        decomposition = TreeDecomposition.single_bag(hypergraph.vertices)
        assert decomposition.is_valid_for(hypergraph)
        assert decomposition.width() == 2

    def test_invalid_missing_edge_cover(self):
        hypergraph = Hypergraph(edges=[(1, 2), (2, 3)])
        decomposition = TreeDecomposition.from_bag_list([[1, 2], [3]], edges=[(0, 1)])
        errors = decomposition.validation_errors(hypergraph)
        assert any("not contained in any bag" in error for error in errors)

    def test_invalid_disconnected_occurrences(self):
        hypergraph = Hypergraph(edges=[(1, 2), (2, 3)])
        decomposition = TreeDecomposition.from_bag_list(
            [[1, 2], [3], [2, 3]], edges=[(0, 1), (1, 2)]
        )
        errors = decomposition.validation_errors(hypergraph)
        assert any("not connected" in error for error in errors)

    def test_path_decomposition_valid(self):
        hypergraph = path_hypergraph(4)
        decomposition = TreeDecomposition.from_bag_list(
            [[0, 1], [1, 2], [2, 3]], edges=[(0, 1), (1, 2)]
        )
        assert decomposition.is_valid_for(hypergraph)
        assert decomposition.width() == 1

    def test_children_and_parent_structure(self):
        decomposition = TreeDecomposition.from_bag_list(
            [[1], [1, 2], [1, 3]], edges=[(0, 1), (0, 2)], root=0
        )
        assert set(decomposition.children(0)) == {1, 2}
        assert decomposition.children(1) == []
        parents = decomposition.parents()
        assert parents[0] is None
        assert parents[1] == 0

    def test_bottom_up_order_visits_children_first(self):
        decomposition = TreeDecomposition.from_bag_list(
            [[1], [1, 2], [2, 3]], edges=[(0, 1), (1, 2)], root=0
        )
        order = decomposition.bottom_up_order()
        assert order.index(2) < order.index(1) < order.index(0)

    def test_non_tree_rejected(self):
        graph = nx.cycle_graph(3)
        with pytest.raises(ValueError):
            TreeDecomposition(graph, {0: [1], 1: [2], 2: [3]})

    def test_reroot(self):
        decomposition = TreeDecomposition.from_bag_list(
            [[1], [1, 2]], edges=[(0, 1)], root=0
        )
        rerooted = decomposition.reroot(1)
        assert rerooted.root == 1
        assert rerooted.children(1) == [0]


class TestExactTreewidth:
    @pytest.mark.parametrize(
        "hypergraph, expected",
        [
            (path_hypergraph(6), 1),
            (star_hypergraph(5), 1),
            (cycle_hypergraph(6), 2),
            (complete_graph_hypergraph(5), 4),
            (grid_hypergraph(3, 3), 3),
            (Hypergraph(vertices=[1]), 0),
        ],
    )
    def test_known_treewidths(self, hypergraph, expected):
        assert exact_treewidth(hypergraph) == expected

    def test_tree_has_treewidth_one(self):
        hypergraph = tree_hypergraph(10, rng=1)
        assert exact_treewidth(hypergraph) == 1

    def test_single_hyperedge_treewidth(self):
        hypergraph = Hypergraph(edges=[(1, 2, 3, 4)])
        assert exact_treewidth(hypergraph) == 3

    def test_decomposition_achieves_width_and_is_valid(self):
        hypergraph = grid_hypergraph(3, 3)
        decomposition, width, is_exact = treewidth_decomposition(hypergraph)
        assert is_exact
        assert width == 3
        assert decomposition.width() == 3
        assert decomposition.is_valid_for(hypergraph)

    def test_upper_bound_never_below_exact(self):
        hypergraph = grid_hypergraph(3, 4)
        assert treewidth_upper_bound(hypergraph) >= exact_treewidth(hypergraph)

    @pytest.mark.parametrize(
        "hypergraph",
        [grid_hypergraph(4, 5), gnp_hypergraph(152), gnp_hypergraph(1)],
        ids=["grid4x5", "gnp22-152", "gnp22-1"],
    )
    def test_heuristic_decomposition_valid(self, hypergraph):
        decomposition, width, is_exact = treewidth_decomposition(hypergraph, exact=False)
        assert not is_exact
        assert decomposition.is_valid_for(hypergraph)
        assert width >= 4 - 1  # heuristic width is at least something sensible
        # Every treewidth entry point makes the same greedy choice.
        assert treewidth_upper_bound(hypergraph) == width
        assert treewidth_decomposition(hypergraph)[1] == width


class TestFWidth:
    def test_f_width_with_cardinality_cost_matches_treewidth(self):
        hypergraph = cycle_hypergraph(5)
        _, value, is_exact = f_width_decomposition(hypergraph, lambda bag: len(bag) - 1)
        assert is_exact
        assert value == exact_treewidth(hypergraph)

    def test_f_width_decomposition_valid(self):
        hypergraph = grid_hypergraph(2, 4)
        decomposition, value, _ = f_width_decomposition(hypergraph, lambda bag: len(bag) - 1)
        assert decomposition.is_valid_for(hypergraph)
        assert value == exact_treewidth(hypergraph)

    @pytest.mark.parametrize("exact", [True, False])
    def test_all_infinite_costs_still_give_a_decomposition(self, exact):
        hypergraph = cycle_hypergraph(5)
        decomposition, value, is_exact = f_width_decomposition(
            hypergraph, lambda bag: math.inf, exact=exact
        )
        assert is_exact == exact
        assert value == math.inf
        assert decomposition.is_valid_for(hypergraph)

    def test_decomposition_from_ordering_valid_for_any_ordering(self):
        hypergraph = cycle_hypergraph(6)
        ordering = sorted(hypergraph.vertices)
        decomposition = decomposition_from_ordering(hypergraph, ordering)
        assert decomposition.is_valid_for(hypergraph)

    def test_ordering_must_cover_vertices(self):
        hypergraph = path_hypergraph(3)
        with pytest.raises(ValueError):
            decomposition_from_ordering(hypergraph, [0, 1])

    def test_too_large_rejected(self):
        hypergraph = path_hypergraph(25)
        with pytest.raises(ValueError):
            f_width_decomposition(hypergraph, lambda bag: len(bag) - 1, exact=True)


class TestNiceTreeDecomposition:
    @pytest.mark.parametrize(
        "hypergraph",
        [
            path_hypergraph(5),
            cycle_hypergraph(5),
            grid_hypergraph(2, 3),
            star_hypergraph(4),
            complete_graph_hypergraph(4),
        ],
    )
    def test_make_nice_produces_valid_nice_decomposition(self, hypergraph):
        decomposition, _, _ = treewidth_decomposition(hypergraph)
        nice = make_nice(decomposition, hypergraph)
        assert nice.is_nice()
        assert nice.is_valid_for(hypergraph)
        # Lemma 43: the width does not increase (bags are subsets of originals).
        assert nice.width() <= decomposition.width()

    def test_nice_root_and_leaves_empty(self):
        hypergraph = path_hypergraph(4)
        decomposition, _, _ = treewidth_decomposition(hypergraph)
        nice = make_nice(decomposition, hypergraph)
        assert nice.bag(nice.root) == frozenset()
        for leaf in nice.leaves():
            assert nice.bag(leaf) == frozenset()

    def test_node_kinds_partition(self):
        hypergraph = grid_hypergraph(2, 3)
        decomposition, _, _ = treewidth_decomposition(hypergraph)
        nice = make_nice(decomposition, hypergraph)
        kinds = {nice.node_kind(node) for node in nice.nodes()}
        assert kinds <= {
            NiceTreeDecomposition.KIND_LEAF,
            NiceTreeDecomposition.KIND_JOIN,
            NiceTreeDecomposition.KIND_INTRODUCE,
            NiceTreeDecomposition.KIND_FORGET,
        }

    def test_introduced_and_forgotten_vertices(self):
        hypergraph = path_hypergraph(3)
        decomposition, _, _ = treewidth_decomposition(hypergraph)
        nice = make_nice(decomposition, hypergraph)
        for node in nice.nodes():
            kind = nice.node_kind(node)
            if kind == NiceTreeDecomposition.KIND_INTRODUCE:
                vertex = nice.introduced_vertex(node)
                (child,) = nice.children(node)
                assert vertex in nice.bag(node)
                assert vertex not in nice.bag(child)
            elif kind == NiceTreeDecomposition.KIND_FORGET:
                vertex = nice.forgotten_vertex(node)
                (child,) = nice.children(node)
                assert vertex not in nice.bag(node)
                assert vertex in nice.bag(child)


@settings(max_examples=25, deadline=None)
@given(
    num_vertices=st.integers(min_value=2, max_value=9),
    num_edges=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=999),
)
def test_exact_treewidth_decomposition_is_always_valid(num_vertices, num_edges, seed):
    hypergraph = random_hypergraph(num_vertices, num_edges, arity=min(3, num_vertices), rng=seed)
    decomposition, width, is_exact = treewidth_decomposition(hypergraph)
    assert is_exact
    assert decomposition.is_valid_for(hypergraph)
    assert decomposition.width() == width
    # Treewidth is bounded by |V| - 1 and at least arity - 1 when there are edges.
    assert width <= num_vertices - 1
    if hypergraph.num_edges() > 0:
        assert width >= hypergraph.arity() - 1


@settings(max_examples=20, deadline=None)
@given(
    num_vertices=st.integers(min_value=2, max_value=8),
    num_edges=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=999),
)
def test_make_nice_preserves_validity_random(num_vertices, num_edges, seed):
    hypergraph = random_hypergraph(num_vertices, num_edges, arity=min(3, num_vertices), rng=seed)
    decomposition, _, _ = treewidth_decomposition(hypergraph)
    nice = make_nice(decomposition, hypergraph)
    assert nice.is_nice()
    assert nice.is_valid_for(hypergraph)
