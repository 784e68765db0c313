"""Tests for fractional edge covers, fractional hypertreewidth,
(generalized) hypertreewidth, adaptive width and the Lemma-12 relations."""

from __future__ import annotations

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decomposition import (
    adaptive_width_lower_bound,
    adaptive_width_upper_bound,
    edge_cover_number,
    estimate_adaptive_width,
    exact_treewidth,
    fractional_edge_cover,
    fractional_edge_cover_number,
    fractional_hypertreewidth,
    fractional_hypertreewidth_decomposition,
    generalized_hypertreewidth,
    hypertree_decomposition,
    mu_width,
    uniform_fractional_independent_set,
    width_profile,
)
from repro.decomposition.adaptive import (
    is_fractional_independent_set,
    observation_34_holds,
    random_fractional_independent_set,
)
from repro.hypergraph import (
    Hypergraph,
    complete_graph_hypergraph,
    cycle_hypergraph,
    grid_hypergraph,
    path_hypergraph,
    random_hypergraph,
    star_hypergraph,
)
from repro.hypergraph.generators import single_edge_hypergraph


def gnp_hypergraph(seed: int) -> Hypergraph:
    """G(22, 0.2) without isolated vertices: beyond the exact-width limit,
    where min-fill and min-degree disagree for seeds 152 and 1."""
    graph = nx.gnp_random_graph(22, 0.2, seed=seed)
    graph.remove_nodes_from(list(nx.isolates(graph)))
    return Hypergraph.from_graph(graph)


def estimate(hypergraph, samples, rng):
    return estimate_adaptive_width(
        hypergraph, adaptive_width_upper_bound(hypergraph), samples=samples, rng=rng
    )


class TestFractionalEdgeCover:
    def test_single_edge(self):
        hypergraph = single_edge_hypergraph(4)
        weights, value = fractional_edge_cover(hypergraph)
        assert value == pytest.approx(1.0)
        assert sum(weights.values()) == pytest.approx(1.0)

    def test_triangle_fractional_cover_is_three_halves(self):
        """The triangle needs weight 1/2 on every edge: fcn(K3) = 3/2."""
        hypergraph = cycle_hypergraph(3)
        assert fractional_edge_cover_number(hypergraph) == pytest.approx(1.5)

    def test_path_cover(self):
        hypergraph = path_hypergraph(4)  # 3 edges, 4 vertices
        value = fractional_edge_cover_number(hypergraph)
        assert value == pytest.approx(2.0)

    def test_cover_is_feasible(self):
        hypergraph = grid_hypergraph(2, 3)
        weights, _ = fractional_edge_cover(hypergraph)
        for vertex in hypergraph.vertices:
            covered = sum(w for edge, w in weights.items() if vertex in edge)
            assert covered >= 1.0 - 1e-6

    def test_isolated_vertex_rejected(self):
        hypergraph = Hypergraph(vertices=[1, 2, 3], edges=[(1, 2)])
        with pytest.raises(ValueError):
            fractional_edge_cover(hypergraph)

    def test_empty_hypergraph(self):
        assert fractional_edge_cover(Hypergraph()) == ({}, 0.0)


class TestFractionalHypertreewidth:
    def test_acyclic_single_edge_has_fhw_one(self):
        hypergraph = single_edge_hypergraph(5)
        value, exact = fractional_hypertreewidth(hypergraph)
        assert exact
        assert value == pytest.approx(1.0)

    def test_path_has_fhw_one(self):
        value, _ = fractional_hypertreewidth(path_hypergraph(5))
        assert value == pytest.approx(1.0)

    def test_triangle_fhw(self):
        value, _ = fractional_hypertreewidth(cycle_hypergraph(3))
        assert value == pytest.approx(1.5)

    def test_fhw_at_most_hypertreewidth(self):
        for hypergraph in [cycle_hypergraph(5), grid_hypergraph(2, 3), star_hypergraph(4)]:
            fhw, _ = fractional_hypertreewidth(hypergraph)
            ghw, _ = generalized_hypertreewidth(hypergraph)
            assert fhw <= ghw + 1e-9

    def test_fhw_decomposition_is_valid(self):
        hypergraph = grid_hypergraph(2, 3)
        decomposition, value, exact = fractional_hypertreewidth_decomposition(hypergraph)
        assert exact
        assert decomposition.is_valid_for(hypergraph)
        assert value >= 1.0


class TestHypertreewidth:
    def test_edge_cover_number(self):
        hypergraph = Hypergraph(edges=[(1, 2, 3), (3, 4), (4, 5)])
        assert edge_cover_number(hypergraph, frozenset({1, 2, 3})) == 1
        assert edge_cover_number(hypergraph, frozenset({1, 4})) == 2
        assert edge_cover_number(hypergraph, frozenset()) == 0

    def test_acyclic_has_ghw_one(self):
        value, exact = generalized_hypertreewidth(single_edge_hypergraph(6))
        assert exact
        assert value == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "hypergraph",
        [cycle_hypergraph(5), gnp_hypergraph(152), gnp_hypergraph(1)],
        ids=["cycle5", "gnp22-152", "gnp22-1"],
    )
    def test_hypertree_decomposition_valid(self, hypergraph):
        decomposition = hypertree_decomposition(hypergraph)
        assert decomposition.is_valid_for(hypergraph)
        assert decomposition.width() >= 1
        # Both ghw entry points make the same choice, exact or greedy.
        assert decomposition.width() == generalized_hypertreewidth(hypergraph)[0]

    def test_triangle_hypertreewidth(self):
        value, _ = generalized_hypertreewidth(cycle_hypergraph(3))
        assert value == pytest.approx(2.0)


class TestAdaptiveWidth:
    def test_uniform_fis_is_valid(self):
        hypergraph = grid_hypergraph(2, 3)
        mu = uniform_fractional_independent_set(hypergraph)
        assert is_fractional_independent_set(hypergraph, mu)

    def test_random_fis_is_valid(self):
        hypergraph = random_hypergraph(8, 10, arity=3, rng=0)
        mu = random_fractional_independent_set(hypergraph, rng=1)
        assert is_fractional_independent_set(hypergraph, mu)

    def test_mu_width_uniform_path(self):
        """On an arity-2 path, the uniform mu gives mu-width = (tw+1)/2 = 1."""
        hypergraph = path_hypergraph(5)
        mu = uniform_fractional_independent_set(hypergraph)
        assert mu_width(hypergraph, mu) == pytest.approx(1.0)

    def test_mu_width_rejects_invalid_mu(self):
        hypergraph = path_hypergraph(3)
        with pytest.raises(ValueError):
            mu_width(hypergraph, {v: 1.0 for v in hypergraph.vertices})

    def test_bounds_bracket(self):
        for hypergraph in [path_hypergraph(5), cycle_hypergraph(5), grid_hypergraph(2, 3)]:
            bracket = estimate(hypergraph, samples=4, rng=0)
            assert bracket.lower_bound <= bracket.upper_bound + 1e-9

    def test_single_edge_adaptive_width_one(self):
        hypergraph = single_edge_hypergraph(5)
        bracket = estimate(hypergraph, samples=4, rng=0)
        assert bracket.upper_bound == pytest.approx(1.0)
        assert bracket.lower_bound <= 1.0 + 1e-9

    def test_observation_34(self):
        for hypergraph in [
            path_hypergraph(6),
            cycle_hypergraph(5),
            complete_graph_hypergraph(5),
            grid_hypergraph(3, 3),
            single_edge_hypergraph(4),
        ]:
            assert observation_34_holds(hypergraph, rng=0)

    def test_bounded_by_resolution(self):
        bracket = estimate(path_hypergraph(4), samples=2, rng=0)
        assert bracket.bounded_by(2.0) is True
        assert bracket.bounded_by(0.1) is False


class TestWidthProfile:
    def test_profile_on_grid(self):
        profile = width_profile(grid_hypergraph(2, 3), rng=0)
        assert profile.treewidth == 2
        assert profile.treewidth_exact
        assert profile.arity == 2
        assert profile.satisfies_lemma_12_chain()

    def test_profile_separates_treewidth_from_hypergraph_measures(self):
        """A single high-arity edge: tw = arity - 1 but hw = fhw = aw = 1."""
        profile = width_profile(single_edge_hypergraph(6), rng=0)
        assert profile.treewidth == 5
        assert profile.hypertreewidth == pytest.approx(1.0)
        assert profile.fractional_hypertreewidth == pytest.approx(1.0)
        assert profile.adaptive_width.upper_bound == pytest.approx(1.0)
        assert profile.satisfies_lemma_12_chain()

    def test_profile_on_empty_hypergraph(self):
        profile = width_profile(Hypergraph(), rng=0)
        assert profile.num_vertices == 0
        assert profile.treewidth == -1

    def test_uncoverable_vertex_has_infinite_hypergraph_widths(self):
        """A vertex in no hyperedge: every bag holding it costs inf, so ghw
        and fhw are inf while treewidth and the mu-widths stay finite."""
        hypergraph = Hypergraph(vertices=[1, 2, 3], edges=[(1, 2)])
        profile = width_profile(hypergraph, rng=0)
        assert profile.treewidth == 1
        assert profile.hypertreewidth == math.inf
        assert profile.fractional_hypertreewidth == math.inf
        assert profile.adaptive_width.upper_bound == math.inf
        assert profile.adaptive_width.lower_bound < math.inf
        assert edge_cover_number(hypergraph, frozenset({3})) == math.inf
        with pytest.raises(ValueError):
            hypertree_decomposition(hypergraph)


@settings(max_examples=20, deadline=None)
@given(
    num_vertices=st.integers(min_value=2, max_value=8),
    num_edges=st.integers(min_value=1, max_value=10),
    arity=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=500),
)
def test_lemma_12_relations_hold_on_random_hypergraphs(num_vertices, num_edges, arity, seed):
    """Per-instance consequences of Lemma 12: aw-lower <= fhw <= ghw, and
    Observation 34 (via the uniform fractional independent set)."""
    arity = min(arity, num_vertices)
    hypergraph = random_hypergraph(num_vertices, num_edges, arity, rng=seed, uniform=True)
    if hypergraph.isolated_vertices():
        hypergraph = hypergraph.with_singleton_edges(hypergraph.isolated_vertices())
    fhw, _ = fractional_hypertreewidth(hypergraph)
    ghw, _ = generalized_hypertreewidth(hypergraph)
    assert fhw <= ghw + 1e-6
    lower = adaptive_width_lower_bound(hypergraph, samples=3, rng=seed)
    assert lower <= fhw + 1e-6
    assert observation_34_holds(hypergraph)


@settings(max_examples=20, deadline=None)
@given(
    num_vertices=st.integers(min_value=2, max_value=7),
    num_edges=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=500),
)
def test_fractional_cover_lp_is_feasible_and_at_most_integral(num_vertices, num_edges, seed):
    """The LP optimum is feasible and never exceeds the greedy integral cover."""
    hypergraph = random_hypergraph(num_vertices, num_edges, arity=min(3, num_vertices), rng=seed)
    if hypergraph.isolated_vertices() or hypergraph.num_edges() == 0:
        hypergraph = hypergraph.with_singleton_edges(hypergraph.vertices)
    weights, value = fractional_edge_cover(hypergraph)
    for vertex in hypergraph.vertices:
        assert sum(w for edge, w in weights.items() if vertex in edge) >= 1.0 - 1e-6
    integral = edge_cover_number(hypergraph, frozenset(hypergraph.vertices))
    assert value <= integral + 1e-6
