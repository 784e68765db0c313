"""Fractional edge covers and fractional hypertreewidth (Definitions 39, 41).

A fractional edge cover of a hypergraph ``H`` is a weighting
``gamma : E(H) -> [0, 1]`` such that every vertex is covered with total weight
at least 1; the fractional edge cover number ``fcn(H)`` is the minimum total
weight.  The fractional hypertreewidth ``fhw(H)`` is the f-width of ``H`` with
bag cost ``f(X) = fcn(H[X])`` (Definition 41).

``fcn`` is computed exactly as a linear program with :mod:`scipy.optimize`.
``fhw`` is one call to the f-width search of :mod:`repro.decomposition.f_width`
with that cost (Observation 40 gives the monotonicity it needs): exact on
small hypergraphs, the better greedy elimination ordering otherwise.  A bag
holding a vertex that no hyperedge of ``H[X]`` covers costs ``inf``.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Dict, FrozenSet, Hashable, Tuple

import numpy as np
from scipy.optimize import linprog

from repro.decomposition.f_width import f_width_decomposition
from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.hypergraph import Hypergraph

Vertex = Hashable


def fractional_edge_cover(
    hypergraph: Hypergraph,
) -> Tuple[Dict[FrozenSet, float], float]:
    """An optimal fractional edge cover and its total weight ``fcn(H)``.

    Isolated vertices (not contained in any hyperedge) make a fractional edge
    cover impossible; in that case a ``ValueError`` is raised.  An edgeless
    hypergraph without vertices has ``fcn = 0``.
    """
    vertices = sorted(hypergraph.vertices, key=repr)
    edges = sorted(hypergraph.edges, key=lambda e: repr(tuple(sorted(e, key=repr))))
    if not vertices:
        return {}, 0.0
    if hypergraph.isolated_vertices():
        raise ValueError("hypergraph with isolated vertices has no fractional edge cover")
    if not edges:
        raise ValueError("hypergraph with vertices but no edges has no fractional edge cover")

    vertex_index = {v: i for i, v in enumerate(vertices)}
    num_edges = len(edges)
    num_vertices = len(vertices)

    # minimise sum_e gamma_e  s.t.  for every v: sum_{e ∋ v} gamma_e >= 1,
    # 0 <= gamma_e <= 1.  linprog solves min c x with A_ub x <= b_ub.
    c = np.ones(num_edges)
    coverage = np.zeros((num_vertices, num_edges))
    for j, edge in enumerate(edges):
        for vertex in edge:
            coverage[vertex_index[vertex], j] = 1.0
    a_ub = -coverage
    b_ub = -np.ones(num_vertices)
    bounds = [(0.0, 1.0)] * num_edges
    result = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not result.success:
        raise RuntimeError(f"fractional edge cover LP failed: {result.message}")
    weights = {edge: float(max(0.0, w)) for edge, w in zip(edges, result.x)}
    return weights, float(result.fun)


def fractional_edge_cover_number(hypergraph: Hypergraph) -> float:
    """``fcn(H)``: the optimal value of the fractional edge cover LP."""
    _, value = fractional_edge_cover(hypergraph)
    return value


def _fcn_cost(hypergraph: Hypergraph, bag: FrozenSet) -> float:
    """Bag cost ``X -> fcn(H[X])``.

    Vertices of the bag not touched by any hyperedge of ``H[X]`` cannot be
    fractionally covered, so such a bag costs ``inf``; it occurs exactly when
    some vertex of ``H`` lies in no hyperedge.
    """
    if not bag:
        return 0.0
    induced = hypergraph.induced(bag)
    if induced.isolated_vertices() or induced.num_edges() == 0:
        return math.inf
    return fractional_edge_cover_number(induced)


def fractional_hypertreewidth(hypergraph: Hypergraph) -> Tuple[float, bool]:
    """``fhw(H)`` and whether the value is exact.

    Exact on hypergraphs with at most
    :data:`~repro.decomposition.f_width.EXACT_F_WIDTH_LIMIT` vertices,
    otherwise an upper bound from greedy elimination orderings.
    """
    _, width, is_exact = fractional_hypertreewidth_decomposition(hypergraph)
    return width, is_exact


def fractional_hypertreewidth_decomposition(
    hypergraph: Hypergraph
) -> Tuple[TreeDecomposition, float, bool]:
    """A tree decomposition (approximately) minimising the fractional
    hypertreewidth, the achieved fhw, and whether it is exact.

    The role of this routine in the reproduction is Lemma 43: the FPRAS of
    Theorem 16 first computes a tree decomposition of ``H(phi)`` whose bags
    have bounded fractional edge cover number.  The paper invokes Marx's
    cubic-approximation algorithm [33]; queries are small, so we compute an
    *optimal* decomposition exactly instead whenever the query has at most
    ``EXACT_F_WIDTH_LIMIT`` variables, and fall back to greedy orderings
    beyond that.
    """
    return f_width_decomposition(hypergraph, partial(_fcn_cost, hypergraph))
