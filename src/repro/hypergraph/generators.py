"""Synthetic hypergraph generators.

These supply the hypergraph classes "C" that the paper's theorems quantify
over: bounded-treewidth families (paths, trees, grids of fixed height),
unbounded-treewidth families (cliques, grids), high-arity families, and random
hypergraphs for property-based testing.
"""

from __future__ import annotations

from typing import List, Optional

import networkx as nx

from repro.hypergraph.hypergraph import Hypergraph
from repro.util.rng import RNGLike, as_generator


def path_hypergraph(length: int) -> Hypergraph:
    """The path on ``length`` vertices (treewidth 1, arity 2).

    This is the hypergraph of the Hamiltonian-path query of Observation 10.
    """
    if length <= 0:
        raise ValueError("length must be positive")
    vertices = list(range(length))
    edges = [(i, i + 1) for i in range(length - 1)]
    return Hypergraph(vertices=vertices, edges=edges)


def cycle_hypergraph(length: int) -> Hypergraph:
    """The cycle on ``length`` >= 3 vertices (treewidth 2, arity 2)."""
    if length < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    edges = [(i, (i + 1) % length) for i in range(length)]
    return Hypergraph(vertices=range(length), edges=edges)


def star_hypergraph(leaves: int) -> Hypergraph:
    """The star with one centre (vertex 0) and ``leaves`` leaves
    (treewidth 1, arity 2).  The hypergraph of the footnote-4 query."""
    if leaves <= 0:
        raise ValueError("need at least one leaf")
    edges = [(0, i) for i in range(1, leaves + 1)]
    return Hypergraph(vertices=range(leaves + 1), edges=edges)


def tree_hypergraph(num_vertices: int, rng: RNGLike = None) -> Hypergraph:
    """A uniformly random labelled tree on ``num_vertices`` vertices
    (treewidth 1, arity 2), generated via a random Prüfer sequence."""
    if num_vertices <= 0:
        raise ValueError("num_vertices must be positive")
    if num_vertices == 1:
        return Hypergraph(vertices=[0])
    if num_vertices == 2:
        return Hypergraph(vertices=[0, 1], edges=[(0, 1)])
    generator = as_generator(rng)
    pruefer = [int(generator.integers(0, num_vertices)) for _ in range(num_vertices - 2)]
    tree = nx.from_prufer_sequence(pruefer)
    return Hypergraph.from_graph(tree)


def grid_hypergraph(rows: int, cols: int) -> Hypergraph:
    """The rows x cols grid graph as an arity-2 hypergraph.

    Its treewidth is min(rows, cols), so fixing one dimension gives a
    bounded-treewidth family while growing both gives the canonical
    unbounded-treewidth family used for hardness demonstrations.
    """
    if rows <= 0 or cols <= 0:
        raise ValueError("rows and cols must be positive")
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append(((r, c), (r, c + 1)))
            if r + 1 < rows:
                edges.append(((r, c), (r + 1, c)))
    vertices = [(r, c) for r in range(rows) for c in range(cols)]
    return Hypergraph(vertices=vertices, edges=edges)


def complete_graph_hypergraph(num_vertices: int) -> Hypergraph:
    """The complete graph K_n as an arity-2 hypergraph (treewidth n - 1):
    the canonical family with unbounded treewidth (Observation 9)."""
    if num_vertices <= 0:
        raise ValueError("num_vertices must be positive")
    edges = [
        (i, j) for i in range(num_vertices) for j in range(i + 1, num_vertices)
    ]
    return Hypergraph(vertices=range(num_vertices), edges=edges)


def single_edge_hypergraph(arity: int) -> Hypergraph:
    """A single hyperedge covering ``arity`` vertices: hypertreewidth 1,
    fractional hypertreewidth 1, treewidth ``arity - 1``.  The simplest family
    separating treewidth from the hypergraph width measures."""
    if arity <= 0:
        raise ValueError("arity must be positive")
    return Hypergraph(vertices=range(arity), edges=[tuple(range(arity))])


def random_hypergraph(
    num_vertices: int,
    num_edges: int,
    arity: int,
    rng: RNGLike = None,
    uniform: bool = False,
) -> Hypergraph:
    """A random hypergraph with hyperedges drawn uniformly (without a
    particular structure).  Each edge has cardinality ``arity`` when
    ``uniform`` is true, otherwise cardinality uniform in [1, arity].
    """
    if num_vertices <= 0:
        raise ValueError("num_vertices must be positive")
    if arity <= 0 or arity > num_vertices:
        raise ValueError("arity must be in [1, num_vertices]")
    generator = as_generator(rng)
    vertices = list(range(num_vertices))
    edges: List[tuple] = []
    for _ in range(num_edges):
        if uniform:
            size = arity
        else:
            size = int(generator.integers(1, arity + 1))
        members = generator.choice(num_vertices, size=size, replace=False)
        edges.append(tuple(int(v) for v in members))
    return Hypergraph(vertices=vertices, edges=edges)
