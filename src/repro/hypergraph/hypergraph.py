"""The :class:`Hypergraph` data structure.

A hypergraph ``H`` consists of a finite vertex set ``V(H)`` and a set of
non-empty hyperedges ``E(H) ⊆ 2^V(H)`` (paper, Section 1.2).  The *arity* of a
hypergraph is the maximum size of its hyperedges.  Query hypergraphs
``H(phi)`` (Definition 3), the hypergraphs associated with relational
structures (Section 4) and the hypergraphs handed to the width measures in
:mod:`repro.decomposition` are all instances of this class.

Hyperedges are stored as frozensets and the edge *set* semantics of the paper
are preserved: adding the same hyperedge twice results in a single hyperedge.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Set

import networkx as nx

Vertex = Hashable
Edge = FrozenSet[Vertex]


class Hypergraph:
    """A finite hypergraph with hashable vertices.

    Parameters
    ----------
    vertices:
        Iterable of vertices.  Vertices appearing in edges are added
        automatically, so this is only needed for isolated vertices.
    edges:
        Iterable of vertex-iterables; empty edges are rejected.
    """

    def __init__(
        self,
        vertices: Iterable[Vertex] = (),
        edges: Iterable[Iterable[Vertex]] = (),
    ) -> None:
        self._vertices: Set[Vertex] = set(vertices)
        self._edges: Set[Edge] = set()
        for edge in edges:
            self.add_edge(edge)

    # ------------------------------------------------------------------ basic
    def add_edge(self, edge: Iterable[Vertex]) -> FrozenSet[Vertex]:
        """Add a hyperedge (and its endpoints) and return it as a frozenset."""
        frozen = frozenset(edge)
        if not frozen:
            raise ValueError("hyperedges must be non-empty")
        self._vertices.update(frozen)
        self._edges.add(frozen)
        return frozen

    @property
    def vertices(self) -> FrozenSet[Vertex]:
        """The vertex set V(H)."""
        return frozenset(self._vertices)

    @property
    def edges(self) -> FrozenSet[Edge]:
        """The hyperedge set E(H)."""
        return frozenset(self._edges)

    def num_vertices(self) -> int:
        return len(self._vertices)

    def num_edges(self) -> int:
        return len(self._edges)

    def arity(self) -> int:
        """Maximum hyperedge cardinality (0 for an edgeless hypergraph)."""
        if not self._edges:
            return 0
        return max(len(edge) for edge in self._edges)

    def is_uniform(self, cardinality: Optional[int] = None) -> bool:
        """Whether every hyperedge has the same cardinality (optionally a
        specific one)."""
        sizes = {len(edge) for edge in self._edges}
        if not sizes:
            return True
        if len(sizes) > 1:
            return False
        if cardinality is None:
            return True
        return sizes == {cardinality}

    def has_edge(self, edge: Iterable[Vertex]) -> bool:
        return frozenset(edge) in self._edges

    def degree(self, vertex: Vertex) -> int:
        """Number of hyperedges containing ``vertex``."""
        if vertex not in self._vertices:
            raise KeyError(f"unknown vertex {vertex!r}")
        return sum(1 for edge in self._edges if vertex in edge)

    def incident_edges(self, vertex: Vertex) -> List[Edge]:
        """The hyperedges containing ``vertex``."""
        if vertex not in self._vertices:
            raise KeyError(f"unknown vertex {vertex!r}")
        return [edge for edge in self._edges if vertex in edge]

    def isolated_vertices(self) -> Set[Vertex]:
        """Vertices not contained in any hyperedge."""
        covered: Set[Vertex] = set()
        for edge in self._edges:
            covered.update(edge)
        return self._vertices - covered

    # -------------------------------------------------------------- structure
    def neighbours(self, vertex: Vertex) -> Set[Vertex]:
        """Vertices sharing at least one hyperedge with ``vertex``."""
        result: Set[Vertex] = set()
        for edge in self.incident_edges(vertex):
            result.update(edge)
        result.discard(vertex)
        return result

    def primal_graph(self) -> nx.Graph:
        """The primal (Gaifman) graph: vertices of H, with an edge between two
        vertices whenever they co-occur in some hyperedge.

        The treewidth of a hypergraph (Definition 4) coincides with the
        treewidth of its primal graph, which is how
        :mod:`repro.decomposition.treewidth` computes it.
        """
        graph = nx.Graph()
        graph.add_nodes_from(self._vertices)
        for edge in self._edges:
            edge_list = list(edge)
            for i, u in enumerate(edge_list):
                for v in edge_list[i + 1 :]:
                    graph.add_edge(u, v)
        return graph

    def connected_components(self) -> List[Set[Vertex]]:
        """Connected components of the primal graph (isolated vertices are
        singleton components)."""
        return [set(component) for component in nx.connected_components(self.primal_graph())]

    def is_connected(self) -> bool:
        if not self._vertices:
            return True
        return len(self.connected_components()) == 1

    # ------------------------------------------------------------- operations
    def induced(self, subset: Iterable[Vertex]) -> "Hypergraph":
        """The induced hypergraph H[X] of Definition 39: vertex set X, edges
        { e ∩ X : e ∈ E(H), e ∩ X ≠ ∅ }."""
        subset_set = set(subset)
        unknown = subset_set - self._vertices
        if unknown:
            raise KeyError(f"vertices not in hypergraph: {sorted(map(repr, unknown))}")
        induced_edges = []
        for edge in self._edges:
            intersection = edge & subset_set
            if intersection:
                induced_edges.append(intersection)
        return Hypergraph(vertices=subset_set, edges=induced_edges)

    def remove_vertex(self, vertex: Vertex) -> "Hypergraph":
        """A new hypergraph with ``vertex`` removed from the vertex set and
        from every hyperedge (empty edges disappear)."""
        if vertex not in self._vertices:
            raise KeyError(f"unknown vertex {vertex!r}")
        remaining = self._vertices - {vertex}
        new_edges = []
        for edge in self._edges:
            trimmed = edge - {vertex}
            if trimmed:
                new_edges.append(trimmed)
        return Hypergraph(vertices=remaining, edges=new_edges)

    def with_singleton_edges(self, vertices: Iterable[Vertex]) -> "Hypergraph":
        """A copy with additional size-1 hyperedges {v} for the given vertices.

        This is the operation used in the proofs of Theorem 5 and Lemma 35:
        adding unary relations to a structure adds singleton hyperedges to its
        hypergraph, which increases neither treewidth (beyond max(tw, 0)) nor
        adaptive width (beyond max(aw, 1)).
        """
        copy = self.copy()
        for vertex in vertices:
            copy.add_edge([vertex])
        return copy

    def union(self, other: "Hypergraph") -> "Hypergraph":
        """Disjoint-aware union: vertex sets and edge sets are unioned."""
        return Hypergraph(
            vertices=self._vertices | other._vertices,
            edges=list(self._edges) + list(other._edges),
        )

    def copy(self) -> "Hypergraph":
        return Hypergraph(vertices=self._vertices, edges=self._edges)

    # ------------------------------------------------------------- conversion
    @classmethod
    def from_graph(cls, graph: nx.Graph) -> "Hypergraph":
        """Build the arity-2 hypergraph of a simple graph."""
        return cls(vertices=graph.nodes(), edges=[frozenset(edge) for edge in graph.edges()])

    # ----------------------------------------------------------------- dunder
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((frozenset(self._vertices), frozenset(self._edges)))

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._vertices

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._vertices)

    def __len__(self) -> int:
        return len(self._vertices)

    def __repr__(self) -> str:
        return (
            f"Hypergraph(|V|={self.num_vertices()}, |E|={self.num_edges()}, "
            f"arity={self.arity()})"
        )
