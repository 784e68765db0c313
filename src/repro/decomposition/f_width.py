"""The one f-width search (Definition 32) behind every width measure.

For a monotone bag-cost function ``f`` (monotone means ``f(X) <= f(Y)``
whenever ``X ⊆ Y``; all the cost functions used in the paper — ``|X| - 1`` for
treewidth, the integral edge cover number for generalized hypertreewidth,
``fcn(H[X])`` for fractional hypertreewidth (Observation 40), and ``mu(X)``
for adaptive width — are monotone), the f-width of a hypergraph equals the
minimum over *elimination orderings* of the maximum cost of the bags produced
by eliminating vertices in that order.

:func:`f_width_decomposition` is the only place that turns a bag cost into a
tree decomposition; every width measure is its own cost plus one call:

* up to :data:`EXACT_F_WIDTH_LIMIT` vertices it runs the classic
  Bodlaender–Fomin–Koster–Kratsch–Thilikos style dynamic program over subsets
  of eliminated vertices, which runs in ``O(2^n * poly(n))`` and is exact;
* beyond that it takes the better of the min-fill and min-degree greedy
  elimination orderings (ties go to min-fill), an upper bound.

A bag that no choice of hyperedges can cover costs ``math.inf``; when every
ordering produces such a bag the search still returns a valid decomposition,
of width ``inf``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple

import networkx as nx

from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.hypergraph import Hypergraph

Vertex = Hashable

#: Hypergraphs with more vertices than this get greedy (upper-bound) widths.
EXACT_F_WIDTH_LIMIT = 18


def _reachable_through(
    graph: nx.Graph, source: Vertex, allowed: FrozenSet[Vertex]
) -> FrozenSet[Vertex]:
    """Vertices outside ``allowed ∪ {source}`` reachable from ``source`` via
    paths whose internal vertices all lie in ``allowed``.

    This is the set ``Q(allowed, source)`` from the exact-treewidth DP: when
    ``allowed`` is the set of already-eliminated vertices, eliminating
    ``source`` next creates a bag ``{source} ∪ Q(allowed, source)``.
    """
    seen = {source}
    stack = [source]
    result = set()
    while stack:
        vertex = stack.pop()
        for neighbour in graph.neighbors(vertex):
            if neighbour in seen:
                continue
            seen.add(neighbour)
            if neighbour in allowed:
                stack.append(neighbour)
            else:
                result.add(neighbour)
    return frozenset(result)


def _elimination_bag(
    graph: nx.Graph, eliminated: FrozenSet[Vertex], vertex: Vertex
) -> FrozenSet[Vertex]:
    """The bag created by eliminating ``vertex`` after ``eliminated``."""
    return _reachable_through(graph, vertex, eliminated) | {vertex}


def greedy_ordering(graph: nx.Graph, strategy: str) -> List:
    """Greedy elimination ordering using the min-degree or min-fill rule."""
    working = graph.copy()
    ordering: List = []
    while working.number_of_nodes() > 0:
        if strategy == "min_degree":
            vertex = min(
                working.nodes(), key=lambda v: (working.degree(v), repr(v))
            )
        elif strategy == "min_fill":

            def fill_in(v) -> int:
                neighbours = list(working.neighbors(v))
                missing = 0
                for i, u in enumerate(neighbours):
                    for w in neighbours[i + 1 :]:
                        if not working.has_edge(u, w):
                            missing += 1
                return missing

            vertex = min(working.nodes(), key=lambda v: (fill_in(v), repr(v)))
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        neighbours = list(working.neighbors(vertex))
        for i, u in enumerate(neighbours):
            for w in neighbours[i + 1 :]:
                working.add_edge(u, w)
        working.remove_node(vertex)
        ordering.append(vertex)
    return ordering


def best_elimination_ordering(
    hypergraph: Hypergraph,
    cost: Callable[[FrozenSet[Vertex]], float],
) -> Tuple[List[Vertex], float]:
    """Return an elimination ordering minimising the maximum bag cost, and
    that optimal cost (``inf`` when every ordering has an infinite bag).
    The hypergraph must have at least one vertex.

    Raises
    ------
    ValueError
        If the hypergraph has more than :data:`EXACT_F_WIDTH_LIMIT` vertices.
    """
    vertices = sorted(hypergraph.vertices, key=repr)
    n = len(vertices)
    if n > EXACT_F_WIDTH_LIMIT:
        raise ValueError(
            f"exact f-width is limited to {EXACT_F_WIDTH_LIMIT} vertices, got {n}"
        )
    graph = hypergraph.primal_graph()
    index_of = {v: i for i, v in enumerate(vertices)}
    full_mask = (1 << n) - 1

    def mask_to_set(mask: int) -> FrozenSet[Vertex]:
        return frozenset(vertices[i] for i in range(n) if mask & (1 << i))

    # dp[mask] = minimal (over orderings of the vertices in mask, eliminated
    # first) maximum bag cost incurred while eliminating exactly those
    # vertices.  choice[mask] = the vertex eliminated last among mask.
    dp: Dict[int, float] = {0: -math.inf}
    choice: Dict[int, Vertex] = {}

    masks_by_popcount: List[List[int]] = [[] for _ in range(n + 1)]
    for mask in range(full_mask + 1):
        masks_by_popcount[bin(mask).count("1")].append(mask)

    for size in range(1, n + 1):
        for mask in masks_by_popcount[size]:
            best_value = math.inf
            best_vertex: Optional[Vertex] = None
            for i in range(n):
                bit = 1 << i
                if not mask & bit:
                    continue
                previous = mask ^ bit
                vertex = vertices[i]
                bag = _elimination_bag(graph, mask_to_set(previous), vertex)
                value = max(dp[previous], cost(bag))
                # The first candidate is always taken, so a mask whose every
                # candidate costs inf still records a vertex to eliminate.
                if best_vertex is None or value < best_value:
                    best_value = value
                    best_vertex = vertex
            dp[mask] = best_value
            choice[mask] = best_vertex

    # Reconstruct the ordering (the vertex stored for a mask is eliminated
    # *last* among that mask).
    ordering_reversed: List[Vertex] = []
    mask = full_mask
    while mask:
        vertex = choice[mask]
        ordering_reversed.append(vertex)
        mask ^= 1 << index_of[vertex]
    ordering = list(reversed(ordering_reversed))
    return ordering, dp[full_mask]


def decomposition_from_ordering(
    hypergraph: Hypergraph, ordering: Sequence[Vertex]
) -> TreeDecomposition:
    """Build a tree decomposition from an elimination ordering.

    The bag of the ``i``-th node is the elimination bag of ``ordering[i]``
    (the vertex plus its not-yet-eliminated "neighbours through eliminated
    vertices"); node ``i`` is attached to the node of the first later vertex
    appearing in its bag, which yields a valid tree decomposition.
    """
    vertices = list(ordering)
    n = len(vertices)
    if n == 0:
        return TreeDecomposition.single_bag(hypergraph.vertices)
    if set(vertices) != set(hypergraph.vertices):
        raise ValueError("ordering must contain every vertex exactly once")
    graph = hypergraph.primal_graph()
    position = {v: i for i, v in enumerate(vertices)}

    bags: List[FrozenSet[Vertex]] = []
    eliminated: set = set()
    for vertex in vertices:
        bag = _elimination_bag(graph, frozenset(eliminated), vertex)
        bags.append(bag)
        eliminated.add(vertex)

    tree = nx.Graph()
    tree.add_nodes_from(range(n))
    for i in range(n):
        later = [position[v] for v in bags[i] if position[v] > i]
        if later:
            tree.add_edge(i, min(later))
        elif i < n - 1:
            # Disconnected component: attach to the last node so the result
            # remains a tree.
            tree.add_edge(i, n - 1)
    decomposition = TreeDecomposition(tree, dict(enumerate(bags)), root=n - 1)
    return decomposition


def f_width_decomposition(
    hypergraph: Hypergraph,
    cost: Callable[[FrozenSet[Vertex]], float],
    exact: Optional[bool] = None,
) -> Tuple[TreeDecomposition, float, bool]:
    """A tree decomposition (approximately) minimising the f-width for the
    monotone bag cost ``cost``, its f-width, and whether that is exact.

    ``exact`` defaults to ``num_vertices <= EXACT_F_WIDTH_LIMIT``; forcing it
    to ``True`` on a larger hypergraph raises ``ValueError``.  Each bag is
    costed once per call.  The empty hypergraph has the single empty bag, of
    cost ``cost(frozenset())``.
    """
    memo: Dict[FrozenSet[Vertex], float] = {}

    def bag_cost(bag: FrozenSet[Vertex]) -> float:
        if bag not in memo:
            memo[bag] = float(cost(bag))
        return memo[bag]

    n = hypergraph.num_vertices()
    if n == 0:
        return TreeDecomposition.single_bag([]), bag_cost(frozenset()), True
    if exact is None:
        exact = n <= EXACT_F_WIDTH_LIMIT
    if exact:
        ordering, width = best_elimination_ordering(hypergraph, bag_cost)
        return decomposition_from_ordering(hypergraph, ordering), width, True
    graph = hypergraph.primal_graph()
    best: Optional[Tuple[TreeDecomposition, float]] = None
    for strategy in ("min_fill", "min_degree"):
        decomposition = decomposition_from_ordering(
            hypergraph, greedy_ordering(graph, strategy)
        )
        width = decomposition.f_width(bag_cost)
        if best is None or width < best[1]:
            best = (decomposition, width)
    assert best is not None
    return best[0], best[1], False
