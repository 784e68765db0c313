"""Tree decompositions (Definition 4).

A tree decomposition of a hypergraph ``H`` is a pair ``(T, B)`` where ``T`` is
a rooted tree and ``B`` assigns a bag ``B_t ⊆ V(H)`` to each node ``t`` of
``T`` such that

(i)  every hyperedge ``e ∈ E(H)`` is contained in some bag, and
(ii) for every vertex ``v ∈ V(H)`` the set of tree nodes whose bag contains
     ``v`` induces a connected subtree of ``T``.

The *treewidth* of ``(T, B)`` is ``max_t |B_t| - 1``; other width measures are
obtained by replacing ``|B_t| - 1`` with a different bag-cost function
(Definition 32), which is what :func:`TreeDecomposition.f_width` provides.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple

import networkx as nx

from repro.hypergraph import Hypergraph

NodeId = Hashable
Bag = FrozenSet


class TreeDecomposition:
    """A rooted tree decomposition of a hypergraph.

    Parameters
    ----------
    tree:
        A networkx (undirected) tree on arbitrary hashable node identifiers.
    bags:
        Mapping from each tree node to an iterable of hypergraph vertices.
    root:
        The root node; defaults to an arbitrary node of the tree.
    """

    def __init__(
        self,
        tree: nx.Graph,
        bags: Dict[NodeId, Iterable],
        root: Optional[NodeId] = None,
    ) -> None:
        if tree.number_of_nodes() == 0:
            raise ValueError("a tree decomposition needs at least one node")
        if not nx.is_tree(tree):
            raise ValueError("the decomposition tree must be a tree")
        missing = set(tree.nodes()) - set(bags.keys())
        if missing:
            raise ValueError(f"missing bags for tree nodes: {sorted(map(repr, missing))}")
        self._tree = tree.copy()
        self._bags: Dict[NodeId, Bag] = {node: frozenset(bags[node]) for node in tree.nodes()}
        if root is None:
            root = next(iter(tree.nodes()))
        if root not in self._tree:
            raise ValueError(f"root {root!r} is not a node of the tree")
        self._root = root

    # ----------------------------------------------------------------- access
    @property
    def tree(self) -> nx.Graph:
        return self._tree

    @property
    def root(self) -> NodeId:
        return self._root

    @property
    def bags(self) -> Dict[NodeId, Bag]:
        return dict(self._bags)

    def bag(self, node: NodeId) -> Bag:
        return self._bags[node]

    def nodes(self) -> List[NodeId]:
        return list(self._tree.nodes())

    def num_nodes(self) -> int:
        return self._tree.number_of_nodes()

    def children(self, node: NodeId) -> List[NodeId]:
        """Children of ``node`` in the rooted orientation."""
        parent = self.parents().get(node)
        return [n for n in self._tree.neighbors(node) if n != parent]

    def parents(self) -> Dict[NodeId, Optional[NodeId]]:
        """Parent map induced by the root (root maps to None)."""
        parents: Dict[NodeId, Optional[NodeId]] = {self._root: None}
        stack = [self._root]
        while stack:
            node = stack.pop()
            for neighbour in self._tree.neighbors(node):
                if neighbour not in parents:
                    parents[neighbour] = node
                    stack.append(neighbour)
        return parents

    def leaves(self) -> List[NodeId]:
        """Nodes without children in the rooted orientation."""
        return [node for node in self._tree.nodes() if not self.children(node)]

    def topological_order(self) -> List[NodeId]:
        """Nodes in root-to-leaf (BFS) order."""
        return list(nx.bfs_tree(self._tree, self._root).nodes())

    def bottom_up_order(self) -> List[NodeId]:
        """Nodes in leaf-to-root order (reverse BFS), for bottom-up DP."""
        return list(reversed(self.topological_order()))

    def all_bag_vertices(self) -> Set:
        vertices: Set = set()
        for bag in self._bags.values():
            vertices |= bag
        return vertices

    # ------------------------------------------------------------------ width
    def width(self) -> int:
        """Treewidth of the decomposition: max bag size minus one."""
        return max(len(bag) for bag in self._bags.values()) - 1

    def f_width(self, cost: Callable[[FrozenSet], float]) -> float:
        """The f-width of the decomposition (Definition 32): the maximum of
        ``cost(B_t)`` over all tree nodes."""
        return max(cost(bag) for bag in self._bags.values())

    # ------------------------------------------------------------- validation
    def is_valid_for(self, hypergraph: Hypergraph) -> bool:
        """Whether this is a valid tree decomposition of ``hypergraph``."""
        return not self.validation_errors(hypergraph)

    def validation_errors(self, hypergraph: Hypergraph) -> List[str]:
        """Human-readable list of violated tree-decomposition conditions."""
        errors: List[str] = []
        vertices = set(hypergraph.vertices)
        bag_vertices = self.all_bag_vertices()
        stray = bag_vertices - vertices
        if stray:
            errors.append(f"bags contain unknown vertices: {sorted(map(repr, stray))}")
        uncovered_vertices = vertices - bag_vertices
        if uncovered_vertices:
            errors.append(
                f"vertices not covered by any bag: {sorted(map(repr, uncovered_vertices))}"
            )
        # Condition (i): every hyperedge inside some bag.
        for edge in hypergraph.edges:
            if not any(edge <= bag for bag in self._bags.values()):
                errors.append(f"hyperedge {sorted(map(repr, edge))} not contained in any bag")
        # Condition (ii): connectivity of the occurrences of each vertex.
        for vertex in vertices:
            occupied = [node for node, bag in self._bags.items() if vertex in bag]
            if len(occupied) <= 1:
                continue
            subtree = self._tree.subgraph(occupied)
            if not nx.is_connected(subtree):
                errors.append(f"occurrences of vertex {vertex!r} are not connected")
        return errors

    # ------------------------------------------------------------- operations
    def reroot(self, new_root: NodeId) -> "TreeDecomposition":
        """Return the same decomposition rooted at ``new_root``."""
        return TreeDecomposition(self._tree, self._bags, root=new_root)

    def copy(self) -> "TreeDecomposition":
        return TreeDecomposition(self._tree, self._bags, root=self._root)

    def rename_vertices(self, mapping: Dict) -> "TreeDecomposition":
        """Return the same decomposition with every bag vertex renamed through
        ``mapping`` (vertices absent from the map are kept).  The tree shape,
        node identifiers and root are preserved, so niceness and node kinds
        survive — the prepared-query layer uses this to translate a shared
        decomposition into an alpha-renamed query's variable space.  The
        mapping must be injective on each bag (alpha-renamings are)."""
        new_bags = {
            node: frozenset(mapping.get(v, v) for v in bag)
            for node, bag in self._bags.items()
        }
        for node, bag in new_bags.items():
            if len(bag) != len(self._bags[node]):
                raise ValueError("rename_vertices mapping collapses a bag")
        return type(self)(self._tree, new_bags, root=self._root)

    @classmethod
    def single_bag(cls, vertices: Iterable) -> "TreeDecomposition":
        """The trivial decomposition with one bag containing every vertex."""
        tree = nx.Graph()
        tree.add_node(0)
        return cls(tree, {0: frozenset(vertices)}, root=0)

    @classmethod
    def from_bag_list(
        cls, bag_list: List[Iterable], edges: List[Tuple[int, int]], root: int = 0
    ) -> "TreeDecomposition":
        """Build a decomposition from a list of bags (indexed 0..n-1) and a
        list of tree edges between the indices."""
        tree = nx.Graph()
        tree.add_nodes_from(range(len(bag_list)))
        tree.add_edges_from(edges)
        bags = {index: frozenset(bag) for index, bag in enumerate(bag_list)}
        return cls(tree, bags, root=root)

    def __repr__(self) -> str:
        return f"TreeDecomposition(nodes={self.num_nodes()}, width={self.width()})"
