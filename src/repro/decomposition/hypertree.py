"""Hypertree decompositions and (generalized) hypertreewidth (Definition 37).

A hypertree decomposition extends a tree decomposition with *guards*: each bag
``B_t`` is assigned a set of hyperedges ``Γ_t ⊆ E(H)`` whose union covers the
bag.  The hypertreewidth of the decomposition is the maximum guard size.

Computing hypertreewidth exactly is NP-hard in general.  For the reproduction
we compute the *generalized* hypertreewidth ``ghw`` (which drops the
"descendant" condition (iv) of Definition 37 and satisfies
``ghw <= hw <= 3·ghw + 1``): the f-width whose bag cost is the minimum number
of hyperedges covering the bag (``inf`` when no cover exists), which is
monotone.  :func:`generalized_hypertreewidth` and
:func:`hypertree_decomposition` are one call each to the f-width search of
:mod:`repro.decomposition.f_width` with that cost, so they agree by
construction; guards are the same exact set covers.

The measure is only used for comparison with the Arenas et al. baseline
(Theorem 38) and by the width-profile report; the paper's own algorithms need
treewidth, fractional hypertreewidth and adaptive width, which are computed in
their dedicated modules.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.decomposition.f_width import f_width_decomposition
from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.hypergraph import Hypergraph

Vertex = Hashable


def _minimum_edge_cover(
    hypergraph: Hypergraph, bag: FrozenSet
) -> Optional[Tuple[FrozenSet, ...]]:
    """A minimum-cardinality set of hyperedges whose union covers ``bag``,
    or ``None`` if no cover exists.

    Solved exactly by trying cover sizes in increasing order; bags are small
    (they come from query hypergraphs), so this is fast in practice.
    """
    edges = [edge for edge in hypergraph.edges if edge & bag]
    if bag <= frozenset().union(*edges):
        for size in range(len(edges) + 1):
            for combo in itertools.combinations(edges, size):
                if bag <= frozenset().union(*combo):
                    return combo
    return None


def edge_cover_number(hypergraph: Hypergraph, bag: FrozenSet) -> float:
    """Minimum number of hyperedges of ``hypergraph`` whose union covers
    ``bag`` (``inf`` if no cover exists)."""
    cover = _minimum_edge_cover(hypergraph, frozenset(bag))
    return math.inf if cover is None else float(len(cover))


def guard_for_bag(hypergraph: Hypergraph, bag: FrozenSet) -> List[FrozenSet]:
    """A minimum-cardinality set of hyperedges covering ``bag``."""
    cover = _minimum_edge_cover(hypergraph, frozenset(bag))
    if cover is None:
        raise ValueError("bag cannot be covered by hyperedges")
    return list(cover)


@dataclass
class HypertreeDecomposition:
    """A tree decomposition together with guards ``Γ_t`` for each bag."""

    decomposition: TreeDecomposition
    guards: Dict[Hashable, List[FrozenSet]]

    def width(self) -> int:
        """Hypertreewidth of the decomposition: maximum guard cardinality."""
        if not self.guards:
            return 0
        return max(len(guard) for guard in self.guards.values())

    def is_valid_for(self, hypergraph: Hypergraph) -> bool:
        """Check conditions (i)-(iii) of Definition 37 (the generalized
        hypertree decomposition conditions)."""
        if not self.decomposition.is_valid_for(hypergraph):
            return False
        for node in self.decomposition.nodes():
            bag = self.decomposition.bag(node)
            guard = self.guards.get(node, [])
            if any(edge not in hypergraph.edges for edge in guard):
                return False
            covered = frozenset().union(*guard) if guard else frozenset()
            if not bag <= covered:
                return False
        return True


def generalized_hypertreewidth(hypergraph: Hypergraph) -> Tuple[float, bool]:
    """The generalized hypertreewidth of ``hypergraph`` and whether it is
    exact (``inf`` when some vertex lies in no hyperedge)."""
    _, width, is_exact = f_width_decomposition(
        hypergraph, partial(edge_cover_number, hypergraph)
    )
    return width, is_exact


def hypertree_decomposition(hypergraph: Hypergraph) -> HypertreeDecomposition:
    """A (generalized) hypertree decomposition of ``hypergraph``: the
    ghw-minimising tree decomposition with a minimum guard per bag.

    Raises ``ValueError`` when some vertex lies in no hyperedge (its bag
    cannot be guarded).
    """
    decomposition, _, _ = f_width_decomposition(
        hypergraph, partial(edge_cover_number, hypergraph)
    )
    guards = {
        node: guard_for_bag(hypergraph, decomposition.bag(node))
        for node in decomposition.nodes()
    }
    return HypertreeDecomposition(decomposition, guards)
