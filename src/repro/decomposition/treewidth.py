"""Treewidth (Definition 4): the f-width with bag cost ``|X| - 1``.

The treewidth of a hypergraph equals the treewidth of its primal graph.  Every
routine here is one call to the f-width search
:func:`~repro.decomposition.f_width.f_width_decomposition`: exact on
hypergraphs with at most
:data:`~repro.decomposition.f_width.EXACT_F_WIDTH_LIMIT` vertices, the better
of the min-fill and min-degree elimination orderings beyond.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Tuple

from repro.decomposition.f_width import f_width_decomposition
from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.hypergraph import Hypergraph


def _treewidth_cost(bag: FrozenSet) -> float:
    return len(bag) - 1


def treewidth_decomposition(
    hypergraph: Hypergraph, exact: Optional[bool] = None
) -> Tuple[TreeDecomposition, int, bool]:
    """A tree decomposition of ``hypergraph`` together with its width and
    whether that width is the exact treewidth.

    ``exact`` forces the exact DP (True) or the greedy orderings (False); by
    default the exact DP runs whenever the hypergraph has at most
    :data:`~repro.decomposition.f_width.EXACT_F_WIDTH_LIMIT` vertices.  The
    empty hypergraph has treewidth -1.
    """
    decomposition, width, is_exact = f_width_decomposition(
        hypergraph, _treewidth_cost, exact
    )
    return decomposition, int(width), is_exact


def exact_treewidth(hypergraph: Hypergraph) -> int:
    """The exact treewidth of a small hypergraph (raises ``ValueError``
    beyond :data:`~repro.decomposition.f_width.EXACT_F_WIDTH_LIMIT` vertices)."""
    return treewidth_decomposition(hypergraph, exact=True)[1]


def treewidth_upper_bound(hypergraph: Hypergraph) -> int:
    """A treewidth upper bound from the greedy elimination orderings."""
    return treewidth_decomposition(hypergraph, exact=False)[1]
