"""Tree decompositions and hypergraph width measures.

Implements the width-measure toolbox the paper's classification is phrased in
(Figure 1).  Every measure is an f-width (Definition 32) with its own bag
cost, computed by the one f-width search
:func:`~repro.decomposition.f_width.f_width_decomposition` (exact up to
``EXACT_F_WIDTH_LIMIT`` vertices, the better of the min-fill and min-degree
elimination orderings beyond): treewidth (Definition 4, cost ``|X| - 1``),
generalized hypertreewidth (Definition 37, the integral edge cover number),
fractional hypertreewidth (Definitions 39 and 41, ``fcn(H[X])``) and the
``mu``-widths behind adaptive width (Definition 33, ``mu(X)``).  Also here:
fractional edge covers and independent sets, nice tree decompositions
(Definition 42, Lemma 43) and the domination relations between the measures
(Lemma 12, Observation 34).
"""

from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.decomposition.treewidth import (
    exact_treewidth,
    treewidth_decomposition,
    treewidth_upper_bound,
)
from repro.decomposition.nice import NiceTreeDecomposition, make_nice
from repro.decomposition.fractional import (
    fractional_edge_cover,
    fractional_edge_cover_number,
    fractional_hypertreewidth,
    fractional_hypertreewidth_decomposition,
)
from repro.decomposition.hypertree import (
    HypertreeDecomposition,
    edge_cover_number,
    generalized_hypertreewidth,
    hypertree_decomposition,
)
from repro.decomposition.adaptive import (
    adaptive_width_lower_bound,
    adaptive_width_upper_bound,
    estimate_adaptive_width,
    mu_width,
    uniform_fractional_independent_set,
)
from repro.decomposition.widths import WidthProfile, width_profile
from repro.decomposition.f_width import f_width_decomposition

__all__ = [
    "TreeDecomposition",
    "NiceTreeDecomposition",
    "make_nice",
    "exact_treewidth",
    "treewidth_upper_bound",
    "treewidth_decomposition",
    "f_width_decomposition",
    "fractional_edge_cover",
    "fractional_edge_cover_number",
    "fractional_hypertreewidth",
    "fractional_hypertreewidth_decomposition",
    "HypertreeDecomposition",
    "hypertree_decomposition",
    "edge_cover_number",
    "generalized_hypertreewidth",
    "mu_width",
    "uniform_fractional_independent_set",
    "adaptive_width_lower_bound",
    "adaptive_width_upper_bound",
    "estimate_adaptive_width",
    "WidthProfile",
    "width_profile",
]
