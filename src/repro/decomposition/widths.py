"""A unified width-measure report and the domination relations of Lemma 12.

Lemma 12 (from Marx): treewidth is strongly dominated by hypertreewidth, which
is strongly dominated by fractional hypertreewidth, which is strongly
dominated by adaptive width (and adaptive width is weakly equivalent to
submodular width).  In the bounded-arity case all of these measures are weakly
equivalent (Observation 34).  :func:`width_profile` computes all measures for
a hypergraph (exactly where feasible) so callers — most importantly the
Figure-1 dichotomy classifier in :mod:`repro.core.dichotomy` — can reason
about the tractability regime of a query.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.decomposition.adaptive import AdaptiveWidthEstimate, estimate_adaptive_width
from repro.decomposition.fractional import fractional_hypertreewidth
from repro.decomposition.hypertree import generalized_hypertreewidth
from repro.decomposition.treewidth import treewidth_decomposition
from repro.hypergraph import Hypergraph
from repro.util.rng import RNGLike


@dataclass(frozen=True)
class WidthProfile:
    """All width measures of a hypergraph in one record.

    ``treewidth`` is exact when ``treewidth_exact`` is true, otherwise an
    upper bound; similarly for the hypergraph measures.  ``adaptive_width`` is
    a bracketing estimate (its upper bound ``fhw`` is all the paper's
    algorithms need: bounded fhw certifies bounded aw).
    """

    num_vertices: int
    num_edges: int
    arity: int
    treewidth: int
    treewidth_exact: bool
    hypertreewidth: float
    hypertreewidth_exact: bool
    fractional_hypertreewidth: float
    fractional_hypertreewidth_exact: bool
    adaptive_width: AdaptiveWidthEstimate

    def satisfies_lemma_12_chain(self, tolerance: float = 1e-6) -> bool:
        """Sanity-check the (per-instance consequences of the) domination
        chain: ``fhw <= hw`` and ``aw <= fhw``, plus the bounded-arity
        relation ``tw <= a * fhw - 1`` implied by Observation 34 and
        ``aw <= fhw``.  Only meaningful when all measures are exact."""
        if not (
            self.treewidth_exact
            and self.hypertreewidth_exact
            and self.fractional_hypertreewidth_exact
        ):
            return True
        if self.fractional_hypertreewidth > self.hypertreewidth + tolerance:
            return False
        if self.adaptive_width.lower_bound > self.fractional_hypertreewidth + tolerance:
            return False
        if self.arity > 0 and self.num_edges > 0:
            if self.treewidth > self.arity * self.fractional_hypertreewidth - 1 + tolerance:
                return False
        return True


def width_profile(
    hypergraph: Hypergraph,
    rng: RNGLike = None,
    adaptive_samples: int = 8,
) -> WidthProfile:
    """Compute every width measure of ``hypergraph`` (exactly on small
    hypergraphs, via upper bounds otherwise); fhw is computed once and is
    also the adaptive width's upper bound."""
    _, treewidth, treewidth_exact = treewidth_decomposition(hypergraph)
    hypertreewidth, hw_exact = generalized_hypertreewidth(hypergraph)
    fhw, fhw_exact = fractional_hypertreewidth(hypergraph)
    return WidthProfile(
        num_vertices=hypergraph.num_vertices(),
        num_edges=hypergraph.num_edges(),
        arity=hypergraph.arity(),
        treewidth=treewidth,
        treewidth_exact=treewidth_exact,
        hypertreewidth=hypertreewidth,
        hypertreewidth_exact=hw_exact,
        fractional_hypertreewidth=fhw,
        fractional_hypertreewidth_exact=fhw_exact,
        adaptive_width=estimate_adaptive_width(
            hypergraph, fhw, samples=adaptive_samples, rng=rng
        ),
    )
