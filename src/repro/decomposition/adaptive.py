"""Fractional independent sets and adaptive width (Definition 33).

A fractional independent set of a hypergraph ``H`` is ``mu : V(H) -> [0, 1]``
with ``sum_{v in e} mu(v) <= 1`` for every hyperedge ``e``.  The
``mu``-width of ``H`` is the f-width with bag cost ``mu(B_t)`` (Definition 32),
and the adaptive width ``aw(H)`` is the supremum of the ``mu``-width over all
fractional independent sets ``mu``.

Computing adaptive width exactly requires maximising over a continuum of
``mu``; this module provides

* :func:`mu_width` — the exact ``mu``-width for a *given* ``mu`` (small
  hypergraphs, via the f-width search of :mod:`repro.decomposition.f_width`;
  ``mu``-cost is monotone),
* :func:`adaptive_width_lower_bound` — the best ``mu``-width over a supplied or
  randomly sampled family of fractional independent sets (every member is a
  certified lower bound on ``aw``); 0 beyond the exact regime, where a greedy
  ``mu``-width certifies nothing,
* :func:`adaptive_width_upper_bound` — ``fhw(H)``, since adaptive width is at
  most fractional hypertreewidth (Lemma 12: fhw is *strongly dominated by* aw,
  i.e. bounded fhw implies bounded aw via ``aw <= fhw``),
* :func:`estimate_adaptive_width` — both bounds packaged together, taking the
  fhw its caller already holds, and
* Observation 34's inequality ``tw(H) <= a * aw(H) - 1`` as a checkable
  relation (:func:`observation_34_holds`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence

from repro.decomposition.f_width import EXACT_F_WIDTH_LIMIT, f_width_decomposition
from repro.decomposition.fractional import fractional_hypertreewidth
from repro.decomposition.treewidth import treewidth_decomposition
from repro.hypergraph import Hypergraph
from repro.util.rng import RNGLike, as_generator

Vertex = Hashable
FractionalIndependentSet = Dict[Vertex, float]


def is_fractional_independent_set(
    hypergraph: Hypergraph, mu: FractionalIndependentSet, tolerance: float = 1e-9
) -> bool:
    """Whether ``mu`` is a fractional independent set of ``hypergraph``."""
    for vertex in hypergraph.vertices:
        value = mu.get(vertex, 0.0)
        if value < -tolerance or value > 1.0 + tolerance:
            return False
    for edge in hypergraph.edges:
        if sum(mu.get(v, 0.0) for v in edge) > 1.0 + tolerance:
            return False
    return True


def uniform_fractional_independent_set(hypergraph: Hypergraph) -> FractionalIndependentSet:
    """The uniform fractional independent set ``mu(v) = 1 / arity`` used in
    the proof of Observation 34 (every vertex gets weight 1/a)."""
    arity = hypergraph.arity()
    if arity == 0:
        return {vertex: 1.0 for vertex in hypergraph.vertices}
    return {vertex: 1.0 / arity for vertex in hypergraph.vertices}


def random_fractional_independent_set(
    hypergraph: Hypergraph, rng: RNGLike = None
) -> FractionalIndependentSet:
    """A random fractional independent set: draw random non-negative weights
    and scale each vertex down until every hyperedge constraint holds."""
    generator = as_generator(rng)
    vertices = sorted(hypergraph.vertices, key=repr)
    weights = {v: float(generator.random()) for v in vertices}
    # Iteratively rescale overloaded edges; converges because scaling is
    # monotone decreasing and constraints are linear.
    for _ in range(50):
        violated = False
        for edge in hypergraph.edges:
            total = sum(weights[v] for v in edge)
            if total > 1.0:
                violated = True
                scale = 1.0 / total
                for v in edge:
                    weights[v] *= scale
        if not violated:
            break
    return weights


def mu_width(hypergraph: Hypergraph, mu: FractionalIndependentSet) -> float:
    """The exact ``mu``-width of a small hypergraph for a given fractional
    independent set ``mu`` (Definition 32 with ``f(X) = mu(X)``); raises
    ``ValueError`` beyond :data:`EXACT_F_WIDTH_LIMIT` vertices."""
    if not is_fractional_independent_set(hypergraph, mu):
        raise ValueError("mu is not a fractional independent set of the hypergraph")

    def cost(bag: FrozenSet) -> float:
        return sum(mu.get(v, 0.0) for v in bag)

    _, width, _ = f_width_decomposition(hypergraph, cost, exact=True)
    return width


def adaptive_width_lower_bound(
    hypergraph: Hypergraph,
    independent_sets: Optional[Sequence[FractionalIndependentSet]] = None,
    samples: int = 8,
    rng: RNGLike = None,
) -> float:
    """A certified lower bound on ``aw(H)``: the maximum ``mu``-width over the
    supplied fractional independent sets plus ``samples`` random ones and the
    uniform one.

    Returns 0 on hypergraphs with more than :data:`EXACT_F_WIDTH_LIMIT`
    vertices: there a ``mu``-width is only a greedy upper bound, which bounds
    ``aw`` from neither side."""
    n = hypergraph.num_vertices()
    if n == 0 or n > EXACT_F_WIDTH_LIMIT:
        return 0.0
    generator = as_generator(rng)
    candidates: List[FractionalIndependentSet] = [uniform_fractional_independent_set(hypergraph)]
    if independent_sets:
        candidates.extend(independent_sets)
    for _ in range(samples):
        candidates.append(random_fractional_independent_set(hypergraph, rng=generator))
    best = 0.0
    for mu in candidates:
        if not is_fractional_independent_set(hypergraph, mu):
            continue
        best = max(best, mu_width(hypergraph, mu))
    return best


def adaptive_width_upper_bound(hypergraph: Hypergraph) -> float:
    """An upper bound on ``aw(H)``: the fractional hypertreewidth.

    For every fractional independent set ``mu`` and every bag ``B``,
    ``mu(B) <= fcn(H[B])`` by LP duality (a fractional independent set of the
    induced hypergraph is a feasible solution of the LP dual of the fractional
    edge cover LP), hence ``aw(H) <= fhw(H)``.
    """
    return fractional_hypertreewidth(hypergraph)[0]


@dataclass(frozen=True)
class AdaptiveWidthEstimate:
    """Bracketing estimate of the adaptive width of a hypergraph."""

    lower_bound: float
    upper_bound: float

    def bounded_by(self, bound: float, tolerance: float = 1e-9) -> Optional[bool]:
        """True/False when the bracket resolves the question "aw <= bound?",
        otherwise ``None``."""
        if self.upper_bound <= bound + tolerance:
            return True
        if self.lower_bound > bound + tolerance:
            return False
        return None


def estimate_adaptive_width(
    hypergraph: Hypergraph, fhw: float, samples: int = 8, rng: RNGLike = None
) -> AdaptiveWidthEstimate:
    """Lower and upper bounds on ``aw(H)`` (exact when they coincide).

    ``fhw`` is ``fhw(H)`` (:func:`adaptive_width_upper_bound`), the upper
    bound; width-profile callers already hold it, so it is not recomputed.
    """
    lower = adaptive_width_lower_bound(hypergraph, samples=samples, rng=rng)
    # Guard against numerical drift making the bracket inconsistent.
    return AdaptiveWidthEstimate(lower_bound=min(lower, fhw), upper_bound=fhw)


def observation_34_holds(hypergraph: Hypergraph, rng: RNGLike = None) -> bool:
    """Check Observation 34, ``tw(H) <= a * aw(H) - 1``, using the uniform
    fractional independent set (whose mu-width lower-bounds aw).  Vacuously
    true when the treewidth is only a greedy upper bound."""
    if hypergraph.num_vertices() == 0:
        return True
    _, treewidth, exact = treewidth_decomposition(hypergraph)
    if not exact:
        return True
    arity = hypergraph.arity()
    if arity == 0:
        return treewidth == -1
    uniform = uniform_fractional_independent_set(hypergraph)
    aw_lower = mu_width(hypergraph, uniform)
    return treewidth <= arity * aw_lower - 1 + 1e-9
