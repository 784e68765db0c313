"""The Dell–Lapinskas–Meeks edge-estimation framework (Theorem 17).

Theorem 17 (Dell, Lapinskas, Meeks, SODA 2020): there is an algorithm that,
given an ``l``-uniform hypergraph ``H`` through nothing but its vertex set and
an oracle for ``EdgeFree(H[V_1, ..., V_l])`` on ``l``-partite vertex subsets,
computes an (epsilon, delta)-approximation of ``|E(H)|``.

The reproduction exposes the same *interface*: an estimator that sees only the
partition classes and an EdgeFree oracle.  Behind the interface we provide

* :func:`exact_count_via_oracle` — an exact counter by recursive splitting
  (the standard "binary-search for witnesses" technique): if the oracle
  reports an edge, split the largest class in two and recurse.  It makes
  ``O(|E| * l * log N)`` oracle calls and is used (a) as the ground-truth
  verifier, and (b) by the approximate estimator to count small sub-instances
  exactly.
* :func:`approx_count_via_oracle` — an adaptive subsample-then-count
  estimator: find a sampling rate at which the (exactly counted) number of
  surviving edges is of moderate size, scale back up, and median-amplify
  over as many repetitions as the caller's delta needs (no cap).
  This matches DLM's oracle access pattern and, on the non-adversarial answer
  hypergraphs produced by our workloads, its (epsilon, delta) contract; the
  worst-case polylogarithmic call bound of the original algorithm is not
  reproduced (see DESIGN.md, substitution 1).

Both routines work on class-aligned sub-instances, which is all Lemma 22 needs
after its permutation step (handled in :mod:`repro.core.oracle_counting`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.util.estimation import Budget
from repro.util.rng import RNGLike, as_generator

Vertex = Hashable
#: An EdgeFree oracle: given one subset per partition class, return True iff
#: the restricted hypergraph has no hyperedge.
EdgeFreeOracle = Callable[[Sequence[Set[Vertex]]], bool]


@dataclass
class OracleCallCounter:
    """Wrap an EdgeFree oracle and count how many times it is invoked (used by
    the oracle-cost benches)."""

    oracle: EdgeFreeOracle
    calls: int = 0

    def __call__(self, subsets: Sequence[Set[Vertex]]) -> bool:
        self.calls += 1
        return self.oracle(subsets)


def _sorted_class(block: Set[Vertex]) -> List[Vertex]:
    return sorted(block, key=repr)


def exact_count_via_oracle(
    classes: Sequence[Set[Vertex]],
    oracle: EdgeFreeOracle,
    cap: Optional[int] = None,
) -> Tuple[int, bool]:
    """Exactly count the hyperedges of ``H[V_1, ..., V_l]`` using only the
    EdgeFree oracle, by recursive splitting.

    Parameters
    ----------
    classes:
        The class-aligned subsets ``V_1, ..., V_l``.
    oracle:
        EdgeFree oracle over class-aligned subsets.
    cap:
        Optional budget: stop as soon as the count reaches ``cap``.

    Returns
    -------
    (count, complete):
        ``count`` is exact when ``complete`` is true; otherwise counting was
        stopped at the cap and ``count == cap`` is a lower bound.
    """
    classes = [set(block) for block in classes]
    if any(not block for block in classes):
        return 0, True
    count = 0

    def recurse(blocks: List[List[Vertex]]) -> bool:
        """Count edges inside ``blocks``; returns False if the cap was hit."""
        nonlocal count
        if cap is not None and count >= cap:
            return False
        if oracle([set(block) for block in blocks]):
            return True
        if all(len(block) == 1 for block in blocks):
            count += 1
            return cap is None or count < cap
        # Split the largest block.
        largest = max(range(len(blocks)), key=lambda i: len(blocks[i]))
        block = blocks[largest]
        middle = len(block) // 2
        for half in (block[:middle], block[middle:]):
            if not half:
                continue
            new_blocks = list(blocks)
            new_blocks[largest] = half
            if not recurse(new_blocks):
                return False
        return True

    complete = recurse([_sorted_class(block) for block in classes])
    return count, complete


def list_edges_via_oracle(
    classes: Sequence[Set[Vertex]],
    oracle: EdgeFreeOracle,
    limit: Optional[int] = None,
) -> List[Tuple[Vertex, ...]]:
    """Enumerate the hyperedges of ``H[V_1, ..., V_l]`` using only the oracle
    (same splitting strategy as :func:`exact_count_via_oracle`).  Each edge is
    reported as a tuple with one vertex per class, in class order.  Used by
    the oracle-based uniform sampler (Section 6)."""
    classes = [set(block) for block in classes]
    if any(not block for block in classes):
        return []
    edges: List[Tuple[Vertex, ...]] = []

    def recurse(blocks: List[List[Vertex]]) -> bool:
        if limit is not None and len(edges) >= limit:
            return False
        if oracle([set(block) for block in blocks]):
            return True
        if all(len(block) == 1 for block in blocks):
            edges.append(tuple(block[0] for block in blocks))
            return limit is None or len(edges) < limit
        largest = max(range(len(blocks)), key=lambda i: len(blocks[i]))
        block = blocks[largest]
        middle = len(block) // 2
        for half in (block[:middle], block[middle:]):
            if not half:
                continue
            new_blocks = list(blocks)
            new_blocks[largest] = half
            if not recurse(new_blocks):
                return False
        return True

    recurse([_sorted_class(block) for block in classes])
    return edges


def _subsample(block: List[Vertex], probability: float, rng: np.random.Generator) -> List[Vertex]:
    if probability >= 1.0:
        return list(block)
    keep = rng.random(len(block)) < probability
    return [vertex for vertex, kept in zip(block, keep) if kept]


def _find_sampling_level(
    classes: Sequence[List[Vertex]],
    oracle: EdgeFreeOracle,
    cap: int,
    rng: np.random.Generator,
) -> int:
    """Find the smallest level ``j >= 1`` such that subsampling every class at
    per-edge survival ``2^-j`` leaves (with the drawn sample) at most ``cap``
    surviving edges."""
    num_classes = len(classes)
    max_level = (
        sum(max(1, int(math.ceil(math.log2(max(len(block), 1))))) for block in classes) + 4
    )
    for level in range(1, max_level + 1):
        per_class_probability = (2.0 ** (-level)) ** (1.0 / num_classes)
        sample = [set(_subsample(block, per_class_probability, rng)) for block in classes]
        count, complete = exact_count_via_oracle(sample, oracle, cap=cap)
        if complete and count <= cap:
            return level
    return max_level


def _subsample_estimate(
    classes: Sequence[List[Vertex]],
    oracle: EdgeFreeOracle,
    level: int,
    cap: int,
    rng: np.random.Generator,
) -> float:
    """One (unamplified) estimate of |E| at sampling level ``level``: the
    exactly-counted number of edges surviving one subsample, rescaled by the
    per-edge survival probability."""
    per_edge_survival = 2.0 ** (-level)
    per_class_probability = per_edge_survival ** (1.0 / len(classes))
    sample = [set(_subsample(block, per_class_probability, rng)) for block in classes]
    count, complete = exact_count_via_oracle(sample, oracle, cap=4 * cap)
    return float(count if complete else 4 * cap) / per_edge_survival


def approx_count_via_oracle(
    classes: Sequence[Set[Vertex]],
    oracle: EdgeFreeOracle,
    epsilon: float,
    delta: float,
    rng: RNGLike = None,
) -> float:
    """An (epsilon, delta)-style approximation of the number of hyperedges of
    ``H[V_1, ..., V_l]`` using only EdgeFree oracle calls (the Theorem-17
    interface; see the module docstring for the contract caveat).

    Instances with at most ``~8 / epsilon^2`` edges are counted *exactly*
    (via the splitting counter), so the scheme degrades gracefully to exact
    counting — a property the downstream FPTRAS tests rely on.  Larger
    instances are estimated by subsample-then-count, amplified by a median of
    ``Budget.repetitions(0.3)`` repetitions, which spends the whole delta.
    """
    budget = Budget(epsilon, delta)
    generator = as_generator(rng)
    class_lists = [_sorted_class(set(block)) for block in classes]
    if any(not block for block in class_lists):
        return 0.0

    target = max(8, int(math.ceil(4.0 / (epsilon * epsilon))))
    cap = 2 * target

    # Phase 1: exact counting with a budget.  Most parameterised-counting
    # workloads (and all correctness tests) finish here with an exact answer.
    count, complete = exact_count_via_oracle(class_lists, oracle, cap=cap)
    if complete:
        return float(count)

    # Phase 2: the count exceeds the budget — subsample and rescale.
    level = _find_sampling_level(class_lists, oracle, cap, generator)
    estimates: List[float] = [
        _subsample_estimate(class_lists, oracle, level, cap, generator)
        for _ in range(budget.repetitions(0.3))
    ]
    estimate = float(np.median(estimates))
    budget.spend("dlm.median")
    # The exact phase certified at least ``cap`` edges; never report fewer.
    return max(estimate, float(count))
