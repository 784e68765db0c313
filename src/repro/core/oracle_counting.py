"""Approximately counting answers with a Hom decision oracle (Lemma 22).

Given an ECQ ``phi``, a database ``D`` and accuracy parameters
``(epsilon, delta)``, Lemma 22 computes an (epsilon, delta)-approximation of
``|Ans(phi, D)|`` with oracle access to ``Hom``:

1.  Identify ``Ans(phi, D)`` with the hyperedges of the answer hypergraph
    ``H(phi, D)`` (Observation 25).
2.  Run the Dell–Lapinskas–Meeks estimator (Theorem 17) on ``H(phi, D)``,
    simulating each ``EdgeFree(H[W_1, ..., W_l])`` call:
      a. reduce arbitrary l-partite subsets ``W_i`` to class-aligned ones by
         intersecting with the classes ``U_j(D)`` and trying all ``l!``
         permutations,
      b. decide each aligned call by colour coding + the Hom oracle
         (Lemma 30), repeating with fresh random colourings to drive down the
         one-sided error.

The public entry points of the reproduction (Theorems 5 and 13) are thin
wrappers around :func:`approx_count_answers_via_oracle` in
:mod:`repro.core.fptras`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.answer_hypergraph import DirectEdgeFreeOracle, vertex_classes
from repro.core.colour_coding import ColourCodingEdgeFreeOracle, required_colouring_repetitions
from repro.core.dlm import approx_count_via_oracle, exact_count_via_oracle
from repro.queries.query import ConjunctiveQuery
from repro.relational.csp import DEFAULT_ENGINE
from repro.relational.structure import Structure
from repro.util.estimation import SPEND, UNDERIVED, Budget
from repro.util.rng import RNGLike, as_generator

Element = Hashable
TaggedValue = Tuple[Element, int]


@dataclass
class OracleCountingStatistics:
    """Bookkeeping returned alongside the estimate (oracle-cost benches)."""

    edgefree_calls: int = 0
    aligned_calls: int = 0
    hom_queries: int = 0
    colour_coding_truncated: bool = False
    oracle_mode: str = "direct"


class GeneralEdgeFreeOracle:
    """EdgeFree for *arbitrary* l-partite subsets ``(W_1, ..., W_l)``.

    Implements the permutation step from the proof of Lemma 22: each
    hyperedge of ``H(phi, D)`` contains exactly one vertex of every class
    ``U_i(D)``, so ``H[W_1, ..., W_l]`` has a hyperedge iff there is a
    permutation ``pi`` of the classes such that the aligned restriction
    ``H[V_1, ..., V_l]`` with ``V_i = W_{pi(i)} ∩ U_i(D)`` has one.
    """

    def __init__(self, aligned_oracle, num_free: int, statistics: OracleCountingStatistics):
        self._aligned = aligned_oracle
        self._num_free = num_free
        self._stats = statistics

    def __call__(self, subsets: Sequence[Set[TaggedValue]]) -> bool:
        self._stats.edgefree_calls += 1
        subsets = [set(block) for block in subsets]
        if len(subsets) != self._num_free:
            raise ValueError(f"expected {self._num_free} subsets, got {len(subsets)}")
        if self._num_free == 0:
            self._stats.aligned_calls += 1
            return self._aligned([])

        # Fast path: already class-aligned (the common case for our DLM
        # implementation, which splits along classes).
        def aligned_class(block: Set[TaggedValue]) -> Optional[int]:
            tags = {tag for _, tag in block}
            return tags.pop() if len(tags) == 1 else None

        alignment = [aligned_class(block) for block in subsets]
        if all(tag is not None for tag in alignment) and sorted(alignment) == list(
            range(self._num_free)
        ):
            ordered = [None] * self._num_free
            for block, tag in zip(subsets, alignment):
                ordered[tag] = block
            self._stats.aligned_calls += 1
            return self._aligned(ordered)

        # General case: intersect with every class and try all permutations.
        for permutation in itertools.permutations(range(self._num_free)):
            aligned_blocks: List[Set[TaggedValue]] = []
            empty = False
            for index in range(self._num_free):
                source = subsets[permutation[index]]
                block = {item for item in source if item[1] == index}
                if not block:
                    empty = True
                    break
                aligned_blocks.append(block)
            if empty:
                continue
            self._stats.aligned_calls += 1
            if not self._aligned(aligned_blocks):
                return False
        return True


def _estimate_dlm_call_budget(num_free: int, num_vertices: int, epsilon: float, delta: float) -> int:
    """The paper's bound ``T = Theta(log(1/delta) eps^-2 l^{6l} (log N)^{4l+7})``
    on the number of EdgeFree calls, used to budget the per-call failure
    probability of the colour-coding oracle.  We use it as a (generous)
    budgeting constant rather than a hard limit."""
    if num_vertices <= 1:
        return 1
    log_n = max(2.0, math.log(num_vertices))
    value = (
        math.log(1.0 / delta)
        * (epsilon ** -2)
        * (max(num_free, 1) ** (6 * max(num_free, 1)))
        * (log_n ** (4 * max(num_free, 1) + 7))
    )
    return max(16, min(int(value), 10 ** 9))


def approx_count_answers_via_oracle(
    query: ConjunctiveQuery,
    database: Structure,
    epsilon: float,
    delta: float,
    rng: RNGLike = None,
    oracle_mode: str = "auto",
    max_colouring_repetitions: Optional[int] = 512,
    return_statistics: bool = False,
    engine: str = DEFAULT_ENGINE,
):
    """The Lemma-22 algorithm: an (epsilon, delta)-approximation of
    ``|Ans(phi, D)|`` via EdgeFree/Hom oracles.

    Parameters
    ----------
    oracle_mode:
        ``"colour_coding"`` — the paper-faithful simulation (Lemma 30):
        random colourings + Hom oracle on the structures Â, B̂.
        ``"direct"`` — deterministic CSP-based EdgeFree decision (practical
        default for queries with many disequalities).
        ``"auto"`` — colour coding when the number of disequalities is small
        enough that the required repetitions stay below the cap, otherwise
        direct.
    return_statistics:
        Also return an :class:`OracleCountingStatistics` record.
    engine:
        The CSP engine (``"indexed"``/``"naive"``/``"columnar"``) backing
        both the direct EdgeFree oracle and the Hom queries of the
        colour-coding simulation.
    """
    budget = Budget(epsilon, delta)
    generator = as_generator(rng)
    query._check_signature_compatibility(database)

    statistics = OracleCountingStatistics()
    num_free = query.num_free()
    classes = vertex_classes(query, database)

    # Half the failure budget for the DLM estimator, half shared by the T * l!
    # aligned calls of its T EdgeFree calls (as in the proof of Lemma 22).
    estimator_budget = budget.split_delta(2)
    call_budget = _estimate_dlm_call_budget(
        num_free, max(len(database.universe), 2), epsilon, delta
    )
    per_call = estimator_budget.split_delta(call_budget * math.factorial(max(num_free, 1)))
    per_call_failure = min(max(per_call.delta, 1e-12), 0.25)

    if oracle_mode not in ("auto", "direct", "colour_coding"):
        raise ValueError(f"unknown oracle_mode {oracle_mode!r}")
    if oracle_mode == "auto":
        needed = required_colouring_repetitions(len(query.delta()), per_call_failure)
        oracle_mode = (
            "colour_coding"
            if (max_colouring_repetitions is None or needed <= max_colouring_repetitions)
            else "direct"
        )
    statistics.oracle_mode = oracle_mode

    if oracle_mode == "colour_coding":
        aligned = ColourCodingEdgeFreeOracle(
            query,
            database,
            failure_probability=per_call_failure,
            rng=generator,
            max_repetitions=max_colouring_repetitions,
            engine=engine,
        )
    else:
        aligned = DirectEdgeFreeOracle(query, database, engine=engine)

    general = GeneralEdgeFreeOracle(aligned, num_free, statistics)

    if num_free == 0:
        # A Boolean query has one (empty) answer iff it is satisfiable.
        has_edge = not general([])
        estimate = 1.0 if has_edge else 0.0
    else:
        estimate = approx_count_via_oracle(
            classes, general, epsilon=epsilon, delta=estimator_budget.delta, rng=generator
        )

    statistics.hom_queries = getattr(aligned, "hom_queries", 0)
    statistics.colour_coding_truncated = getattr(aligned, "truncated", False)
    if oracle_mode == "colour_coding":
        # Each call spent the clamped failure (an overspend when the clamp
        # binds); a truncated colouring count misses it altogether.
        kind = UNDERIVED if statistics.colour_coding_truncated else SPEND
        call = Budget(epsilon, per_call_failure)
        call.spend("lemma22.colour_coding_call", statistics.aligned_calls, kind)

    if return_statistics:
        return estimate, statistics
    return estimate


def exact_count_answers_via_oracle(
    query: ConjunctiveQuery,
    database: Structure,
    oracle_mode: str = "direct",
    rng: RNGLike = None,
    engine: str = DEFAULT_ENGINE,
) -> int:
    """Exact ``|Ans(phi, D)|`` using only EdgeFree oracle calls (recursive
    splitting).  Useful to validate the oracle plumbing independently of the
    sampling estimator."""
    statistics = OracleCountingStatistics()
    num_free = query.num_free()
    classes = vertex_classes(query, database)
    if oracle_mode == "colour_coding":
        aligned = ColourCodingEdgeFreeOracle(
            query,
            database,
            failure_probability=0.01,
            rng=rng,
            engine=engine,
        )
    elif oracle_mode == "direct":
        aligned = DirectEdgeFreeOracle(query, database, engine=engine)
    else:
        raise ValueError(f"unknown oracle_mode {oracle_mode!r}")
    general = GeneralEdgeFreeOracle(aligned, num_free, statistics)
    if num_free == 0:
        return 0 if general([]) else 1
    count, complete = exact_count_via_oracle(classes, general)
    assert complete
    return count
