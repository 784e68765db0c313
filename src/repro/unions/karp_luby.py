"""Karp–Luby approximate counting for unions of (extended) conjunctive queries
(Section 6).

Given queries ``phi_1, ..., phi_m`` over the same database and with the same
number of free variables, the goal is ``|⋃_i Ans(phi_i, D)|``.  The Karp–Luby
estimator writes the union as a fraction of the disjoint sum:

    ``|⋃_i A_i| = (Σ_i |A_i|) * Pr[(i, a) is "canonical"]``,

where ``(i, a)`` is drawn by picking ``i`` with probability proportional to
``|A_i|`` and then ``a`` uniformly from ``A_i``, and the pair is canonical if
``i`` is the *smallest* index ``j`` with ``a ∈ A_j``.  An exact component is
enumerated once into an :class:`~repro.sampling.jvv.AnswerTable` that gives
its count, its uniform draws and its membership tests; an approximate one is
counted by the registry's FPTRAS, drawn from by the Section-6 sampler and
decided exactly by :meth:`ConjunctiveQuery.is_answer`.
The Karp–Luby–Madras bound takes ``⌈4k ln(2/delta) / epsilon^2⌉`` draws for
``k`` queries, uncapped; with approximate components delta is split over the
counts, that bound and the draws (:class:`~repro.util.estimation.Budget`).
"""

from __future__ import annotations

import math
from typing import Hashable, Optional, Sequence, Set, Tuple

from repro.core.exact import enumerate_answers_exact
from repro.queries.query import ConjunctiveQuery
from repro.relational.csp import DEFAULT_ENGINE
from repro.relational.structure import Structure
from repro.sampling.jvv import AnswerTable, approximate_count, sample_answers
from repro.util.estimation import SPEND, UNDERIVED, Budget
from repro.util.rng import RNGLike, as_generator, choice_cdf, draw_index

Element = Hashable
AnswerTuple = Tuple[Element, ...]


def _validate_union(queries: Sequence[ConjunctiveQuery]) -> None:
    if not queries:
        raise ValueError("need at least one query")
    arities = {len(query.free_variables) for query in queries}
    if len(arities) != 1:
        raise ValueError(
            "all queries of a union must have the same number of free variables; "
            f"got arities {sorted(arities)}"
        )


def exact_count_union(
    queries: Sequence[ConjunctiveQuery],
    database: Structure,
    engine: str = DEFAULT_ENGINE,
) -> int:
    """Exact ``|⋃_i Ans(phi_i, D)|`` by enumeration (baseline)."""
    _validate_union(queries)
    union: Set[AnswerTuple] = set()
    for query in queries:
        union |= enumerate_answers_exact(query, database, engine=engine)
    return len(union)


def approx_count_union(
    queries: Sequence[ConjunctiveQuery],
    database: Structure,
    epsilon: float = 0.2,
    delta: float = 0.05,
    rng: RNGLike = None,
    exact_components: bool = False,
    num_samples: Optional[int] = None,
    engine: str = DEFAULT_ENGINE,
) -> float:
    """Karp–Luby (epsilon, delta)-style estimate of ``|⋃_i Ans(phi_i, D)|``.

    ``exact_components=True`` uses exact per-query counts and exactly uniform
    per-query samples (the estimator is then a plain Monte-Carlo Karp–Luby
    scheme whose only error is sampling error, and the sampling keeps all of
    delta); otherwise the per-query counters/samplers are the package's
    approximation schemes, matching the construction sketched in Section 6,
    and delta is split three ways: over the counts, the sampling bound and
    the per-draw samplers.  ``engine`` selects the CSP engine backing the
    per-query counters and samplers.
    """
    budget = Budget(epsilon, delta)
    _validate_union(queries)
    generator = as_generator(rng)
    if not exact_components:
        budget = budget.split_delta(3)

    # Per-query counts.  An exact component keeps its enumeration as the
    # answer table it is drawn from and looked up in; approximate counts go
    # through the scheme registry, whose prepared-query layer shares
    # width/decomposition artifacts across repeated component shapes (common
    # in unions built by renaming).
    if exact_components:
        tables = [AnswerTable(query, database, engine=engine) for query in queries]
        counts = [float(len(table.answers)) for table in tables]
    else:
        share = budget.split_delta(len(queries))
        counts = [
            max(0.0, float(approximate_count(query, database, share, generator, engine)))
            for query in queries
        ]

    total = sum(counts)
    if total <= 0:
        return 0.0

    # The Chernoff bound on the canonical fraction assumes exact counts and
    # uniform draws; composing approximate components' error into it is
    # still open, so then (as with a caller's sample count) it is underived.
    derived = exact_components and num_samples is None
    if num_samples is None:
        num_samples = int(
            math.ceil(4.0 * len(queries) * math.log(2.0 / budget.delta) / (budget.epsilon ** 2))
        )
    budget.spend("karp_luby.sampling", kind=SPEND if derived else UNDERIVED)
    draw_budget = budget.split_delta(num_samples)

    cdf = choice_cdf([count / total for count in counts])
    successes = 0
    performed = 0
    for _ in range(num_samples):
        index = draw_index(cdf, generator)
        if exact_components:
            answer = tables[index].draw(generator)
        else:
            answer = next(iter(sample_answers(
                queries[index], database, num_samples=1, epsilon=draw_budget.epsilon,
                delta=draw_budget.delta, rng=generator, engine=engine,
            )), None)
        if answer is None:
            continue
        performed += 1
        if exact_components:
            successes += not any(answer in table.answers for table in tables[:index])
        else:
            successes += not any(
                count > 0 and query.is_answer(answer, database)
                for query, count in zip(queries[:index], counts)
            )
    if performed == 0:
        return 0.0
    return total * successes / performed
