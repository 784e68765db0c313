"""Karp–Luby approximate counting for unions of (extended) conjunctive queries
(Section 6).

Given queries ``phi_1, ..., phi_m`` over the same database and with the same
number of free variables, the goal is ``|⋃_i Ans(phi_i, D)|``.  The Karp–Luby
estimator writes the union as a fraction of the disjoint sum:

    ``|⋃_i A_i| = (Σ_i |A_i|) * Pr[(i, a) is "canonical"]``,

where ``(i, a)`` is drawn by picking ``i`` with probability proportional to
``|A_i|`` and then ``a`` uniformly from ``A_i``, and the pair is canonical if
``i`` is the *smallest* index ``j`` with ``a ∈ A_j``.  Membership ``a ∈ A_j``
is decided exactly (:meth:`ConjunctiveQuery.is_answer`), per-query counts come
from the package's counters and per-query samples from the Section-6 sampler.
"""

from __future__ import annotations

import math
from typing import Callable, Hashable, List, Optional, Sequence, Set, Tuple

from repro.core.exact import enumerate_answers_exact
from repro.queries.query import ConjunctiveQuery
from repro.relational.csp import DEFAULT_ENGINE
from repro.relational.structure import Structure
from repro.sampling.jvv import sample_answers
from repro.util.rng import RNGLike, as_generator, choice_cdf, draw_index
from repro.util.validation import check_epsilon_delta

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
    scheme whose only error is sampling error); otherwise the per-query
    counters/samplers are the package's approximation schemes, matching the
    construction sketched in Section 6.  ``engine`` selects the CSP engine
    backing the per-query counters and samplers.
    """
    check_epsilon_delta(epsilon, delta)
    _validate_union(queries)
    generator = as_generator(rng)

    # Per-query counts, dispatched through the unified scheme registry: the
    # prepared-query layer shares width/decomposition artifacts across
    # repeated component shapes (common in unions built by renaming).
    counts: List[float] = []
    for query in queries:
        if exact_components:
            count = float(len(enumerate_answers_exact(query, database, engine=engine)))
        else:
            from repro.core.registry import REGISTRY
            from repro.queries.prepared import prepare
            from repro.queries.query import QueryClass

            prepared = prepare(query)
            scheme = (
                "fptras_ecq"
                if query.query_class() is QueryClass.ECQ
                else "fptras_dcq"
            )
            count = REGISTRY.count(
                scheme,
                prepared,
                database,
                epsilon=epsilon / 3.0,
                delta=delta / (3 * len(queries)),
                rng=generator,
                engine=engine,
            ).estimate
        counts.append(max(0.0, float(count)))

    total = sum(counts)
    if total <= 0:
        return 0.0

    if num_samples is None:
        num_samples = int(
            math.ceil(4.0 * len(queries) * math.log(2.0 / delta) / (epsilon ** 2))
        )
        num_samples = min(num_samples, 20000)

    cdf = choice_cdf([count / total for count in counts])
    successes = 0
    performed = 0
    for _ in range(num_samples):
        index = draw_index(cdf, generator)
        samples = sample_answers(
            queries[index],
            database,
            num_samples=1,
            epsilon=epsilon,
            delta=delta,
            rng=generator,
            exact=exact_components,
            engine=engine,
        )
        if not samples:
            continue
        answer = samples[0]
        performed += 1
        canonical = True
        for smaller in range(index):
            if counts[smaller] <= 0:
                continue
            if queries[smaller].is_answer(answer, database):
                canonical = False
                break
        if canonical:
            successes += 1
    if performed == 0:
        return 0.0
    return total * successes / performed
