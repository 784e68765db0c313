"""Jerrum–Valiant–Vazirani style sampling of answers via self-reducibility.

To draw an (approximately) uniform answer of ``(phi, D)``:

1. Order the free variables ``x_1, ..., x_l``.
2. For the first unassigned free variable, estimate — for every candidate
   value ``v ∈ U(D)`` — the number of answers extending the current partial
   assignment with ``x_i = v`` (using the "constants via singleton unary
   relations" trick of Section 1.1 to pin already-chosen values).
3. Choose ``v`` with probability proportional to the estimates and recurse.

With exact counts the sampler is exactly uniform; with (epsilon, delta)
counts it is approximately uniform (the standard JVV argument) when all of
its ``1 + num_samples * l * |U(D)|`` counts succeed, so it splits delta over
them.  The exact variant is used as ground truth in tests; the approximate
variant demonstrates Section 6's reduction.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.exact import count_answers_exact, enumerate_answers_exact
from repro.queries.query import ConjunctiveQuery
from repro.queries.rewriting import add_constant_constraint
from repro.relational.csp import DEFAULT_ENGINE
from repro.relational.structure import Structure
from repro.util.estimation import Budget
from repro.util.rng import RNGLike, as_generator, weighted_choice

Element = Hashable
AnswerTuple = Tuple[Element, ...]
#: A counting procedure: (query, database) -> (approximate) answer count.
Counter = Callable[[ConjunctiveQuery, Structure], float]


def exact_uniform_answer_sampler(
    query: ConjunctiveQuery,
    database: Structure,
    num_samples: int,
    rng: RNGLike = None,
    engine: str = DEFAULT_ENGINE,
) -> List[AnswerTuple]:
    """Exactly uniform answer samples, by enumerating Ans(phi, D) (ground
    truth for the approximate sampler's tests)."""
    generator = as_generator(rng)
    answers = sorted(enumerate_answers_exact(query, database, engine=engine), key=repr)
    if not answers:
        return []
    indices = generator.integers(0, len(answers), size=num_samples)
    return [answers[int(index)] for index in indices]


def approximate_count(
    query: ConjunctiveQuery, database: Structure, budget: Budget, rng: RNGLike, engine: str
) -> float:
    """A ``budget`` estimate of ``|Ans(query, database)|`` by the registry's
    FPTRAS for the query's class.  The registry prepares (and caches) each
    query shape once, and the pinned queries of one recursion depth share
    a shape: only the pinned value in the database changes."""
    from repro.core.registry import REGISTRY
    from repro.queries.query import QueryClass

    scheme = "fptras_ecq" if query.query_class() is QueryClass.ECQ else "fptras_dcq"
    return REGISTRY.count(
        scheme, query, database, epsilon=budget.epsilon, delta=budget.delta,
        rng=rng, engine=engine,
    ).estimate


def _pin_value(
    query: ConjunctiveQuery,
    database: Structure,
    variable: str,
    value: Element,
    tag: int,
) -> Tuple[ConjunctiveQuery, Structure]:
    """Pin ``variable = value`` via a fresh singleton unary relation."""
    return add_constant_constraint(
        query, database, variable, value, relation_name=f"R_pin_{tag}_{variable}"
    )


def sample_answers(
    query: ConjunctiveQuery,
    database: Structure,
    num_samples: int = 1,
    epsilon: float = 0.25,
    delta: float = 0.1,
    rng: RNGLike = None,
    counter: Optional[Counter] = None,
    exact: bool = False,
    engine: str = DEFAULT_ENGINE,
) -> List[AnswerTuple]:
    """Draw ``num_samples`` (approximately) uniform answers of ``(phi, D)``.

    Parameters
    ----------
    counter:
        The counting procedure used inside the self-reducibility recursion.
        Defaults to the exact counter when ``exact`` is true and to the
        appropriate approximation scheme otherwise.
    exact:
        Use exact counts, yielding an exactly uniform sampler (slower).
    engine:
        The CSP engine (``"indexed"``/``"naive"``) backing the default
        counters; ignored when an explicit ``counter`` is given.

    Returns an empty list when the query has no answers.
    """
    generator = as_generator(rng)
    if counter is None:
        if exact:
            counter = lambda q, d: float(count_answers_exact(q, d, engine=engine))  # noqa: E731
        else:
            # The total and every pinned count must all succeed: split delta
            # over the 1 + num_samples * l * |U(D)| counts (union bound).
            count_budget = Budget(epsilon, delta).split_delta(
                1 + num_samples * len(query.free_variables) * len(database.universe)
            )
            counter = lambda q, d: approximate_count(q, d, count_budget, generator, engine)  # noqa: E731

    total = counter(query, database)
    if total <= 0.5:
        return []

    universe = database.canonical_universe()
    samples: List[AnswerTuple] = []
    for _ in range(num_samples):
        current_query, current_database = query, database
        chosen: Dict[str, Element] = {}
        failed = False
        for position, variable in enumerate(query.free_variables):
            weights: List[float] = []
            candidates: List[Element] = []
            for value in universe:
                pinned_query, pinned_database = _pin_value(
                    current_query, current_database, variable, value, tag=position
                )
                weight = max(0.0, float(counter(pinned_query, pinned_database)))
                if weight > 0:
                    candidates.append(value)
                    weights.append(weight)
            if not candidates:
                failed = True
                break
            value = weighted_choice(candidates, weights, rng=generator)
            chosen[variable] = value
            current_query, current_database = _pin_value(
                current_query, current_database, variable, value, tag=position
            )
        if failed:
            continue
        samples.append(tuple(chosen[v] for v in query.free_variables))
    return samples
