"""Jerrum–Valiant–Vazirani style sampling of answers via self-reducibility.

To draw an (approximately) uniform answer of ``(phi, D)``:

1. Order the free variables ``x_1, ..., x_l``.
2. For the first unassigned free variable, estimate — for every candidate
   value ``v ∈ U(D)`` — the number of answers extending the current partial
   assignment with ``x_i = v`` (using the "constants via singleton unary
   relations" trick of Section 1.1 to pin already-chosen values).
3. Choose ``v`` with probability proportional to the estimates and recurse.

With (epsilon, delta) counts the sampler is approximately uniform (the
standard JVV argument) when all of its ``1 + num_samples * l * |U(D)|``
counts succeed, so it splits delta over them.  With exact counts it is
exactly uniform, and each pinned count is the size of a block of
``Ans(phi, D)``: :class:`AnswerTable` enumerates once and walks the blocks.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

import numpy as np

from repro.core.exact import enumerate_answers_exact
from repro.queries.query import ConjunctiveQuery
from repro.queries.rewriting import add_constant_constraint
from repro.relational.csp import DEFAULT_ENGINE
from repro.relational.structure import Structure
from repro.util.estimation import Budget
from repro.util.rng import RNGLike, as_generator, choice_cdf, draw_index, weighted_choice

Element = Hashable
AnswerTuple = Tuple[Element, ...]


class AnswerTable:
    """``Ans(phi, D)`` enumerated once, for exactly uniform draws.

    The rows are sorted by canonical-universe rank at each position, so the
    answers extending a prefix form one row range, split into one block per
    next value in universe order.  :meth:`draw` picks a block with
    probability proportional to its size at every position: the candidates,
    weights and random draws of the pinning recursion with exact counts.
    """

    def __init__(
        self, query: ConjunctiveQuery, database: Structure, engine: str = DEFAULT_ENGINE
    ) -> None:
        rank = {value: index for index, value in enumerate(database.canonical_universe())}
        self.answers = frozenset(enumerate_answers_exact(query, database, engine=engine))
        self._rows = sorted(self.answers, key=lambda row: [rank[value] for value in row])
        # (low, position) -> (the range's block starts and its end, the block sizes' cdf)
        self._blocks: Dict[Tuple[int, int], Tuple[List[int], List[float]]] = {}

    def _split(self, low: int, high: int, position: int) -> Tuple[List[int], List[float]]:
        rows = self._rows
        starts = [low] + [
            row for row in range(low + 1, high) if rows[row][position] != rows[row - 1][position]
        ] + [high]
        # Sizes over their sum, as weighted_choice normalises: the draws match bit for bit.
        cdf = choice_cdf(np.diff(starts) / (high - low))
        return self._blocks.setdefault((low, position), (starts, cdf))

    def draw(self, generator: np.random.Generator) -> AnswerTuple:
        """One exactly uniform answer of a non-empty table."""
        low, high = 0, len(self._rows)
        for position in range(len(self._rows[0])):
            starts, cdf = self._blocks.get((low, position)) or self._split(low, high, position)
            block = draw_index(cdf, generator)
            low, high = starts[block], starts[block + 1]
        return self._rows[low]


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


def _pin(
    pinned: Tuple[ConjunctiveQuery, Structure], variable: str, value: Element, tag: int
) -> Tuple[ConjunctiveQuery, Structure]:
    """Pin ``variable = value`` via a fresh singleton unary relation."""
    return add_constant_constraint(
        *pinned, variable, value, relation_name=f"R_pin_{tag}_{variable}"
    )


def sample_answers(
    query: ConjunctiveQuery,
    database: Structure,
    num_samples: int = 1,
    epsilon: float = 0.25,
    delta: float = 0.1,
    rng: RNGLike = None,
    exact: bool = False,
    engine: str = DEFAULT_ENGINE,
) -> List[AnswerTuple]:
    """Draw ``num_samples`` (approximately) uniform answers of ``(phi, D)``.

    Parameters
    ----------
    exact:
        Draw exactly uniform answers from an :class:`AnswerTable`; otherwise
        run the pinning recursion over the (epsilon, delta) FPTRAS for the
        query's class.
    engine:
        The CSP engine (``"indexed"``, ``"columnar"`` or ``"naive"``) that
        enumerates the answers or backs the approximate counts.

    Returns an empty list when the query has no answers.
    """
    generator = as_generator(rng)
    if exact:
        table = AnswerTable(query, database, engine=engine)
        return [table.draw(generator) for _ in range(num_samples)] if table.answers else []

    # The total and every pinned count must all succeed: split delta over
    # the 1 + num_samples * l * |U(D)| counts (union bound).
    count_budget = Budget(epsilon, delta).split_delta(
        1 + num_samples * len(query.free_variables) * len(database.universe)
    )
    if approximate_count(query, database, count_budget, generator, engine) <= 0.5:
        return []

    universe = database.canonical_universe()
    samples: List[AnswerTuple] = []
    for _ in range(num_samples):
        pinned, chosen = (query, database), []
        for position, variable in enumerate(query.free_variables):
            weights: Dict[Element, float] = {}
            for value in universe:
                weight = approximate_count(
                    *_pin(pinned, variable, value, position), count_budget, generator, engine
                )
                if weight > 0:
                    weights[value] = weight
            if not weights:
                break
            chosen.append(weighted_choice(list(weights), list(weights.values()), rng=generator))
            pinned = _pin(pinned, variable, chosen[-1], position)
        else:
            samples.append(tuple(chosen))
    return samples
