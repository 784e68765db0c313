"""The answer hypergraph ``H(phi, D)`` (Definitions 23, 24, Observation 25).

Given an ECQ ``phi`` with ``l`` free variables and a database ``D`` with
``N = |U(D)|`` elements, ``H(phi, D)`` is the ``l``-uniform, ``l``-partite
hypergraph whose vertex classes are ``U_i(D) = U(D) x {i}`` (candidate values
for the ``i``-th free variable) and whose hyperedges are exactly the answers
of ``(phi, D)`` (Observation 25).  The paper approximates ``|Ans(phi, D)|`` by
approximating ``|E(H(phi, D))|`` with the Dell–Lapinskas–Meeks framework.

This module provides

* :func:`vertex_classes` — the classes ``U_0(D), ..., U_{l-1}(D)``,
* :func:`build_answer_hypergraph` — the *explicit* hypergraph, built by brute
  force; only used as ground truth in tests and on small benches,
* :class:`DirectEdgeFreeOracle` — an EdgeFree oracle that decides
  ``EdgeFree(H(phi, D)[V_1, ..., V_l])`` directly with the CSP engine: it
  builds ``Sol(phi, D)`` once (:func:`repro.core.exact.solution_csp`, with
  the disequality and negation constraints native) and restricts the free
  variables to the ``V_i`` per call.  This is the practical oracle mode; the
  paper-faithful colour-coding oracle lives in
  :mod:`repro.core.colour_coding`.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Sequence, Set, Tuple

from repro.core.exact import solution_csp
from repro.hypergraph import PartiteHypergraph
from repro.queries.query import ConjunctiveQuery
from repro.relational.csp import DEFAULT_ENGINE
from repro.relational.structure import Structure

Element = Hashable
TaggedValue = Tuple[Element, int]


def vertex_classes(query: ConjunctiveQuery, database: Structure) -> List[Set[TaggedValue]]:
    """The classes ``U_i(D) = U(D) x {i}`` for the free variables (0-based)."""
    return [
        {(value, index) for value in database.universe}
        for index in range(query.num_free())
    ]


def build_answer_hypergraph(
    query: ConjunctiveQuery, database: Structure
) -> PartiteHypergraph:
    """The explicit answer hypergraph (brute-force; testing/ground truth)."""
    classes = vertex_classes(query, database)
    hypergraph = PartiteHypergraph(classes)
    for answer in query.answers(database):
        hypergraph.add_tuple_edge([(value, index) for index, value in enumerate(answer)])
    return hypergraph


class DirectEdgeFreeOracle:
    """Decide ``EdgeFree(H(phi, D)[V_1, ..., V_l])`` (for class-aligned
    subsets ``V_i ⊆ U_i(D)``) by solving the underlying CSP directly.

    The CSP is ``Sol(phi, D)`` (Definition 1, built once per oracle by
    :func:`repro.core.exact.solution_csp`) with the domain of the ``i``-th
    free variable restricted to (the untagged copy of) ``V_i``; every
    existential variable keeps the domain ``U(D)``.  Its constraints are one
    table per positive atom, one forbidden table per negated atom and one
    binary disequality per disequality.  Each call solves a
    :meth:`~repro.relational.csp.CSPInstance.restricted` sibling, so the
    constraints, their shared indexes and the min-fill order are built once.

    The subinstance has a hyperedge iff the CSP has a solution.  This oracle
    is deterministic (no colour coding), which is why it is the default for
    benches; the colour-coding oracle in :mod:`repro.core.colour_coding`
    reproduces the paper's reduction exactly and is used to cross-validate.
    """

    def __init__(
        self, query: ConjunctiveQuery, database: Structure, engine: str = DEFAULT_ENGINE
    ) -> None:
        query._check_signature_compatibility(database)
        self._query = query
        self._database = database
        self._free = query.free_variables
        self._num_free = query.num_free()
        self._csp = solution_csp(query, database, engine=engine)
        self.calls = 0

    @property
    def query(self) -> ConjunctiveQuery:
        return self._query

    @property
    def database(self) -> Structure:
        return self._database

    def edge_free(self, subsets: Sequence[Iterable[TaggedValue]]) -> bool:
        """True iff the restricted answer hypergraph has no hyperedge (for a
        Boolean query: iff the query has no solution)."""
        self.calls += 1
        if len(subsets) != self._num_free:
            raise ValueError(
                f"expected {self._num_free} subsets, got {len(subsets)}"
            )
        free_domains: List[Set[Element]] = []
        for index, subset in enumerate(subsets):
            untagged: Set[Element] = set()
            for item in subset:
                value, tag = item
                if tag != index:
                    raise ValueError(
                        f"subset {index} contains an element tagged {tag}; the direct "
                        "oracle expects class-aligned subsets"
                    )
                untagged.add(value)
            if not untagged:
                return True
            free_domains.append(untagged)
        return not self._csp.restricted(dict(zip(self._free, free_domains))).is_satisfiable()

    __call__ = edge_free
