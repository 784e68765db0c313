"""The connected components of a query, and sub-queries over unions of them.

Two parts of a query that share no variable and no coupling answer
independently: ``Ans(phi_1 ∧ phi_2, D) = Ans(phi_1, D) × Ans(phi_2, D)``.
The shard planner counts each component on its owning shard, and the delta
counter patches only the components a write touched; both split the query
here, so they agree on what a component is.
"""

from __future__ import annotations

import itertools
from typing import AbstractSet, Dict, List, Set

from repro.queries.query import ConjunctiveQuery


def query_components(query: ConjunctiveQuery) -> List[ConjunctiveQuery]:
    """Split a query into its connected components.

    Connectivity is over *all* couplings — positive atoms, negated atoms,
    **and disequalities** (a disequality ties its two variables even though
    ``H(phi)`` gives it no hyperedge: components joined by a disequality are
    not independent and must not be counted separately).  Free variables keep
    their original relative order inside each component, and components are
    ordered by their earliest variable in the query's canonical variable
    order, so the decomposition — and hence per-component seed derivation —
    is deterministic.  A connected query is returned as ``[query]`` itself.
    """
    position = {
        v: i
        for i, v in enumerate(
            list(query.free_variables) + sorted(query.existential_variables, key=str)
        )
    }
    parent: Dict[str, str] = {v: v for v in query.variables}

    def find(v: str) -> str:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def join(a: str, b: str) -> None:
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[root_a] = root_b

    for atom in itertools.chain(query.atoms, query.negated_atoms):
        first = atom.args[0]
        for other in atom.args[1:]:
            join(first, other)
    for disequality in query.disequalities:
        join(disequality.left, disequality.right)

    groups: Dict[str, Set[str]] = {}
    for v in query.variables:
        groups.setdefault(find(v), set()).add(v)
    if len(groups) <= 1:
        return [query]

    ordered = sorted(groups.values(), key=lambda members: min(position[v] for v in members))
    return [subquery(query, members) for members in ordered]


def subquery(query: ConjunctiveQuery, members: AbstractSet[str]) -> ConjunctiveQuery:
    """The part of ``query`` over the variables ``members``, which must be a
    union of its components: every atom, negated atom and disequality whose
    variables lie in ``members``, in the query's order, and the free
    variables among ``members`` in their original relative order."""
    return ConjunctiveQuery(
        free_variables=[v for v in query.free_variables if v in members],
        atoms=[a for a in query.atoms if set(a.args) <= members],
        negated_atoms=[a for a in query.negated_atoms if set(a.args) <= members],
        disequalities=[d for d in query.disequalities if {d.left, d.right} <= members],
        existential_variables=query.existential_variables & frozenset(members),
    )


__all__ = ["query_components", "subquery"]
