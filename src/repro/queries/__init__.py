"""Conjunctive queries and their extensions (Section 1.1).

* CQ — conjunctive query: conjunction of relational atoms with free and
  existentially quantified variables.
* DCQ — CQ extended with disequalities ``x != y``.
* ECQ — CQ extended with disequalities and negated atoms ``not R(...)``
  (equalities are allowed in the input but rewritten away, as in the paper).

The model lives in :mod:`repro.queries.query`, its connected components
(the one split the shard planner and the delta counter share) in
:mod:`repro.queries.components`, a small text parser in
:mod:`repro.queries.parser`, and programmatic builders for the query families
used throughout the paper (Hamiltonian path, locally injective homomorphisms,
star queries, ...) in :mod:`repro.queries.builders`.
"""

from repro.queries.atoms import Atom, Disequality, Equality, NegatedAtom
from repro.queries.canonical import (
    canonical_query_key,
    canonical_variable_renaming,
    query_relation_names,
)
from repro.queries.query import ConjunctiveQuery, QueryClass
from repro.queries.components import query_components, subquery
from repro.queries.parser import parse_query
from repro.queries.prepared import (
    PreparedQuery,
    clear_prepared_cache,
    prepare,
    prepared_cache_stats,
)
from repro.queries.rewriting import eliminate_equalities, add_constant_constraint
from repro.queries.builders import (
    clique_query,
    common_neighbour_query,
    cycle_query,
    friends_query,
    grid_query,
    hamiltonian_path_query,
    high_arity_acyclic_query,
    path_query,
    star_query,
    tree_query,
)

__all__ = [
    "Atom",
    "NegatedAtom",
    "Disequality",
    "Equality",
    "ConjunctiveQuery",
    "QueryClass",
    "PreparedQuery",
    "prepare",
    "prepared_cache_stats",
    "clear_prepared_cache",
    "canonical_query_key",
    "canonical_variable_renaming",
    "query_relation_names",
    "query_components",
    "subquery",
    "parse_query",
    "eliminate_equalities",
    "add_constant_constraint",
    "path_query",
    "star_query",
    "clique_query",
    "cycle_query",
    "common_neighbour_query",
    "friends_query",
    "grid_query",
    "hamiltonian_path_query",
    "high_arity_acyclic_query",
    "tree_query",
]
