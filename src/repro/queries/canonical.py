"""Canonical query forms: renaming-insensitive serialisations of queries.

The prepared-query cache (:mod:`repro.queries.prepared`) and the service's
plan/result caches key on the canonical form of a query.  Correctness of a
cache hit requires that two queries mapping to the same key provably have the
same answer set:

:func:`canonical_query_key` serialises a query after renaming its variables
to a canonical alphabet.  Free variables are renamed positionally (answers
are tuples ordered by free-variable position, so positional renaming
preserves the answer *set*, not just its size); existential variables are
ordered by an iterated occurrence-signature refinement with the original
name as the final tie-break.  Alpha-equivalent queries therefore usually
share a key (always, when the refinement separates the existential
variables), and — the direction correctness depends on — two queries with
the same key are always alpha-equivalent, because the key is a complete
serialisation of the renamed query.

The database side of a cache key, :func:`database_cache_key`, pairs the
structure's identity token with the version counters of exactly the
relations the query mentions (plus the universe version).  Mutating a
relation bumps its counter and silently strands every cached entry built
over the old contents; mutating a relation the query does not mention leaves
the query's keys valid.  The service's result cache and the Lemma-52
reduction cache (:func:`repro.core.fpras.build_tree_automaton`) both key on
it.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.queries.query import ConjunctiveQuery

if TYPE_CHECKING:
    from repro.relational.structure import Structure

#: How many rounds of signature refinement to run when canonically ordering
#: existential variables.  Occurrence signatures stabilise quickly on the
#: small queries the paper's parameterised algorithms target.
_REFINEMENT_ROUNDS = 3


def _initial_signatures(query: ConjunctiveQuery) -> Dict[str, Tuple]:
    """Occurrence signature of every variable: where (relation, position,
    polarity) it appears, how many disequalities touch it, and whether it is
    free (free variables additionally carry their position)."""
    free_positions = {v: i for i, v in enumerate(query.free_variables)}
    occurrences: Dict[str, List[Tuple]] = {v: [] for v in query.variables}
    for atom in query.atoms:
        for position, variable in enumerate(atom.args):
            occurrences[variable].append(("+", atom.relation, position))
    for atom in query.negated_atoms:
        for position, variable in enumerate(atom.args):
            occurrences[variable].append(("-", atom.relation, position))
    for disequality in query.disequalities:
        occurrences[disequality.left].append(("!=",))
        occurrences[disequality.right].append(("!=",))
    return {
        variable: (
            ("free", free_positions[variable]) if variable in free_positions else ("ex",),
            tuple(sorted(occurrences[variable])),
        )
        for variable in query.variables
    }


def _refine_signatures(
    query: ConjunctiveQuery, signatures: Dict[str, Tuple]
) -> Dict[str, Tuple]:
    """One round of refinement: extend each variable's signature with the
    sorted signatures of the variables it co-occurs with."""
    neighbours: Dict[str, List[Tuple]] = {v: [] for v in signatures}
    for atom in itertools.chain(query.atoms, query.negated_atoms):
        for variable in atom.args:
            neighbours[variable].extend(
                signatures[other] for other in atom.args if other != variable
            )
    for disequality in query.disequalities:
        neighbours[disequality.left].append(signatures[disequality.right])
        neighbours[disequality.right].append(signatures[disequality.left])
    return {
        variable: (signatures[variable], tuple(sorted(neighbours[variable])))
        for variable in signatures
    }


def canonical_variable_renaming(query: ConjunctiveQuery) -> Dict[str, str]:
    """The canonical renaming: free variables become ``f0, f1, ...`` in
    positional order, existential variables become ``e0, e1, ...`` ordered by
    refined occurrence signature (original name as the deterministic
    tie-break)."""
    signatures = _initial_signatures(query)
    for _ in range(_REFINEMENT_ROUNDS):
        signatures = _refine_signatures(query, signatures)
    renaming = {variable: f"f{i}" for i, variable in enumerate(query.free_variables)}
    existential = sorted(
        query.existential_variables, key=lambda v: (signatures[v], str(v))
    )
    renaming.update({variable: f"e{i}" for i, variable in enumerate(existential)})
    return renaming


def canonical_query_key(
    query: ConjunctiveQuery, renaming: Optional[Dict[str, str]] = None
) -> str:
    """A complete, renaming-insensitive serialisation of the query, suitable
    as a cache key.  ``renaming`` may be passed in when the caller already
    computed :func:`canonical_variable_renaming` (the prepared-query layer
    keeps both)."""
    if renaming is None:
        renaming = canonical_variable_renaming(query)
    atoms = sorted(
        f"{atom.relation}({','.join(renaming[v] for v in atom.args)})"
        for atom in query.atoms
    )
    negated = sorted(
        f"!{atom.relation}({','.join(renaming[v] for v in atom.args)})"
        for atom in query.negated_atoms
    )
    disequalities = sorted(
        "{}!={}".format(*sorted((renaming[d.left], renaming[d.right])))
        for d in query.disequalities
    )
    head = ",".join(renaming[v] for v in query.free_variables)
    return f"Ans({head}):-" + ";".join(itertools.chain(atoms, negated, disequalities))


def query_relation_names(query: ConjunctiveQuery) -> Tuple[str, ...]:
    """Every relation symbol the query's answers can depend on."""
    return tuple(sorted(symbol.name for symbol in query.signature()))


def database_cache_key(
    database: "Structure", query: ConjunctiveQuery
) -> Tuple[int, Tuple[int, Tuple[Tuple[str, int], ...]]]:
    """The database component of a cache key: identity token plus the
    version fingerprint restricted to the query's relations."""
    return (
        database.structure_token,
        database.version_fingerprint(query_relation_names(query)),
    )
