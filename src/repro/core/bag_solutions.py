"""Bag solutions ``Sol(phi, D, B)`` (Definitions 44–47, Lemma 48).

For a CQ ``phi``, a database ``D`` and a set of variables ``B ⊆ vars(phi)``, a
*solution of (phi, D, B)* is an assignment ``alpha : B -> U(D)`` such that for
every atom of ``phi`` there exists a full assignment, consistent with
``alpha``, that maps the atom into the corresponding relation of ``D``
(Definition 47).  The condition decomposes per atom, so

    ``Sol(phi, D, B) = ⋈_atoms  proj_{B ∩ vars(atom)}(consistent tuples)``

and Lemma 48 (Grohe–Marx) bounds the time to enumerate it — and its size —
polynomially when the fractional edge cover number of ``H(phi)[B]`` is
bounded.  This module implements the enumeration by per-atom projection and
joins; it is the workhorse of the Theorem-16 FPRAS (it computes the bag
relations ``Sol_t`` of Lemma 52).

The joins run on int32 code matrices over the database's interned universe
(:mod:`repro.relational.columnar`): each atom's internally-consistent rows
are computed once per database (memoised on the structure's version-keyed
scratch cache, see :meth:`Structure.derived_cache`), every pairwise join is a
sort/merge on packed integer keys, and codes are decoded to assignments only
once at the end.

Assignments are represented as immutable, canonically ordered tuples of
``(variable, value)`` pairs so they can serve as automaton states.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Set, Tuple

from repro.queries.atoms import Atom, Variable
from repro.queries.query import ConjunctiveQuery
from repro.relational import columnar as _columnar
from repro.relational.structure import Structure

Element = Hashable
#: Canonical immutable representation of a partial assignment.
AssignmentKey = Tuple[Tuple[Variable, Element], ...]


def assignment_key(assignment: Dict[Variable, Element]) -> AssignmentKey:
    """Canonical (sorted, immutable) form of a partial assignment."""
    return tuple(sorted(assignment.items(), key=lambda item: item[0]))


def _atom_codes(atom: Atom, database: Structure):
    """The atom's internally-consistent rows (repeated variables must
    receive equal values), deduplicated per distinct variable, as an
    ``(n, len(distinct))`` int32 code matrix over the database's interned
    universe; memoised on the version-keyed scratch cache so every bag
    projection of the same atom reuses one relation scan."""
    cache = database.derived_cache()
    key = ("atom_codes", atom.relation, atom.args)
    cached = cache.get(key)
    if cached is not None:
        return cached
    rel = database.columnar_relation(atom.relation)
    np = _columnar.np
    distinct: List[Variable] = []
    positions: List[int] = []
    seen: Dict[Variable, int] = {}
    checks: List[Tuple[int, int]] = []  # (position, position of first occurrence)
    for position, variable in enumerate(atom.args):
        first = seen.get(variable)
        if first is None:
            seen[variable] = position
            distinct.append(variable)
            positions.append(position)
        else:
            checks.append((position, first))
    if checks:
        live = np.ones(rel.num_rows, dtype=bool)
        for position, first in checks:
            live &= rel.columns[position] == rel.columns[first]
        live_idx = np.flatnonzero(live)
        columns = [rel.columns[position][live_idx] for position in positions]
    else:
        columns = [rel.columns[position] for position in positions]
    if columns:
        matrix = np.stack(columns, axis=1)
    else:
        matrix = np.zeros((rel.num_rows, 0), dtype=np.int32)
    result = (tuple(distinct), matrix)
    cache[key] = result
    return result


def bag_solutions(
    query: ConjunctiveQuery, database: Structure, bag: Iterable[Variable]
) -> Set[AssignmentKey]:
    """``Sol(phi, D, B)`` as a set of canonical assignment keys (Lemma 48).

    Only defined for CQs (the FPRAS of Theorem 16 is restricted to queries
    without disequalities and negations); raises ``ValueError`` otherwise,
    and when the database's universe exceeds the int32 code space.  Atoms
    are joined in order of decreasing overlap with the variables seen so
    far, so intermediate results stay small.
    """
    if query.negated_atoms or query.disequalities:
        raise ValueError("bag solutions are defined for plain CQs only (Theorem 16)")
    bag_set = frozenset(bag)
    unknown = bag_set - query.variables
    if unknown:
        raise ValueError(f"bag contains unknown variables {sorted(unknown)}")
    query._check_signature_compatibility(database)
    encoder = database.universe_encoder()
    if encoder is None:
        raise ValueError("the database's universe exceeds the int32 code space")

    np = _columnar.np
    # current = (variable tuple sorted ascending, distinct row matrix); the
    # empty bag starts from the unique empty assignment.
    current_vars: Tuple[Variable, ...] = ()
    current_rows = np.zeros((1, 0), dtype=np.int32)
    processed_vars: Set[Variable] = set()
    remaining = list(query.atoms)
    while remaining:
        remaining.sort(
            key=lambda atom: (-len(set(atom.args) & (processed_vars | bag_set)), str(atom))
        )
        atom = remaining.pop(0)
        variables, matrix = _atom_codes(atom, database)
        if matrix.shape[0] == 0:
            return set()
        columns = sorted(
            (column for column, variable in enumerate(variables) if variable in bag_set),
            key=lambda column: variables[column],
        )
        ordered = tuple(variables[column] for column in columns)
        if columns:
            projection = _columnar.distinct_rows(matrix[:, columns])
        else:
            projection = np.zeros((1, 0), dtype=np.int32)
        # Natural join current ⋈ projection on their shared variables.
        shared = [v for v in current_vars if v in ordered]
        if shared:
            left_idx = [current_vars.index(v) for v in shared]
            right_idx = [ordered.index(v) for v in shared]
            left_rows, right_rows = _columnar.matching_pairs(
                current_rows[:, left_idx], projection[:, right_idx]
            )
        else:
            left_rows, right_rows = _columnar.cross_pairs(
                current_rows.shape[0], projection.shape[0]
            )
        if left_rows.shape[0] == 0:
            return set()
        merged_vars = tuple(sorted(set(current_vars) | set(ordered)))
        merged = np.empty((left_rows.shape[0], len(merged_vars)), dtype=np.int32)
        for j, variable in enumerate(merged_vars):
            if variable in current_vars:
                merged[:, j] = current_rows[left_rows, current_vars.index(variable)]
            else:
                merged[:, j] = projection[right_rows, ordered.index(variable)]
        current_vars, current_rows = merged_vars, merged
        processed_vars |= set(atom.args) & bag_set
    if not current_vars:
        return {()}
    # Decode column-wise: one (variable, value) pair list per column indexed
    # by code, then a single C-level map/zip pass — decoding row-by-row in
    # Python costs more than the whole vectorized join pipeline.
    values = encoder.values
    per_column = []
    for j, variable in enumerate(current_vars):
        pairs = [(variable, value) for value in values]
        per_column.append(map(pairs.__getitem__, current_rows[:, j].tolist()))
    return set(zip(*per_column))
