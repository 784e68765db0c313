"""Exact delta counting: maintain ``|Ans(phi, D)|`` under fact mutations.

Given the net :class:`~repro.relational.changelog.RelationDelta`s between an
old database state and the current one, this module computes

    ``delta = |Ans(phi, D_new)| - |Ans(phi, D_old)|``

without recounting either side from scratch.  The key observation: a
solution that exists on one side but not the other must map some *touched
atom* onto a *delta fact* —

* a solution of ``D_new`` that is not a solution of ``D_old`` maps a positive
  atom onto an **inserted** fact or a negated atom onto a **deleted** fact;
* a solution of ``D_old`` that is not a solution of ``D_new`` maps a positive
  atom onto a **deleted** fact or a negated atom onto an **inserted** fact.

So all the work concentrates on the (typically tiny) delta, and the existing
CSP engine does the counting with delta facts *pinned* in.  Each side builds
one ``Sol(phi, D)`` instance (:func:`repro.core.exact.solution_csp`, the
same construction the exact counters solve); every pinned instance is a
:meth:`~repro.relational.csp.CSPInstance.restricted` sibling of it, and the
old side reuses the new side's min-fill order, so a refresh builds two
constraint sets and computes at most one search order (none once the query's
split is memoised, see Components below).

Projections of distinct solutions may collide on the free variables, so the
delta is taken over **candidate answers**, not solutions: the answers of the
pinned instances on each side
(:meth:`~repro.relational.csp.CSPInstance.iter_answers`, one witness per
answer), confirmed by one batched answer search on the *other* side — a
gained answer is a candidate of the new side that was not an answer of the
old side, and vice versa for lost answers.  Candidates appearing on both
sides cancel automatically (they are answers on both sides).  The
differential tests check every patched count bit-identical to a
from-scratch recount.

Components
    Parts of ``phi`` that share no variable, atom, negated atom or
    disequality answer independently (:func:`repro.queries.query_components`,
    the split the shard planner uses too), so ``|Ans(phi)|`` is the product
    of the parts' counts.  Candidates are searched on the *touched block*
    only — the components mentioning a relation with a non-empty delta —
    and its delta is multiplied by the exact answer count of the untouched
    rest, which the write cannot have changed (a connected query is its
    own touched block).  Without the split the candidate search would
    enumerate the gained answers times every answer of the untouched
    components.  The split and each block's min-fill order are memoised per
    query and touched-relation set in a :data:`SPLIT_CACHE_SIZE`-entry LRU.

Soundness requires the assignment space itself not to have drifted: when the
universe grew between the two states, variables that occur only in
disequalities or negated atoms range over elements no delta fact mentions.
:func:`delta_applicable` detects that situation; callers fall back to a full
recount (the :class:`~repro.stream.live.CountSubscription` refresh loop does
this automatically).
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.exact import solution_csp
from repro.queries.canonical import query_relation_names
from repro.queries.components import query_components, subquery
from repro.queries.query import ConjunctiveQuery
from repro.relational.changelog import StructureDelta
from repro.relational.csp import DEFAULT_ENGINE, Constraint, CSPInstance
from repro.relational.structure import Structure
from repro.util.cache import LRUCache

Element = Hashable
AnswerTuple = Tuple[Element, ...]


def delta_applicable(query: ConjunctiveQuery, universe_changed: bool) -> bool:
    """Whether the touched-atom delta argument is sound for ``query``.

    Always sound while the universe is unchanged.  After universe growth it
    remains sound iff every variable occurs in a positive atom: then every
    solution maps each variable into some fact, new elements only occur in
    inserted facts, and the pinning argument goes through.  (The universe
    never shrinks — :meth:`Structure.remove_fact` keeps elements.)
    """
    if not universe_changed:
        return True
    covered: Set[str] = set()
    for atom in query.atoms:
        covered.update(atom.args)
    return covered >= set(query.variables)


# --------------------------------------------------------------- CSP plumbing
def _instance(
    base: CSPInstance,
    universe: AbstractSet[Element],
    extra_constraints: Sequence[object] = (),
    restrict: Optional[Dict[str, Set[Element]]] = None,
) -> Optional[CSPInstance]:
    """A restricted sibling of one side's ``Sol(phi, D)`` instance ``base``,
    with extra table constraints and restricted (e.g. pinned singleton)
    variable domains; ``None`` when a restriction has no value inside the
    side's ``universe`` (no solutions)."""
    domains: Dict[str, Set[Element]] = {}
    for variable, values in (restrict or {}).items():
        domains[variable] = {value for value in values if value in universe}
        if not domains[variable]:
            return None
    return base.restricted(domains, extra_constraints)


def _pin_atom(scope: Sequence[str], fact: AnswerTuple) -> Optional[Dict[str, Element]]:
    """Map an atom's argument variables onto a fact's values; ``None`` when a
    repeated variable would need two different values."""
    pin: Dict[str, Element] = {}
    for variable, value in zip(scope, fact):
        if pin.setdefault(variable, value) != value:
            return None
    return pin


# --------------------------------------------------- touched-atom bookkeeping
def _touched_events(
    query: ConjunctiveQuery, delta: StructureDelta, side: str
) -> List[Tuple[Tuple[str, ...], FrozenSet[AnswerTuple]]]:
    """The ``(atom scope, delta facts)`` pairs whose pinning characterises the
    solutions present only on ``side`` (``"new"`` or ``"old"``).

    New-only solutions pin positive atoms to inserted facts or negated atoms
    to deleted facts; old-only solutions the other way around.
    """
    events: List[Tuple[Tuple[str, ...], FrozenSet[AnswerTuple]]] = []
    for atom in query.atoms:
        relation_delta = delta.get(atom.relation)
        if relation_delta is None:
            continue
        facts = relation_delta.added if side == "new" else relation_delta.removed
        if facts:
            events.append((atom.args, facts))
    for atom in query.negated_atoms:
        relation_delta = delta.get(atom.relation)
        if relation_delta is None:
            continue
        facts = relation_delta.removed if side == "new" else relation_delta.added
        if facts:
            events.append((atom.args, facts))
    return events


# ------------------------------------------------------- candidate answers
def _pinned_projections(
    base: CSPInstance,
    universe: AbstractSet[Element],
    free: Sequence[str],
    events: Sequence[Tuple[Tuple[str, ...], FrozenSet[AnswerTuple]]],
) -> Set[AnswerTuple]:
    """Projections onto the ``free`` variables of every solution of the
    side's ``Sol(phi, D)`` instance ``base`` that maps some event's scope
    onto one of its delta facts."""
    projections: Set[AnswerTuple] = set()
    for scope, facts in events:
        for fact in facts:
            pin = _pin_atom(scope, fact)
            if pin is None:
                continue
            instance = _instance(
                base, universe,
                restrict={variable: {value} for variable, value in pin.items()},
            )
            if instance is not None:
                projections.update(instance.iter_answers(free))
    return projections


def _answers_among(
    base: CSPInstance,
    universe: AbstractSet[Element],
    free: Sequence[str],
    candidates: Set[AnswerTuple],
) -> Set[AnswerTuple]:
    """The subset of ``candidates`` that are answers on the side whose
    ``Sol(phi, D)`` instance is ``base`` — one batched answer search (free
    domains restricted to the candidates' values plus a table constraint
    over the free tuple) instead of a satisfiability probe per candidate, so
    the propagation set-up cost is paid once per side, not once per
    candidate.  The candidate table links the free variables, so the search
    assigns them first and stops at one witness per candidate."""
    if not candidates:
        return set()
    if not free:
        # Boolean query: the only possible candidate is the empty tuple.
        return set(base.iter_answers(()))
    restrict = {
        variable: {candidate[position] for candidate in candidates}
        for position, variable in enumerate(free)
    }
    instance = _instance(
        base, universe,
        extra_constraints=(Constraint.trusted(free, allowed=frozenset(candidates)),),
        restrict=restrict,
    )
    if instance is None:
        return set()
    return set(instance.iter_answers(free))


# ------------------------------------------------------------ components
#: How many ``(query, touched relations)`` splits :func:`delta_count_exact`
#: keeps, each with the min-fill orders of its blocks.  A live subscription
#: refreshes one query against a handful of touched-relation sets, so a small
#: LRU serves every refresh after the first of each.
SPLIT_CACHE_SIZE = 256

_SPLITS = LRUCache(SPLIT_CACHE_SIZE)


class _Block:
    """One block of a query's component split, and the min-fill order of its
    ``Sol(phi, D)`` instance once a refresh has built one (the order depends
    on the block's constraint scopes only, never on the database)."""

    __slots__ = ("query", "search_order")

    def __init__(self, query: ConjunctiveQuery) -> None:
        self.query = query
        self.search_order: Optional[List[str]] = None

    def solution_csp(self, database: Structure, engine: str) -> CSPInstance:
        csp = solution_csp(
            self.query, database, engine=engine, search_order=self.search_order
        )
        if self.search_order is None:
            self.search_order = csp.search_order()
        return csp


def _split(
    query: ConjunctiveQuery, touched_relations: FrozenSet[str]
) -> Tuple[_Block, Optional[_Block]]:
    """``(touched, untouched)``: the sub-query over the components that
    mention a touched relation, and the sub-query over the rest (``None``
    when every component is touched — then the touched block is ``query``
    itself).  Memoised per query and touched-relation set."""
    # Keyed on the atom tuples, not on the query: query equality ignores
    # atom order, which the min-fill order's tie-breaks depend on.
    key = (
        query.free_variables,
        query.atoms,
        query.negated_atoms,
        query.disequalities,
        query.existential_variables,
        touched_relations,
    )
    split = _SPLITS.get(key)
    if split is None:
        touched: Set[str] = set()
        untouched: Set[str] = set()
        for component in query_components(query):
            hit = touched_relations.intersection(query_relation_names(component))
            (touched if hit else untouched).update(component.variables)
        if untouched:
            split = (_Block(subquery(query, touched)), _Block(subquery(query, untouched)))
        else:
            split = (_Block(query), None)
        _SPLITS.put(key, split)
    return split


def _touched_delta(
    block: _Block,
    old_database: Structure,
    new_database: Structure,
    delta: StructureDelta,
    engine: str,
) -> int:
    """The delta of the touched block's answer count."""
    query = block.query
    # One Sol(phi, D) instance per side, restricted per pinned instance; the
    # old side reuses the new side's min-fill order (the scopes are equal),
    # and the block keeps it for the next refresh.
    new_csp = block.solution_csp(new_database, engine)
    old_csp = solution_csp(
        query, old_database, engine=engine, search_order=new_csp.search_order()
    )
    free = query.free_variables
    new_universe, old_universe = new_database.universe, old_database.universe
    new_candidates = _pinned_projections(
        new_csp, new_universe, free, _touched_events(query, delta, "new")
    )
    old_candidates = _pinned_projections(
        old_csp, old_universe, free, _touched_events(query, delta, "old")
    )
    gained = len(new_candidates) - len(
        _answers_among(old_csp, old_universe, free, new_candidates)
    )
    lost = len(old_candidates) - len(
        _answers_among(new_csp, new_universe, free, old_candidates)
    )
    return gained - lost


# ----------------------------------------------------------------- entry point
def delta_count_exact(
    query: ConjunctiveQuery,
    old_database: Structure,
    new_database: Structure,
    delta: StructureDelta,
    engine: str = DEFAULT_ENGINE,
) -> int:
    """Compute ``|Ans(phi, new)| - |Ans(phi, old)|`` from the net delta.

    ``old_database`` is typically :func:`repro.relational.changelog.rewind`
    applied to ``new_database``; both sides must genuinely differ by exactly
    ``delta`` on the query's relations.

    The caller is responsible for :func:`delta_applicable` (the refresh loop
    in :mod:`repro.stream.live` checks it and falls back to a recount).
    """
    query._check_signature_compatibility(new_database)
    names = query_relation_names(query)
    relevant = frozenset(
        name for name in delta if not delta[name].is_empty() and name in names
    )
    if not relevant:
        return 0
    touched, untouched = _split(query, relevant)
    change = _touched_delta(
        touched, old_database, new_database,
        {name: delta[name] for name in relevant}, engine,
    )
    if untouched is None or change == 0:
        return change
    return change * untouched.solution_csp(new_database, engine).count_answers(
        untouched.query.free_variables
    )


__all__ = ["delta_applicable", "delta_count_exact"]
