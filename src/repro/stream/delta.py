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
constraint sets and computes one search order.  Two strategies, both
verified bit-identical to a from-scratch recount by the differential tests:

``inclusion_exclusion`` (quantifier-free queries)
    With no existential variables, distinct solutions project to distinct
    answers, so ``|Ans| = |Sol|`` and the delta is a difference of *solution*
    counts.  "Solutions touching the delta" is counted by
    inclusion–exclusion over the touched atom occurrences: for every
    non-empty subset, constrain each chosen atom to its delta facts (an extra
    table constraint whose allowed set is the delta — GAC propagation then
    collapses the search space around those few facts) and count.

``candidates`` (general case)
    With existential variables, projections collide, so the delta enumerates
    **candidate answers** instead: the answers of the pinned instances on
    each side (:meth:`~repro.relational.csp.CSPInstance.iter_answers`, one
    witness per answer), then confirm the candidates by one batched answer
    search on the *other* side — a gained answer is a candidate of the
    new side that was not an answer of the old side, and vice versa for lost
    answers.  Candidates appearing on both sides cancel automatically (they
    are answers on both sides).

Soundness requires the assignment space itself not to have drifted: when the
universe grew between the two states, variables that occur only in
disequalities or negated atoms range over elements no delta fact mentions.
:func:`delta_applicable` detects that situation; callers fall back to a full
recount (the :class:`~repro.stream.live.CountSubscription` refresh loop does
this automatically).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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
from repro.queries.query import ConjunctiveQuery
from repro.relational.changelog import StructureDelta
from repro.relational.csp import DEFAULT_ENGINE, Constraint, CSPInstance
from repro.relational.structure import Structure

Element = Hashable
AnswerTuple = Tuple[Element, ...]

#: Above this many touched atom occurrences the ``2^k - 1`` terms of
#: inclusion–exclusion stop being worth it and the candidate strategy is used
#: instead.
INCLUSION_EXCLUSION_LIMIT = 4


@dataclass(frozen=True)
class DeltaCountReport:
    """The outcome of one incremental recount step."""

    #: ``|Ans(new)| - |Ans(old)|``.
    delta: int
    #: ``"inclusion_exclusion"`` | ``"candidates"`` | ``"noop"``.
    strategy: str
    #: Candidate answers confirmed against the other side ("candidates")
    #: or inclusion–exclusion terms evaluated ("inclusion_exclusion").
    work_units: int


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


# --------------------------------------------------- strategy: incl-exclusion
def _count_touching(
    base: CSPInstance,
    events: Sequence[Tuple[Tuple[str, ...], FrozenSet[AnswerTuple]]],
) -> Tuple[int, int]:
    """``(count, terms)``: the number of solutions of the side's
    ``Sol(phi, D)`` instance ``base`` whose assignment satisfies at least one
    event (maps the event's scope onto one of its delta facts), by
    inclusion–exclusion over the non-empty event subsets."""
    total = 0
    terms = 0
    for size in range(1, len(events) + 1):
        sign = 1 if size % 2 else -1
        for subset in itertools.combinations(events, size):
            extra = [
                Constraint.trusted(scope, allowed=facts) for scope, facts in subset
            ]
            terms += 1
            total += sign * base.restricted({}, extra).count_solutions()
    return total, terms


# ------------------------------------------------------- strategy: candidates
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


# ----------------------------------------------------------------- entry point
def delta_count_exact(
    query: ConjunctiveQuery,
    old_database: Structure,
    new_database: Structure,
    delta: StructureDelta,
    engine: str = DEFAULT_ENGINE,
    strategy: str = "auto",
) -> DeltaCountReport:
    """Compute ``|Ans(phi, new)| - |Ans(phi, old)|`` from the net delta.

    ``old_database`` is typically :func:`repro.relational.changelog.rewind`
    applied to ``new_database``; both sides must genuinely differ by exactly
    ``delta`` on the query's relations.  ``strategy`` is ``"auto"``
    (inclusion–exclusion for quantifier-free queries with few touched atom
    occurrences, candidates otherwise) or one of the two names; requesting
    ``"inclusion_exclusion"`` for a quantified query raises, since solution
    deltas do not equal answer deltas under projection.

    The caller is responsible for :func:`delta_applicable` (the refresh loop
    in :mod:`repro.stream.live` checks it and falls back to a recount).
    """
    query._check_signature_compatibility(new_database)
    relevant = {
        name
        for name in delta
        if not delta[name].is_empty()
        and any(
            atom.relation == name
            for atom in itertools.chain(query.atoms, query.negated_atoms)
        )
    }
    if not relevant:
        return DeltaCountReport(delta=0, strategy="noop", work_units=0)
    restricted = {name: delta[name] for name in relevant}

    new_events = _touched_events(query, restricted, "new")
    old_events = _touched_events(query, restricted, "old")

    if strategy == "auto":
        use_ie = (
            query.is_quantifier_free()
            and max(len(new_events), len(old_events)) <= INCLUSION_EXCLUSION_LIMIT
        )
        strategy = "inclusion_exclusion" if use_ie else "candidates"
    # One Sol(phi, D) instance per side, restricted per pinned instance; the
    # old side reuses the new side's min-fill order (the scopes are equal),
    # so a refresh computes one order.
    new_csp = solution_csp(query, new_database, engine=engine)
    old_csp = solution_csp(
        query, old_database, engine=engine, search_order=new_csp.search_order()
    )

    if strategy == "inclusion_exclusion":
        if not query.is_quantifier_free():
            raise ValueError(
                "inclusion_exclusion maintains solution counts; with "
                "existential variables projections collide — use "
                "strategy='candidates' (or 'auto')"
            )
        gained, terms_new = _count_touching(new_csp, new_events)
        lost, terms_old = _count_touching(old_csp, old_events)
        return DeltaCountReport(
            delta=gained - lost,
            strategy="inclusion_exclusion",
            work_units=terms_new + terms_old,
        )
    if strategy != "candidates":
        raise ValueError(
            f"unknown strategy {strategy!r}; expected 'auto', "
            "'inclusion_exclusion' or 'candidates'"
        )

    free = query.free_variables
    new_universe, old_universe = new_database.universe, old_database.universe
    new_candidates = _pinned_projections(new_csp, new_universe, free, new_events)
    old_candidates = _pinned_projections(old_csp, old_universe, free, old_events)
    gained = len(new_candidates) - len(
        _answers_among(old_csp, old_universe, free, new_candidates)
    )
    lost = len(old_candidates) - len(
        _answers_among(new_csp, new_universe, free, old_candidates)
    )
    return DeltaCountReport(
        delta=gained - lost,
        strategy="candidates",
        work_units=len(new_candidates) + len(old_candidates),
    )


__all__ = [
    "DeltaCountReport",
    "delta_applicable",
    "delta_count_exact",
    "INCLUSION_EXCLUSION_LIMIT",
]
