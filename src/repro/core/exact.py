"""Exact counting baselines.

The paper's starting point (Section 1.1) is that exact counting of answers is
infeasible in general — even the brute-force ``||D||^{O(||phi||)}`` algorithm
is essentially optimal under SETH [16].  The reproduction still needs exact
counters:

* as ground truth for testing the approximation schemes,
* as the "baseline algorithm" in every bench (the thing the FPTRAS/FPRAS is
  compared against), and
* to demonstrate the hardness constructions (Observations 9 and 10) by
  exhibiting their exponential blow-up.

Two exact counters are provided: a pure brute-force enumeration over all
assignments (the ``||D||^{O(||phi||)}`` algorithm from the introduction) and a
backtracking counter over the ``Sol(phi, D)`` CSP.  The backtracking counter
does not enumerate Sol(phi, D): :meth:`CSPInstance.count_answers` counts
the answers (Definition 2) that :meth:`CSPInstance.iter_answers` reaches
once each, stopping below the free variables at the first witness
solution — usually much faster, still exponential in the worst case.  On
the columnar engine, when the free variables do not all share tables (the
search would then walk every witness), it eliminates the existential
variables by NumPy joins instead and counts the projected rows.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.queries.query import ConjunctiveQuery
from repro.relational.csp import (
    DEFAULT_ENGINE,
    Constraint,
    CSPInstance,
    NotEqualConstraint,
    NotInRelationConstraint,
)
from repro.relational.structure import Structure

Element = Hashable


def solution_csp(
    query: ConjunctiveQuery,
    database: Structure,
    engine: str = DEFAULT_ENGINE,
    search_order: Optional[Sequence[str]] = None,
) -> CSPInstance:
    """A CSP whose solutions are exactly Sol(phi, D) (Definition 1).

    The one place that turns atoms, negated atoms and disequalities into
    constraints: the exact counters solve it as is, the direct EdgeFree
    oracle and the delta counter solve :meth:`CSPInstance.restricted`
    siblings of it.  Table constraints are built through the trusted fast
    path and share the database's cached per-relation tuple indexes (and,
    for the columnar engine, its column arrays); every domain is the cached
    canonical universe, which the columnar engine recognises by identity.
    ``search_order`` skips the min-fill computation when the caller already
    has the order of an instance over the same query.
    """
    universe = database.canonical_universe()
    domains: Dict[str, Iterable[Element]] = {v: universe for v in query.variables}
    columnar = engine == "columnar"
    constraints: List[object] = []
    for atom in query.atoms:
        constraints.append(
            Constraint.trusted(
                atom.args,
                index=database.relation_index(atom.relation),
                table=database.columnar_relation(atom.relation) if columnar else None,
            )
        )
    for atom in query.negated_atoms:
        forbidden = (
            database.relation(atom.relation)
            if atom.relation in database.signature
            else frozenset()
        )
        constraints.append(
            NotInRelationConstraint(scope=atom.args, forbidden=frozenset(forbidden))
        )
    for disequality in query.disequalities:
        constraints.append(NotEqualConstraint(disequality.left, disequality.right))
    return CSPInstance(domains, constraints, engine=engine, search_order=search_order)


def count_solutions_exact(
    query: ConjunctiveQuery, database: Structure, engine: str = DEFAULT_ENGINE
) -> int:
    """Exact ``|Sol(phi, D)|`` (Definition 1) via backtracking."""
    query._check_signature_compatibility(database)
    if not database.universe:
        return 0
    return solution_csp(query, database, engine=engine).count_solutions()


def enumerate_answers_exact(
    query: ConjunctiveQuery, database: Structure, engine: str = DEFAULT_ENGINE
) -> Set[Tuple[Element, ...]]:
    """Exact ``Ans(phi, D)`` (Definition 2) as a set of tuples ordered like
    ``query.free_variables`` — one witness search per answer with the CSP
    engine (:meth:`CSPInstance.iter_answers`)."""
    query._check_signature_compatibility(database)
    if not database.universe:
        return set()
    csp = solution_csp(query, database, engine=engine)
    return set(csp.iter_answers(query.free_variables))


def count_answers_exact(
    query: ConjunctiveQuery,
    database: Structure,
    method: str = "backtracking",
    engine: str = DEFAULT_ENGINE,
) -> int:
    """Exact ``|Ans(phi, D)|``.

    ``method="backtracking"`` (default) counts the answers through
    :meth:`CSPInstance.count_answers`, without storing them;
    ``method="bruteforce"`` is the plain ``|U(D)|^{|vars(phi)|}``
    enumeration from the introduction (kept as an independent reference
    implementation for differential testing).  ``engine`` selects the CSP
    engine (``"indexed"``/``"naive"``/``"columnar"``) for the backtracking
    method.
    """
    if method == "bruteforce":
        return query.count_answers_bruteforce(database)
    if method == "backtracking":
        query._check_signature_compatibility(database)
        if not database.universe:
            return 0
        csp = solution_csp(query, database, engine=engine)
        return csp.count_answers(query.free_variables)
    raise ValueError(f"unknown method {method!r}")
