"""The associated structures of Section 2.2 and Section 3.

* ``A(phi)``   (Definition 18) — the "query structure": universe = vars(phi),
  one fact per predicate, and for every negated predicate a fact of the fresh
  complement symbol ``~R``.
* ``B(phi, D)`` (Definition 20) — the "database structure": universe = U(D),
  original relations for the positive symbols and complement relations
  ``U(D)^ar(R) \\ R^D`` for the ``~R`` symbols.
* ``Â(phi)``   (Definition 26) — A(phi) plus unary relations: ``P_i = {x_i}``
  for every variable and, per disequality ``η = {x_i, x_j}`` (i < j), the
  "colour" relations ``R_η = {x_i}`` and ``B_η = {x_j}``.
* ``B̂(phi, D, V_1..V_l, f)`` (Definition 28) — the coloured, class-indexed
  version of B(phi, D) whose universe consists of pairs ``(w, i)`` tagging a
  database value with the index of the variable it may be assigned to.

With these, Lemma 30 states that ``H(phi, D)[V_1, ..., V_l]`` has a hyperedge
iff for some collection of colouring functions there is a homomorphism from
``Â(phi)`` to ``B̂(phi, D, V_1..V_l, f)``; this is how the EdgeFree oracle of
Theorem 17 is simulated using a Hom oracle (Lemma 22).
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.queries.atoms import Variable
from repro.queries.query import ConjunctiveQuery
from repro.relational.signature import RelationSymbol, Signature
from repro.relational.structure import Database, Structure

Element = Hashable

#: Prefix for the complement relation symbol ``~R`` introduced for negated
#: predicates (Definition 18).
NEGATION_PREFIX = "~"
#: Prefix for the per-variable unary relations ``P_i`` of Definition 26/28.
VARIABLE_RELATION_PREFIX = "P__"
#: Prefixes for the per-disequality colour relations ``R_η`` / ``B_η``.
RED_RELATION_PREFIX = "Rdis__"
BLUE_RELATION_PREFIX = "Bdis__"

#: The two colours used by the colouring functions f_η.
RED = "r"
BLUE = "b"


def negated_symbol_name(relation: str) -> str:
    """The name of the complement symbol ``~R`` for relation ``R``."""
    return NEGATION_PREFIX + relation


def variable_order(query: ConjunctiveQuery) -> List[Variable]:
    """The canonical enumeration ``x_1, ..., x_{l+k}`` of vars(phi): the free
    variables first (in their declared order), then the existential variables
    in sorted order.  All the constructions of Section 3 index variables by
    their position in this list (1-based in the paper, 0-based here)."""
    return list(query.free_variables) + sorted(query.existential_variables)


def disequality_key(query: ConjunctiveQuery, pair: FrozenSet[Variable]) -> Tuple[str, str]:
    """Order the two variables of a disequality pair by the canonical variable
    order (the paper's "i < j") and return them as a tuple."""
    order = variable_order(query)
    position = {v: i for i, v in enumerate(order)}
    left, right = sorted(pair, key=lambda v: position[v])
    return left, right


def colour_relation_names(query: ConjunctiveQuery, pair: FrozenSet[Variable]) -> Tuple[str, str]:
    """Names of the unary colour relations (R_η, B_η) for a disequality pair."""
    left, right = disequality_key(query, pair)
    return RED_RELATION_PREFIX + f"{left}__{right}", BLUE_RELATION_PREFIX + f"{left}__{right}"


def variable_relation_name(variable: Variable) -> str:
    """Name of the unary relation ``P_i`` pinning variable ``x_i``."""
    return VARIABLE_RELATION_PREFIX + str(variable)


# --------------------------------------------------------------------- A(phi)
def build_A(query: ConjunctiveQuery) -> Structure:
    """The structure ``A(phi)`` of Definition 18."""
    structure = Structure(universe=query.variables)
    for atom in query.atoms:
        structure.add_fact(atom.relation, atom.args)
    for atom in query.negated_atoms:
        structure.add_fact(negated_symbol_name(atom.relation), atom.args)
    # Relation symbols that only occur negated still need their positive
    # counterpart declared nowhere; symbols occurring positively are already
    # present through their facts.
    return structure


# ------------------------------------------------------------------ B(phi, D)
def build_B(query: ConjunctiveQuery, database: Structure) -> Structure:
    """The structure ``B(phi, D)`` of Definition 20.

    For every symbol of ``sig(A(phi))`` that also belongs to ``sig(D)`` the
    relation is copied from the database; for the complement symbols ``~R``
    the relation is ``U(D)^{ar(R)} \\ R^D``.  Note the latter has size up to
    ``|U(D)|^{ar(R)}`` (Observation 21 accounts for exactly this blow-up).
    """
    signature_a = build_A(query).signature
    structure = Structure(universe=database.universe)
    for symbol in signature_a:
        if symbol.name.startswith(NEGATION_PREFIX):
            original = symbol.name[len(NEGATION_PREFIX):]
            original_symbol = database.signature.get(original)
            if original_symbol is None:
                existing: FrozenSet[Tuple[Element, ...]] = frozenset()
                arity = symbol.arity
            else:
                if original_symbol.arity != symbol.arity:
                    raise ValueError(
                        f"negated relation {original!r} has arity {original_symbol.arity} "
                        f"in the database but {symbol.arity} in the query"
                    )
                existing = database.relation(original)
                arity = symbol.arity
            structure.add_relation(RelationSymbol(symbol.name, arity))
            universe = database.canonical_universe()
            for candidate in itertools.product(universe, repeat=arity):
                if candidate not in existing:
                    structure.add_fact(symbol.name, candidate)
        else:
            database_symbol = database.signature.get(symbol.name)
            if database_symbol is None:
                raise ValueError(
                    f"database is missing relation {symbol.name!r} required by the query"
                )
            if database_symbol.arity != symbol.arity:
                raise ValueError(
                    f"relation {symbol.name!r} has arity {database_symbol.arity} in the "
                    f"database but {symbol.arity} in the query"
                )
            structure.add_relation(RelationSymbol(symbol.name, symbol.arity))
            for fact in database.relation(symbol.name):
                structure.add_fact(symbol.name, fact)
    return structure


# ------------------------------------------------------------------- Â(phi)
def build_A_hat(query: ConjunctiveQuery) -> Structure:
    """The coloured query structure ``Â(phi)`` of Definition 26."""
    structure = build_A(query)
    for variable in variable_order(query):
        structure.add_relation(RelationSymbol(variable_relation_name(variable), 1))
        structure.add_fact(variable_relation_name(variable), (variable,))
    for pair in sorted(query.delta(), key=lambda p: disequality_key(query, p)):
        left, right = disequality_key(query, pair)
        red_name, blue_name = colour_relation_names(query, pair)
        structure.add_relation(RelationSymbol(red_name, 1))
        structure.add_relation(RelationSymbol(blue_name, 1))
        structure.add_fact(red_name, (left,))
        structure.add_fact(blue_name, (right,))
    return structure


# --------------------------------------------------------------------- B̂(...)
Colouring = Mapping[FrozenSet[Variable], Mapping[Element, str]]


def build_B_hat(
    query: ConjunctiveQuery,
    database: Structure,
    free_subsets: Sequence[Iterable[Tuple[Element, int]]],
    colouring: Optional[Colouring] = None,
) -> Structure:
    """The coloured database structure ``B̂(phi, D, V_1, ..., V_l, f)`` of
    Definition 28.

    Parameters
    ----------
    free_subsets:
        The sets ``V_1, ..., V_l`` — one per free variable, in the order of
        ``query.free_variables``.  Each ``V_i`` must be a subset of
        ``U_i(D) = U(D) x {i}`` (pairs ``(value, i)`` with ``i`` the 0-based
        index of the free variable in the canonical variable order).
    colouring:
        The collection ``f = {f_η}``: for every disequality pair ``η`` a map
        from U(D) to {"r", "b"}.  May be omitted when the query has no
        disequalities.

    The colour-coding oracle never builds this structure: it decides
    ``Hom(Â, B̂)`` on an equivalent CSP over ``B(phi, D)`` (see
    :mod:`repro.core.colour_coding`).  This constructor is the literal
    Definition 28 that the compiled decision is tested against.
    """
    order = variable_order(query)
    num_free = query.num_free()
    if len(free_subsets) != num_free:
        raise ValueError(
            f"expected {num_free} free-variable subsets, got {len(free_subsets)}"
        )
    if colouring is None:
        colouring = {}
    delta = query.delta()
    missing_colourings = [pair for pair in delta if pair not in colouring]
    if missing_colourings:
        raise ValueError(
            "colouring functions are required for every disequality pair; missing "
            f"{sorted(tuple(sorted(p)) for p in missing_colourings)}"
        )
    base = build_B(query, database)
    universe_values = set(database.universe)

    # S_i per variable: V_i for free variables, U_i(D) for existential ones.
    class_members: List[Set[Tuple[Element, int]]] = []
    for index, variable in enumerate(order):
        if index < num_free:
            members = set()
            for item in free_subsets[index]:
                value, tag = item
                if tag != index:
                    raise ValueError(
                        f"subset for free variable {variable!r} (index {index}) contains "
                        f"an element tagged {tag}"
                    )
                if value not in universe_values:
                    raise ValueError(f"value {value!r} is not in the database universe")
                members.add((value, index))
        else:
            members = {(value, index) for value in universe_values}
        class_members.append(members)

    universe: Set[Tuple[Element, int]] = set()
    for members in class_members:
        universe |= members
    structure = Structure(universe=universe)

    # Indexed copies of the base relations: a tuple ((w1,i1),...,(wa,ia)) is a
    # fact whenever (w1,...,wa) is a fact of B(phi, D).
    values_by_index: Dict[Element, List[Tuple[Element, int]]] = {}
    for value, index in universe:
        values_by_index.setdefault(value, []).append((value, index))

    for symbol in base.signature:
        structure.add_relation(RelationSymbol(symbol.name, symbol.arity))
        for fact in base.relation(symbol.name):
            candidate_lists = [values_by_index.get(value, []) for value in fact]
            if any(not candidates for candidates in candidate_lists):
                continue
            for combination in itertools.product(*candidate_lists):
                structure.add_fact(symbol.name, combination)

    # Unary relations P_i := S_i.
    for index, variable in enumerate(order):
        name = variable_relation_name(variable)
        structure.add_relation(RelationSymbol(name, 1))
        for member in class_members[index]:
            structure.add_fact(name, (member,))

    # Colour relations R_η / B_η from the colouring functions.
    for pair in delta:
        red_name, blue_name = colour_relation_names(query, pair)
        structure.add_relation(RelationSymbol(red_name, 1))
        structure.add_relation(RelationSymbol(blue_name, 1))
        f_eta = colouring[pair]
        for member in universe:
            value, _ = member
            colour = f_eta.get(value)
            if colour == RED:
                structure.add_fact(red_name, (member,))
            elif colour == BLUE:
                structure.add_fact(blue_name, (member,))
            elif colour is None:
                raise ValueError(
                    f"colouring for pair {sorted(pair)} does not cover value {value!r}"
                )
            else:
                raise ValueError(f"invalid colour {colour!r} (expected 'r' or 'b')")
    return structure


def size_bound_A(query: ConjunctiveQuery) -> int:
    """The bound of Observation 19: ``||A(phi)|| <= 3 ||phi||``."""
    return 3 * query.size()


def size_bound_A_hat(query: ConjunctiveQuery) -> int:
    """The bound of Observation 27: ``||Â(phi)|| <= 5 ||phi||^2``."""
    return 5 * query.size() ** 2
