"""The :class:`ConjunctiveQuery` model (CQ / DCQ / ECQ, Section 1.1).

A query ``phi(x_1, ..., x_l) = ∃ x_{l+1} ... ∃ x_{l+k} psi`` is represented by
its ordered tuple of free variables, its set of existential variables and the
atoms of ``psi`` (positive predicates, negated predicates and disequalities;
equalities are rewritten away by the parser / :mod:`repro.queries.rewriting`).

The class exposes exactly the query attributes the paper's machinery needs:

* ``size()`` — the parameter ``||phi||``: |vars(phi)| plus the sum of the
  arities of the atoms,
* ``hypergraph()`` — H(phi) of Definition 3 (no hyperedges for disequalities),
* ``delta()`` — the set ∆(phi) of disequality pairs,
* ``query_class()`` — CQ / DCQ / ECQ classification,
* reference semantics: :meth:`solutions` (Definition 1) and :meth:`answers`
  (Definition 2) by brute-force evaluation, used as the ground truth in tests
  and benches.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.hypergraph import Hypergraph
from repro.queries.atoms import Atom, Disequality, NegatedAtom, Variable
from repro.relational.signature import RelationSymbol, Signature
from repro.relational.structure import Structure

Assignment = Dict[Variable, object]
AnswerTuple = Tuple[object, ...]


class QueryClass(Enum):
    """The three query classes of the paper's classification (Figure 1)."""

    CQ = "CQ"
    DCQ = "DCQ"
    ECQ = "ECQ"


class ConjunctiveQuery:
    """An extended conjunctive query.

    Parameters
    ----------
    free_variables:
        Ordered tuple of output variables ``(x_1, ..., x_l)``; answers are
        reported as tuples in this order.
    atoms:
        Positive predicates.
    negated_atoms:
        Negated predicates (makes the query an ECQ).
    disequalities:
        Disequality atoms (makes the query a DCQ, or an ECQ when combined with
        negations).
    existential_variables:
        Optional explicit set of quantified variables; by default every
        variable occurring in an atom but not listed as free is existential.
    """

    def __init__(
        self,
        free_variables: Sequence[Variable],
        atoms: Iterable[Atom] = (),
        negated_atoms: Iterable[NegatedAtom] = (),
        disequalities: Iterable[Disequality] = (),
        existential_variables: Optional[Iterable[Variable]] = None,
    ) -> None:
        self._free: Tuple[Variable, ...] = tuple(free_variables)
        if len(set(self._free)) != len(self._free):
            raise ValueError("free variables must be distinct")
        self._atoms: Tuple[Atom, ...] = tuple(atoms)
        self._negated: Tuple[NegatedAtom, ...] = tuple(negated_atoms)
        self._disequalities: Tuple[Disequality, ...] = tuple(disequalities)

        occurring: Set[Variable] = set()
        for atom in itertools.chain(self._atoms, self._negated, self._disequalities):
            occurring |= set(atom.variables)

        if existential_variables is None:
            existential = occurring - set(self._free)
        else:
            existential = set(existential_variables)
            if existential & set(self._free):
                raise ValueError("a variable cannot be both free and existential")
        self._existential: FrozenSet[Variable] = frozenset(existential)

        all_variables = set(self._free) | self._existential
        stray = occurring - all_variables
        if stray:
            raise ValueError(
                f"variables {sorted(stray)} occur in atoms but are neither free "
                "nor existential"
            )
        # The paper requires every variable to appear in at least one atom.
        unused = all_variables - occurring
        if unused:
            raise ValueError(
                f"variables {sorted(unused)} do not appear in any atom "
                "(the paper requires every variable to occur in an atom)"
            )
        self._variables: FrozenSet[Variable] = frozenset(all_variables)
        self._check_arities()

    def _check_arities(self) -> None:
        arities: Dict[str, int] = {}
        for atom in itertools.chain(self._atoms, self._negated):
            previous = arities.get(atom.relation)
            if previous is not None and previous != atom.arity:
                raise ValueError(
                    f"relation {atom.relation!r} used with arities {previous} and {atom.arity}"
                )
            arities[atom.relation] = atom.arity

    # ----------------------------------------------------------------- access
    @property
    def free_variables(self) -> Tuple[Variable, ...]:
        """The ordered free (output) variables ``free(phi)``."""
        return self._free

    @property
    def existential_variables(self) -> FrozenSet[Variable]:
        return self._existential

    @property
    def variables(self) -> FrozenSet[Variable]:
        """``vars(phi)``: all variables of the query."""
        return self._variables

    @property
    def atoms(self) -> Tuple[Atom, ...]:
        return self._atoms

    @property
    def negated_atoms(self) -> Tuple[NegatedAtom, ...]:
        return self._negated

    @property
    def disequalities(self) -> Tuple[Disequality, ...]:
        return self._disequalities

    def num_free(self) -> int:
        """``l = |free(phi)|``."""
        return len(self._free)

    def num_existential(self) -> int:
        """``k = |vars(phi)| - l``."""
        return len(self._existential)

    def delta(self) -> FrozenSet[FrozenSet[Variable]]:
        """``∆(phi)``: the set of unordered disequality pairs."""
        return frozenset(d.pair for d in self._disequalities)

    # ------------------------------------------------------------ descriptors
    def query_class(self) -> QueryClass:
        """CQ / DCQ / ECQ classification of this query."""
        if self._negated:
            return QueryClass.ECQ
        if self._disequalities:
            return QueryClass.DCQ
        return QueryClass.CQ

    def signature(self) -> Signature:
        """``sig(phi)``: every relation symbol used in a predicate or negated
        predicate."""
        signature = Signature()
        for atom in itertools.chain(self._atoms, self._negated):
            signature.add(RelationSymbol(atom.relation, atom.arity))
        return signature

    def arity(self) -> int:
        """``ar(sig(phi))``."""
        return self.signature().arity()

    def size(self) -> int:
        """The parameter ``||phi||``: |vars(phi)| plus the sum of the arities
        of all atoms (predicates, negated predicates and disequalities)."""
        atom_mass = sum(
            atom.arity
            for atom in itertools.chain(self._atoms, self._negated, self._disequalities)
        )
        return len(self._variables) + atom_mass

    def hypergraph(self) -> Hypergraph:
        """``H(phi)`` of Definition 3: vertices are the variables; every
        predicate and negated predicate contributes a hyperedge; disequalities
        contribute *no* hyperedge."""
        edges = [
            frozenset(atom.args)
            for atom in itertools.chain(self._atoms, self._negated)
        ]
        return Hypergraph(vertices=self._variables, edges=edges)

    # -------------------------------------------------------------- semantics
    def satisfies(self, assignment: Assignment, database: Structure) -> bool:
        """Whether a total assignment of vars(phi) is a solution (Def. 1)."""
        for atom in self._atoms:
            image = tuple(assignment[v] for v in atom.args)
            if not database.has_fact(atom.relation, image):
                return False
        for atom in self._negated:
            image = tuple(assignment[v] for v in atom.args)
            if atom.relation in database.signature and database.has_fact(atom.relation, image):
                return False
        for disequality in self._disequalities:
            if assignment[disequality.left] == assignment[disequality.right]:
                return False
        return True

    def solutions(self, database: Structure) -> Iterator[Assignment]:
        """Brute-force enumeration of Sol(phi, D) (Definition 1).

        Exponential in the number of variables; reference semantics only.
        """
        self._check_signature_compatibility(database)
        variables = sorted(self._variables)
        universe = database.canonical_universe()
        for values in itertools.product(universe, repeat=len(variables)):
            assignment = dict(zip(variables, values))
            if self.satisfies(assignment, database):
                yield assignment

    def answers(self, database: Structure) -> Set[AnswerTuple]:
        """Brute-force computation of Ans(phi, D) (Definition 2): the set of
        projections of solutions onto the free variables, as tuples ordered
        like ``free_variables``."""
        answers: Set[AnswerTuple] = set()
        for solution in self.solutions(database):
            answers.add(tuple(solution[v] for v in self._free))
        return answers

    def count_answers_bruteforce(self, database: Structure) -> int:
        """|Ans(phi, D)| by brute force (baseline for tests and benches)."""
        return len(self.answers(database))

    def is_answer(self, candidate: Sequence[object], database: Structure) -> bool:
        """Whether ``candidate`` (ordered like ``free_variables``) can be
        extended to a solution — i.e. is an answer.

        Unlike :meth:`answers` this only searches over the existential
        variables, so it is usable on larger databases.
        """
        self._check_signature_compatibility(database)
        candidate = tuple(candidate)
        if len(candidate) != len(self._free):
            raise ValueError("candidate length must equal the number of free variables")
        if any(value not in database.universe for value in candidate):
            return False
        partial = dict(zip(self._free, candidate))
        existential = sorted(self._existential)
        universe = database.canonical_universe()
        for values in itertools.product(universe, repeat=len(existential)):
            assignment = dict(partial)
            assignment.update(zip(existential, values))
            if self.satisfies(assignment, database):
                return True
        return False

    def _check_signature_compatibility(self, database: Structure) -> None:
        for symbol in self.signature():
            found = database.signature.get(symbol.name)
            if found is None:
                raise ValueError(
                    f"database is missing relation {symbol.name!r} required by the query"
                )
            if found.arity != symbol.arity:
                raise ValueError(
                    f"relation {symbol.name!r} has arity {found.arity} in the database "
                    f"but {symbol.arity} in the query"
                )

    # ------------------------------------------------------------- operations
    def rename_variables(self, mapping: Dict[Variable, Variable]) -> "ConjunctiveQuery":
        """Rename variables (used by equality elimination and by the union
        counting machinery to make variable sets disjoint)."""
        new_free = tuple(mapping.get(v, v) for v in self._free)
        return ConjunctiveQuery(
            free_variables=new_free,
            atoms=[a.rename(mapping) for a in self._atoms],
            negated_atoms=[a.rename(mapping) for a in self._negated],
            disequalities=[d.rename(mapping) for d in self._disequalities],
            existential_variables={mapping.get(v, v) for v in self._existential},
        )

    # ----------------------------------------------------------------- dunder
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return (
            self._free == other._free
            and set(self._atoms) == set(other._atoms)
            and set(self._negated) == set(other._negated)
            and set(self._disequalities) == set(other._disequalities)
            and self._existential == other._existential
        )

    def __hash__(self) -> int:
        return hash(
            (
                self._free,
                frozenset(self._atoms),
                frozenset(self._negated),
                frozenset(self._disequalities),
                self._existential,
            )
        )

    def __str__(self) -> str:
        parts = [str(a) for a in self._atoms]
        parts += [str(a) for a in self._negated]
        parts += [str(d) for d in self._disequalities]
        head = f"Ans({', '.join(self._free)})"
        return f"{head} :- {', '.join(parts)}" if parts else head

    def __repr__(self) -> str:
        return (
            f"ConjunctiveQuery(free={list(self._free)}, atoms={len(self._atoms)}, "
            f"negated={len(self._negated)}, disequalities={len(self._disequalities)}, "
            f"class={self.query_class().value})"
        )
