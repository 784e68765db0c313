"""Colour-coding simulation of the EdgeFree oracle via a Hom oracle
(Lemma 30 and the oracle-simulation part of Lemma 22).

For class-aligned subsets ``V_i ⊆ U_i(D)``, Lemma 30 states:

    ``H(phi, D)[V_1, ..., V_l]`` has a hyperedge
        iff
    there is a collection ``f = {f_η}`` of colouring functions
    (one per disequality pair, each mapping U(D) to {r, b}) such that
    ``Hom(Â(phi), B̂(phi, D, V_1..V_l, f))`` holds.

The simulation chooses the colouring functions uniformly at random ``Q`` times
(with ``Q = ceil(ln(1/failure)) * 4^{|∆|}``, so that a witnessing
homomorphism survives at least one colouring with probability
``>= 1 - failure``) and reports "has an edge" as soon as the Hom oracle finds
a homomorphism.  The answer "edge-free" has one-sided error at most
``failure``; "has an edge" is always correct.

The Hom queries are decided on one CSP compiled per oracle.  The unary
relations ``P_i`` of Â/B̂ pin every variable ``x_i`` to its own tag class, so
``Hom(Â(phi), B̂(phi, D, V, f))`` is exactly the CSP over the untagged values
with one table constraint per fact of ``A(phi)`` against ``B(phi, D)``,
domain ``V_i`` for the free and ``U(D)`` for the existential variables, and,
per disequality ``η = {x_i, x_j}`` (i < j), ``x_i`` restricted to
``f_η^{-1}(r)`` and ``x_j`` to ``f_η^{-1}(b)``.  Only the domains change from
colouring to colouring; the constraints, their shared relation indexes and
the search order are built once, into one base instance, and each colouring
is a :meth:`~repro.relational.csp.CSPInstance.restricted` call on it.

Because ``4^{|∆|}`` grows quickly, :class:`ColourCodingEdgeFreeOracle` caps
the number of repetitions (configurable); queries with many disequalities
should use the deterministic :class:`~repro.core.answer_hypergraph.DirectEdgeFreeOracle`
instead (this is a documented engineering fallback, not a change to the
paper's reduction — see DESIGN.md).
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.associated_structures import (
    BLUE,
    RED,
    Colouring,
    build_B,
    disequality_key,
    negated_symbol_name,
    variable_order,
)
from repro.queries.query import ConjunctiveQuery
from repro.relational.csp import DEFAULT_ENGINE, Constraint, CSPInstance
from repro.relational.structure import Structure
from repro.util.rng import RNGLike, as_generator

Element = Hashable
TaggedValue = Tuple[Element, int]


def random_colouring(
    query: ConjunctiveQuery, database: Structure, rng: RNGLike = None
) -> Dict[FrozenSet[str], Dict[Element, str]]:
    """Choose the collection ``f = {f_η}`` uniformly at random: independently
    for every disequality pair and every database value, colour the value red
    or blue with probability 1/2 each.

    The pairs draw in the order of their sorted variable names and the values
    in canonical universe order, so a seed fixes the colouring in every
    process (iterating the ``delta()`` frozenset would follow string hashing).
    """
    generator = as_generator(rng)
    universe = database.canonical_universe()
    colouring: Dict[FrozenSet[str], Dict[Element, str]] = {}
    for pair in sorted(query.delta(), key=sorted):
        flips = generator.random(len(universe)) < 0.5
        colouring[pair] = {
            value: (RED if flip else BLUE) for value, flip in zip(universe, flips)
        }
    return colouring


def required_colouring_repetitions(
    num_disequalities: int, failure_probability: float
) -> int:
    """The number ``Q`` of random colourings needed so that a fixed witnessing
    homomorphism is compatible with at least one of them with probability at
    least ``1 - failure_probability`` (each colouring succeeds with
    probability ``>= 4^{-|∆|}``, so ``Q = ceil(ln(1/failure) * 4^{|∆|})``)."""
    if not 0 < failure_probability < 1:
        raise ValueError("failure_probability must be in (0, 1)")
    if num_disequalities == 0:
        return 1
    return int(math.ceil(math.log(1.0 / failure_probability) * (4 ** num_disequalities)))


class ColourCodingEdgeFreeOracle:
    """The paper's EdgeFree oracle simulation: colour coding + Hom oracle.

    Parameters
    ----------
    query, database:
        The #ECQ instance.
    failure_probability:
        Per-call one-sided failure probability (probability that an existing
        hyperedge is missed).  Lemma 22 budgets this as ``delta / (2 T l!)``.
    max_repetitions:
        Safety cap on the number of random colourings per call; ``None``
        disables the cap.  When the cap truncates the theoretical repetition
        count, the one-sided error guarantee degrades accordingly (recorded in
        :attr:`truncated`).
    engine:
        The CSP engine deciding each Hom query (standing in for Theorems
        31/36).
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        database: Structure,
        failure_probability: float = 0.05,
        rng: RNGLike = None,
        max_repetitions: Optional[int] = 512,
        engine: str = DEFAULT_ENGINE,
    ) -> None:
        query._check_signature_compatibility(database)
        self._query = query
        self._database = database
        self._rng = as_generator(rng)
        self._order = variable_order(query)
        self._num_free = query.num_free()
        # One table constraint per fact of A(phi) against B(phi, D), sharing
        # B's per-relation tuple indexes (and columnar column arrays) across
        # every Hom query of this oracle; each domain starts as B's shared
        # canonical universe, which the columnar engine recognises by
        # identity.
        b_structure = build_B(query, database)
        self._universe = b_structure.canonical_universe()
        columnar = engine == "columnar"
        facts = [(atom.relation, atom.args) for atom in query.atoms] + [
            (negated_symbol_name(atom.relation), atom.args) for atom in query.negated_atoms
        ]
        self._csp = CSPInstance(
            {variable: self._universe for variable in self._order},
            [
                Constraint.trusted(
                    args,
                    index=b_structure.relation_index(name),
                    table=b_structure.columnar_relation(name) if columnar else None,
                )
                for name, args in facts
            ],
            engine=engine,
        )
        # (η, x_i, x_j) with i < j: R_η = {x_i} and B_η = {x_j} in Â(phi).
        self._pairs = [(pair, *disequality_key(query, pair)) for pair in query.delta()]
        requested = required_colouring_repetitions(
            len(query.delta()), failure_probability
        )
        if max_repetitions is not None and requested > max_repetitions:
            self.repetitions = max_repetitions
            self.truncated = True
        else:
            self.repetitions = requested
            self.truncated = False
        self.calls = 0
        self.hom_queries = 0

    def free_domains(
        self, subsets: Sequence[Iterable[TaggedValue]]
    ) -> Optional[List[Set[Element]]]:
        """Validate class-aligned subsets ``V_i ⊆ U_i(D)`` and untag them;
        ``None`` when some ``V_i`` is empty (no hyperedge can exist)."""
        subsets = [set(block) for block in subsets]
        if len(subsets) != self._num_free:
            raise ValueError(f"expected {self._num_free} subsets, got {len(subsets)}")
        if any(not block for block in subsets):
            return None
        universe = self._database.universe
        domains: List[Set[Element]] = []
        for index, block in enumerate(subsets):
            untagged: Set[Element] = set()
            for value, tag in block:
                if tag != index:
                    raise ValueError(
                        f"subset for free variable {self._order[index]!r} (index {index}) "
                        f"contains an element tagged {tag}"
                    )
                if value not in universe:
                    raise ValueError(f"value {value!r} is not in the database universe")
                untagged.add(value)
            domains.append(untagged)
        return domains

    def hom_exists(self, free_domains: Sequence[Set[Element]], colouring: Colouring) -> bool:
        """One Hom query of Lemma 30: whether
        ``Hom(Â(phi), B̂(phi, D, V_1..V_l, f))`` holds for the untagged
        ``free_domains`` (see :meth:`free_domains`) and the colouring ``f``."""
        domains: Dict[str, Iterable[Element]] = dict(zip(self._order, free_domains))
        for pair, left, right in self._pairs:
            f_eta = colouring[pair]
            domains[left] = [
                value for value in domains.get(left, self._universe) if f_eta[value] == RED
            ]
            domains[right] = [
                value for value in domains.get(right, self._universe) if f_eta[value] == BLUE
            ]
        return self._csp.restricted(domains).is_satisfiable()

    def edge_free(self, subsets: Sequence[Iterable[TaggedValue]]) -> bool:
        """True iff (with one-sided error) ``H(phi, D)[V_1..V_l]`` has no
        hyperedge; ``subsets`` must be class-aligned (V_i ⊆ U_i(D))."""
        self.calls += 1
        free_domains = self.free_domains(subsets)
        if free_domains is None:
            return True
        for _ in range(self.repetitions):
            colouring = random_colouring(self._query, self._database, rng=self._rng)
            self.hom_queries += 1
            if self.hom_exists(free_domains, colouring):
                return False
        return True

    __call__ = edge_free
