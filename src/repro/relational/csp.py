"""A small constraint-satisfaction (CSP) engine.

The homomorphism problem Hom(A, B) — the decision oracle required by
Lemma 22 and provided to it by Theorems 31 (Dalmau–Kolaitis–Vardi, bounded
treewidth) and 36 (Marx, bounded adaptive width) — is an instance of CSP:
variables are the elements of ``U(A)``, domains are ``U(B)``, and every fact
of ``A`` is a constraint whose allowed tuples are the corresponding relation
of ``B``.

The engine combines

* per-variable domain initialisation from unary projections of the
  constraints,
* generalized arc consistency (GAC) propagation, and
* backtracking search whose variable order follows an elimination ordering of
  the constraint hypergraph (min-fill), which makes the search backtrack-free
  on acyclic instances and polynomial on bounded-treewidth instances in
  practice — the role Theorem 31 plays in the paper.

It supports deciding satisfiability, finding one solution, enumerating, and
counting all solutions, and enumerating and counting the distinct
projections of the solutions onto a set of free variables
(:meth:`CSPInstance.iter_answers`, :meth:`CSPInstance.count_answers`).

Engine architecture
-------------------
Two interchangeable engines implement the same semantics (identical solution
sets *and* identical enumeration order); select one with
``CSPInstance(..., engine=...)``:

``engine="indexed"`` (default)
    The propagation-based engine.  Every table :class:`Constraint` carries a
    positional :class:`~repro.relational.index.TupleIndex` over its allowed
    tuples — ``(position, value) -> frozenset of tuple ids`` — which is
    shared across constraints over the same relation when built via
    :meth:`Structure.relation_index` and :meth:`Constraint.trusted`.
    On top of the indexes:

    * ``consistent_with_partial`` intersects the id-sets of the assigned
      scope positions (smallest bucket first) instead of scanning the table;
    * :meth:`CSPInstance.propagate` runs a support-counting GAC (GAC4-style):
      it materialises the live tuple ids and per-position value counts once,
      then drains a worklist of ``(variable, removed value)`` events, killing
      exactly the tuples indexed under the removed value and decrementing
      supports — no full fixpoint re-scans;
    * search computes the min-fill variable order and a canonical
      (repr-sorted) per-variable value order **once**, and forward-checks
      each assignment: the surviving tuple ids of every touched constraint
      narrow each unassigned neighbour's domain to a new, intersected set
      (the undo trail keeps the previous set), so dead branches are cut
      before recursing;
    * the answer search (:meth:`CSPInstance.iter_answers`) reuses that
      backtrack with one of two orders and a witness cut.  When every free
      variable after the first (in min-fill order) shares a table constraint
      with an earlier one, the free variables go first and the existential
      ones after them, both in min-fill order; each node at the depth of the
      last free variable is then a different answer.  Otherwise the min-fill
      order stays, so forward checking prunes free variables that share no
      table through their existential neighbours instead of walking their
      cross product, and the answers are deduplicated on their values.
      Either way, a node below the deepest free variable (the *cut*)
      returns after its first solution: an answer costs one witness, not
      all of its solutions.

``engine="naive"``
    The original scan-based engine, retained verbatim for differential
    testing and benchmarking: ``consistent_with_partial`` scans ``allowed``,
    ``propagate`` re-filters every table to its live tuples until a full
    fixpoint round changes nothing, and the search re-sorts the domain of the
    current variable at every node.  Its answer search projects every
    solution of that unchanged search and deduplicates.

``engine="columnar"``
    The vectorized engine over :mod:`repro.relational.columnar` storage:
    every value is interned to an int32 code by its position in the
    repr-sorted universe, each table constraint becomes one contiguous code
    array per scope position, and

    * GAC propagation keeps per-(constraint, position) support counts as
      ``np.bincount`` arrays over codes, killing rows with boolean-mask
      intersections and decrementing supports in bulk when domain values die;
    * search is the indexed engine's backtrack (same orders, witness cut and
      forward checking over the tuple indexes), started from the domains
      that vectorized GAC leaves, so the two engines enumerate the same
      solutions and answers in the same order;
    * :meth:`CSPInstance.count_answers` eliminates the existential
      variables instead of searching wherever the search would walk one leaf
      per answer: where :meth:`CSPInstance._answer_order` cuts below the
      free variables, and where every variable is free.  It joins, in
      min-fill order, the GAC-live rows of the tables that mention each
      existential variable (disequalities as column compares, negated atoms
      as anti-joins on packed keys, domains as code masks) and projects the
      variable away with a distinct; free-variable groups that nothing links
      multiply their counts.  Boolean queries, existential variables below a
      free-first cut, and a join step over :data:`_ELIMINATION_ROW_LIMIT`
      rows count the search instead.

    When a universe exceeds the int32 code space (or a caller passes
    domains outside the interned universe) the instance silently runs the
    indexed propagation and counts by the search — same answers, scalar
    speed.

All engines treat :class:`NotEqualConstraint` and
:class:`NotInRelationConstraint` the same way during propagation (they do not
participate in GAC); the indexed and columnar engines additionally
forward-check disequalities by deleting the just-assigned value from the
partner's domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.hypergraph import Hypergraph
from repro.relational import columnar as _columnar
from repro.relational.columnar import ColumnarRelation, UniverseEncoder
from repro.relational.index import TupleIndex

Variable = Hashable
Value = Hashable
AssignmentTuple = Tuple[Value, ...]

#: The engines understood by :class:`CSPInstance`.
ENGINES = ("indexed", "naive", "columnar")
DEFAULT_ENGINE = "indexed"


@dataclass(frozen=True)
class Constraint:
    """A table constraint: the variables in ``scope`` must jointly take a
    tuple of values from ``allowed``."""

    scope: Tuple[Variable, ...]
    allowed: FrozenSet[AssignmentTuple]

    def __post_init__(self) -> None:
        for tup in self.allowed:
            if len(tup) != len(self.scope):
                raise ValueError(
                    f"allowed tuple {tup!r} does not match scope of length {len(self.scope)}"
                )

    @classmethod
    def trusted(
        cls,
        scope: Sequence[Variable],
        allowed: Optional[Iterable[AssignmentTuple]] = None,
        index: Optional[TupleIndex] = None,
        table: Optional[ColumnarRelation] = None,
    ) -> "Constraint":
        """Fast-path constructor for internally-built constraints.

        Skips the O(|allowed|) tuple-length validation of ``__post_init__``
        (the caller vouches that the arities match) and optionally attaches a
        pre-built, shared :class:`TupleIndex` — typically
        ``structure.relation_index(name)`` — so sibling constraints over the
        same relation share one index.  ``allowed`` defaults to
        ``index.allowed`` when an index is given.  ``table`` optionally
        attaches the relation's shared :class:`ColumnarRelation` (typically
        ``structure.columnar_relation(name)``) so the columnar engine reuses
        the structure-cached column arrays instead of re-encoding.
        """
        if allowed is None:
            if index is None:
                raise ValueError("trusted() needs either allowed tuples or an index")
            allowed_set = index.allowed
        else:
            allowed_set = allowed if isinstance(allowed, frozenset) else frozenset(allowed)
        self = object.__new__(cls)
        object.__setattr__(self, "scope", tuple(scope))
        object.__setattr__(self, "allowed", allowed_set)
        if index is not None:
            object.__setattr__(self, "_index", index)
        if table is not None:
            object.__setattr__(self, "_table", table)
        return self

    @property
    def table(self) -> Optional[ColumnarRelation]:
        """The shared columnar storage attached by :meth:`trusted`, if any
        (the columnar engine encodes ad hoc when absent)."""
        return self.__dict__.get("_table")

    @property
    def index(self) -> TupleIndex:
        """The positional index over ``allowed`` (built lazily and cached; a
        shared index may have been attached by :meth:`trusted`)."""
        existing = self.__dict__.get("_index")
        if existing is None:
            existing = TupleIndex.from_tuples(self.allowed, arity=len(self.scope))
            object.__setattr__(self, "_index", existing)
        return existing

    def is_satisfied_by(self, assignment: Dict[Variable, Value]) -> bool:
        """Whether a *total* assignment of the scope satisfies the constraint."""
        return tuple(assignment[v] for v in self.scope) in self.allowed

    def consistent_with_partial(self, assignment: Dict[Variable, Value]) -> bool:
        """Whether some allowed tuple agrees with the given partial assignment
        on the assigned scope variables (index-intersection, not a scan)."""
        index = self.index
        buckets: List[FrozenSet[int]] = []
        for position, variable in enumerate(self.scope):
            if variable in assignment:
                bucket = index.by_position[position].get(assignment[variable]) if index.tuples else None
                if not bucket:
                    # No allowed tuple holds this value at this position —
                    # unless nothing is assigned at all, the partial fails.
                    return False
                buckets.append(bucket)
        if not buckets:
            return True
        if len(buckets) == 1:
            return True
        buckets.sort(key=len)
        ids = buckets[0]
        for bucket in buckets[1:]:
            ids = ids & bucket
            if not ids:
                return False
        return True

    def scan_consistent_with_partial(self, assignment: Dict[Variable, Value]) -> bool:
        """The original O(|allowed| * |scope|) scan, kept for the naive
        engine."""
        positions = [
            (index, assignment[variable])
            for index, variable in enumerate(self.scope)
            if variable in assignment
        ]
        if not positions:
            return True
        return any(
            all(tup[index] == value for index, value in positions) for tup in self.allowed
        )


@dataclass(frozen=True)
class NotEqualConstraint:
    """A binary disequality constraint ``left != right``.

    Used for the disequality atoms of DCQs/ECQs: representing them as table
    constraints would need ``|U(D)|^2`` tuples, whereas this class checks the
    predicate directly.
    """

    left: Variable
    right: Variable

    @property
    def scope(self) -> Tuple[Variable, ...]:
        return (self.left, self.right)

    def is_satisfied_by(self, assignment: Dict[Variable, Value]) -> bool:
        return assignment[self.left] != assignment[self.right]

    def consistent_with_partial(self, assignment: Dict[Variable, Value]) -> bool:
        if self.left in assignment and self.right in assignment:
            return assignment[self.left] != assignment[self.right]
        return True


@dataclass(frozen=True)
class NotInRelationConstraint:
    """A negated table constraint: the scope tuple must *not* belong to the
    forbidden relation (used for the negated predicates of ECQs without
    materialising the ``|U(D)|^{arity}`` complement)."""

    scope: Tuple[Variable, ...]
    forbidden: FrozenSet[AssignmentTuple]

    def is_satisfied_by(self, assignment: Dict[Variable, Value]) -> bool:
        return tuple(assignment[v] for v in self.scope) not in self.forbidden

    def consistent_with_partial(self, assignment: Dict[Variable, Value]) -> bool:
        if all(variable in assignment for variable in self.scope):
            return self.is_satisfied_by(assignment)
        return True


class _TableState:
    """Mutable GAC bookkeeping for one table constraint: the live tuple ids
    and, per scope position, the support count of every surviving value."""

    __slots__ = ("constraint", "index", "live", "counts")

    def __init__(self, constraint: Constraint, live: Set[int]) -> None:
        self.constraint = constraint
        self.index = constraint.index
        self.live = live
        tuples = self.index.tuples
        counts: List[Dict[Value, int]] = [dict() for _ in constraint.scope]
        for tid in live:
            for position, value in enumerate(tuples[tid]):
                bucket = counts[position]
                bucket[value] = bucket.get(value, 0) + 1
        self.counts = counts


#: Sentinel: "the columnar engine cannot serve this call" (fall back to the
#: indexed code paths) — distinct from ``None``, which means "unsatisfiable".
_COLUMNAR_UNSET = object()


class _ColumnarContext:
    """Per-instance columnar preliminaries: the interned encoder and, for
    every table constraint, its column arrays and scope variable indexes."""

    __slots__ = ("encoder", "var_list", "var_index", "tables")

    def __init__(
        self,
        encoder: UniverseEncoder,
        var_list: List[Variable],
        tables: List[Tuple[ColumnarRelation, Tuple[int, ...]]],
    ) -> None:
        self.encoder = encoder
        self.var_list = var_list
        self.var_index = {variable: i for i, variable in enumerate(var_list)}
        self.tables = tables


class _ColumnarTableState:
    """Mutable vectorized GAC bookkeeping for one table constraint: a live-row
    boolean mask and one ``np.bincount`` support array per scope position."""

    __slots__ = ("rel", "scope_idx", "live", "counts")

    def __init__(self, rel, scope_idx, live, counts) -> None:
        self.rel = rel
        self.scope_idx = scope_idx
        self.live = live
        self.counts = counts


#: Most rows one join step of :meth:`CSPInstance.count_answers`'s
#: elimination may materialise; a larger step counts the answer search.  A
#: step at the limit peaks near 200 MB (its index arrays, then the packed
#: keys of its projection).  Module-level so tests can monkeypatch it.
_ELIMINATION_ROW_LIMIT = 4_000_000


class _CodeRelation:
    """A relation over variable indexes, one code column per variable: the
    unit that join–project elimination joins, filters and projects."""

    __slots__ = ("variables", "columns")

    def __init__(self, variables: List[int], columns: List[object]) -> None:
        self.variables = variables
        self.columns = columns

    @property
    def num_rows(self) -> int:
        return int(self.columns[0].size)

    def column(self, vi: int):
        return self.columns[self.variables.index(vi)]

    def select(self, keep) -> "_CodeRelation":
        rows = _columnar.np.flatnonzero(keep)
        return _CodeRelation(self.variables, [column[rows] for column in self.columns])

    def project(self, keep: List[int]) -> "_CodeRelation":
        """The distinct rows over ``keep``."""
        matrix = _columnar.np.stack([self.column(vi) for vi in keep], axis=1)
        rows = _columnar.distinct_rows(matrix)
        return _CodeRelation(list(keep), [rows[:, j] for j in range(len(keep))])

    def join(self, other: "_CodeRelation") -> Optional["_CodeRelation"]:
        """The natural join, or ``None`` past :data:`_ELIMINATION_ROW_LIMIT`
        rows (known before any row is materialised)."""
        np = _columnar.np
        shared = [vi for vi in self.variables if vi in other.variables]
        if shared:
            pairs = _columnar.matching_pairs(
                np.stack([self.column(vi) for vi in shared], axis=1),
                np.stack([other.column(vi) for vi in shared], axis=1),
                limit=_ELIMINATION_ROW_LIMIT,
            )
            if pairs is None:
                return None
        elif self.num_rows * other.num_rows > _ELIMINATION_ROW_LIMIT:
            return None
        else:
            pairs = _columnar.cross_pairs(self.num_rows, other.num_rows)
        left_rows, right_rows = pairs
        extra = [vi for vi in other.variables if vi not in self.variables]
        return _CodeRelation(
            self.variables + extra,
            [column[left_rows] for column in self.columns]
            + [other.column(vi)[right_rows] for vi in extra],
        )


class _Filter:
    """A disequality (``forbidden is None``) or a negated atom (``forbidden``
    holds its relation's code rows) over variable indexes."""

    __slots__ = ("variables", "forbidden")

    def __init__(self, variables: List[int], forbidden) -> None:
        self.variables = variables
        self.forbidden = forbidden

    def apply(self, relation: _CodeRelation) -> _CodeRelation:
        np = _columnar.np
        columns = [relation.column(vi) for vi in self.variables]
        if self.forbidden is None:
            return relation.select(columns[0] != columns[1])
        keys, banned = _columnar.packed_keys(np.stack(columns, axis=1), self.forbidden)
        return relation.select(~np.isin(keys, banned))


def _join_bucket(
    relations: List[_CodeRelation],
    filters: List[_Filter],
    universe: List[object],
    needed: Iterable[int] = (),
) -> Optional[_CodeRelation]:
    """The natural join of ``relations`` — smallest first, then always one
    that shares a variable with the join so far when there is one — with
    each filter applied as soon as its variables are joined.  A variable of
    ``filters`` or ``needed`` that no relation covers is crossed in over its
    domain ``universe[vi]``.  ``None`` when a join step is over the limit;
    the join stops early once it is empty."""
    pending = sorted(relations, key=lambda relation: relation.num_rows)
    covered = {vi for relation in relations for vi in relation.variables}
    for vi in sorted({vi for f in filters for vi in f.variables}.union(needed)):
        if vi not in covered:
            covered.add(vi)
            pending.append(_CodeRelation([vi], [universe[vi]]))
    waiting = list(filters)
    current = pending.pop(0)
    while True:
        joined = set(current.variables)
        for f in [f for f in waiting if joined.issuperset(f.variables)]:
            current = f.apply(current)
            waiting.remove(f)
        if not pending or not current.num_rows:
            return current
        linked = next(
            (r for r in pending if not joined.isdisjoint(r.variables)), pending[0]
        )
        pending.remove(linked)
        current = current.join(linked)
        if current is None:
            return None


class CSPInstance:
    """A CSP over explicit finite domains with table constraints.

    Parameters
    ----------
    domains:
        Mapping from variable to an iterable of candidate values.
    constraints:
        Table, disequality, or negated-table constraints.
    engine:
        ``"indexed"`` (default) for the propagation-based engine,
        ``"naive"`` for the original scan-based one, or ``"columnar"`` for
        the vectorized NumPy engine; see the module docstring's "Engine
        architecture" section.
    search_order:
        Optional pre-computed variable order (skips the min-fill computation).
        Its one caller is :func:`repro.core.exact.solution_csp`, so that the
        two sides of a delta refresh share one min-fill computation.

    :meth:`restricted` derives a sibling instance that keeps these
    constraints (plus optional extra ones) and this instance's search order,
    and replaces some of the domains: one compiled constraint set serves
    many domain restrictions.
    """

    def __init__(
        self,
        domains: Dict[Variable, Iterable[Value]],
        constraints: Sequence[Constraint] = (),
        engine: str = DEFAULT_ENGINE,
        search_order: Optional[Sequence[Variable]] = None,
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        self._engine = engine
        # Keep the raw domain iterables: the columnar context recognises the
        # shared canonical-universe tuple by identity and skips per-value
        # re-encoding for full-universe domains (the common builder case).
        self._domain_sources: Dict[Variable, object] = dict(domains)
        self._columnar_ctx: object = _COLUMNAR_UNSET
        self._domains: Dict[Variable, Set[Value]] = {
            variable: set(values) for variable, values in domains.items()
        }
        self._variables_cache: Optional[List[Variable]] = None
        self._order_hint: Optional[List[Variable]] = (
            list(search_order) if search_order is not None else None
        )
        self._order_cache: Optional[List[Variable]] = None
        self._by_variable_cache: Optional[Dict[Variable, List[Constraint]]] = None
        self._constraints: List[Constraint] = []
        for constraint in constraints:
            self.add_constraint(constraint)

    @property
    def engine(self) -> str:
        return self._engine

    @property
    def variables(self) -> List[Variable]:
        if self._variables_cache is None:
            self._variables_cache = sorted(self._domains, key=repr)
        return list(self._variables_cache)

    @property
    def constraints(self) -> List[Constraint]:
        return list(self._constraints)

    def domain(self, variable: Variable) -> Set[Value]:
        return set(self._domains[variable])

    def add_constraint(self, constraint) -> None:
        """Add a constraint (table, disequality, or negated-table)."""
        unknown = [v for v in constraint.scope if v not in self._domains]
        if unknown:
            raise KeyError(f"constraint over unknown variables {unknown!r}")
        self._constraints.append(constraint)
        self._order_cache = None
        self._by_variable_cache = None
        self._columnar_ctx = _COLUMNAR_UNSET

    def restricted(
        self,
        domains: Dict[Variable, Iterable[Value]],
        extra_constraints: Sequence[Constraint] = (),
    ) -> "CSPInstance":
        """A sibling instance with this instance's constraints plus
        ``extra_constraints``, ``domains`` replacing the matching domains,
        and this instance's search order (the min-fill order is computed at
        most once, on this instance, however many siblings are derived)."""
        unknown = domains.keys() - self._domains.keys()
        if unknown:
            raise KeyError(f"restriction of unknown variables {sorted(unknown, key=repr)!r}")
        sibling = CSPInstance({**self._domain_sources, **domains}, engine=self._engine)
        # This instance's constraints were validated when they were added.
        sibling._constraints = list(self._constraints)
        for constraint in extra_constraints:
            sibling.add_constraint(constraint)
        sibling._order_cache = self.search_order()
        return sibling

    # ---------------------------------------------------------------- solving
    def constraint_hypergraph(self) -> Hypergraph:
        """Hypergraph whose vertices are variables and whose edges are the
        constraint scopes (used to pick a good search order)."""
        return Hypergraph(
            vertices=self._domains.keys(),
            edges=[frozenset(constraint.scope) for constraint in self._constraints]
            or [],
        )

    def search_order(self) -> List[Variable]:
        """Variable order from a min-fill elimination ordering, reversed so
        that "last eliminated" variables (roughly, the most connected) are
        assigned first.  Computed once per instance and cached."""
        if self._order_cache is None:
            if self._order_hint is not None:
                known = set(self._order_hint)
                self._order_cache = list(self._order_hint) + [
                    v for v in self.variables if v not in known
                ]
            else:
                from repro.decomposition.f_width import greedy_ordering  # local import

                hypergraph = self.constraint_hypergraph()
                if hypergraph.num_edges() == 0:
                    self._order_cache = self.variables
                else:
                    ordering = greedy_ordering(hypergraph.primal_graph(), "min_fill")
                    ordered = list(reversed(ordering))
                    remaining = [v for v in self.variables if v not in set(ordered)]
                    self._order_cache = ordered + remaining
        return list(self._order_cache)

    def propagate(
        self, domains: Optional[Dict[Variable, Set[Value]]] = None
    ) -> Optional[Dict[Variable, Set[Value]]]:
        """Generalized arc consistency: remove domain values not supported by
        every table constraint.  Returns the reduced domains, or ``None`` if
        some domain becomes empty (no solution).  All engines compute the
        same fixpoint; they differ only in how they reach it."""
        trusted_sources = domains is None
        if domains is None:
            domains = {v: set(values) for v, values in self._domains.items()}
        if self._engine == "naive":
            return self._propagate_naive(domains)
        if self._engine == "columnar":
            outcome = self._propagate_columnar(domains, trusted_sources)
            if outcome is not _COLUMNAR_UNSET:
                return outcome
        return self._propagate_indexed(domains)

    def _propagate_naive(
        self, domains: Dict[Variable, Set[Value]]
    ) -> Optional[Dict[Variable, Set[Value]]]:
        """Full-fixpoint GAC by re-filtering every table until stable (the
        original implementation, kept for the naive engine)."""
        changed = True
        while changed:
            changed = False
            for constraint in self._constraints:
                if not isinstance(constraint, Constraint):
                    # Only table constraints participate in GAC propagation;
                    # disequalities and negated tables are checked during search.
                    continue
                scope = constraint.scope
                # Restrict allowed tuples to current domains.
                live = [
                    tup
                    for tup in constraint.allowed
                    if all(value in domains[var] for var, value in zip(scope, tup))
                ]
                if not live:
                    return None
                for index, variable in enumerate(scope):
                    supported = {tup[index] for tup in live}
                    if not domains[variable] <= supported:
                        domains[variable] &= supported
                        changed = True
                        if not domains[variable]:
                            return None
        return domains

    def _propagate_indexed(
        self, domains: Dict[Variable, Set[Value]]
    ) -> Optional[Dict[Variable, Set[Value]]]:
        """Support-counting GAC with a worklist of removed values (GAC4-style):
        only constraints whose variables actually shrank are revisited, and
        each revisit touches only the tuples indexed under the removed value."""
        states: List[_TableState] = []
        occurrences: Dict[Variable, List[Tuple[_TableState, Tuple[int, ...]]]] = {}
        worklist: List[Tuple[Variable, Value]] = []

        # Build each table's live set under the initial domains, its support
        # counts, and the initial domain restrictions.
        for constraint in self._constraints:
            if not isinstance(constraint, Constraint):
                continue
            index = constraint.index
            scope = constraint.scope
            live = set(index.all_ids)
            for position, variable in enumerate(scope):
                if not live:
                    break
                domain = domains[variable]
                bucket = index.by_position[position]
                if len(domain) * 4 < len(bucket):
                    # Small domain (e.g. variables pinned by the streaming
                    # delta probes): gather the surviving ids directly
                    # instead of subtracting every missing value's bucket.
                    kept: Set[int] = set()
                    for value in domain:
                        ids = bucket.get(value)
                        if ids:
                            kept |= ids
                    live &= kept
                    continue
                missing = [value for value in bucket if value not in domain]
                if not missing:
                    continue
                if len(missing) == len(bucket):
                    live.clear()
                    break
                for value in missing:
                    live.difference_update(bucket[value])
            if not live:
                return None
            state = _TableState(constraint, live)
            states.append(state)
            positions_by_variable: Dict[Variable, List[int]] = {}
            for position, variable in enumerate(scope):
                positions_by_variable.setdefault(variable, []).append(position)
            for variable, positions in positions_by_variable.items():
                occurrences.setdefault(variable, []).append((state, tuple(positions)))
            for position, variable in enumerate(scope):
                supported = state.counts[position]
                domain = domains[variable]
                if not domain <= supported.keys():
                    removed = domain - supported.keys()
                    domain -= removed
                    if not domain:
                        return None
                    worklist.extend((variable, value) for value in removed)

        # Drain the worklist: each removed (variable, value) kills exactly the
        # live tuples indexed under it, decrementing supports and possibly
        # removing further values.
        while worklist:
            variable, value = worklist.pop()
            for state, positions in occurrences.get(variable, ()):
                live = state.live
                if not live:
                    continue
                index = state.index
                tuples = index.tuples
                counts = state.counts
                scope = state.constraint.scope
                for position in positions:
                    bucket = index.by_position[position].get(value)
                    if not bucket:
                        continue
                    dead = live & bucket
                    if not dead:
                        continue
                    live -= dead
                    if not live:
                        return None
                    for tid in dead:
                        for position2, value2 in enumerate(tuples[tid]):
                            count_bucket = counts[position2]
                            remaining = count_bucket[value2] - 1
                            if remaining:
                                count_bucket[value2] = remaining
                            else:
                                del count_bucket[value2]
                                variable2 = scope[position2]
                                domain2 = domains[variable2]
                                if value2 in domain2:
                                    domain2.discard(value2)
                                    if not domain2:
                                        return None
                                    worklist.append((variable2, value2))
        return domains

    # ------------------------------------------------------------- columnar
    def _columnar_context(self) -> Optional[_ColumnarContext]:
        """Build (and cache) the columnar preliminaries, or ``None`` when the
        instance cannot be interned (int32 overflow, foreign domain values)."""
        if self._columnar_ctx is not _COLUMNAR_UNSET:
            return self._columnar_ctx
        self._columnar_ctx = self._build_columnar_context()
        return self._columnar_ctx

    def _build_columnar_context(self) -> Optional[_ColumnarContext]:
        table_constraints = [c for c in self._constraints if isinstance(c, Constraint)]
        # Preferred path: every table carries a shared ColumnarRelation from
        # one structure (one encoder), and every domain is covered by it.
        shared: Optional[UniverseEncoder] = None
        use_shared = bool(table_constraints)
        for constraint in table_constraints:
            attached = constraint.__dict__.get("_table")
            if attached is None:
                use_shared = False
                break
            if shared is None:
                shared = attached.encoder
            elif attached.encoder is not shared:
                use_shared = False
                break
        if use_shared and shared is not None:
            code_of = shared.code_of
            for variable, source in self._domain_sources.items():
                if source is shared.values:
                    continue
                if not all(value in code_of for value in self._domains[variable]):
                    use_shared = False
                    break
        var_list = self.variables
        var_pos = {variable: i for i, variable in enumerate(var_list)}
        if use_shared and shared is not None:
            tables = [
                (
                    constraint.__dict__["_table"],
                    tuple(var_pos[v] for v in constraint.scope),
                )
                for constraint in table_constraints
            ]
            return _ColumnarContext(shared, var_list, tables)
        # Generic path: intern every value the instance mentions, repr-sorted
        # (so ascending codes still match the canonical value order).
        seen: Set[Value] = set()
        for domain in self._domains.values():
            seen |= domain
        for constraint in table_constraints:
            for tup in constraint.allowed:
                seen.update(tup)
        ordered = sorted(seen, key=repr)
        if len(ordered) > _columnar._INT32_LIMIT:
            return None
        encoder = UniverseEncoder(ordered)
        tables = []
        for constraint in table_constraints:
            rel = ColumnarRelation.from_facts(
                constraint.allowed, len(constraint.scope), encoder
            )
            if rel is None:
                return None
            tables.append((rel, tuple(var_pos[v] for v in constraint.scope)))
        return _ColumnarContext(encoder, var_list, tables)

    def _columnar_masks(self, ctx, domains, trusted_sources):
        """Per-variable domain bit-masks over codes, or ``None`` when some
        domain value falls outside the encoder (caller falls back)."""
        np = _columnar.np
        encoder = ctx.encoder
        code_of = encoder.code_of
        n_codes = len(encoder)
        masks = []
        for variable in ctx.var_list:
            domain = domains[variable]
            if (
                trusted_sources
                and self._domain_sources.get(variable) is encoder.values
                and len(domain) == n_codes
            ):
                masks.append(np.ones(n_codes, dtype=bool))
                continue
            mask = np.zeros(n_codes, dtype=bool)
            try:
                codes = [code_of[value] for value in domain]
            except KeyError:
                return None
            if codes:
                mask[np.fromiter(codes, dtype=np.int64, count=len(codes))] = True
            masks.append(mask)
        return masks

    def _columnar_fixpoint(self, domains, trusted_sources):
        """Vectorized GAC to the same fixpoint as the other engines.

        Returns ``(masks, states, ctx)`` at the fixpoint, ``None`` when
        unsatisfiable, or ``_COLUMNAR_UNSET`` when the columnar engine cannot
        serve this call (caller falls back to the indexed paths).
        """
        ctx = self._columnar_context()
        if ctx is None:
            return _COLUMNAR_UNSET
        np = _columnar.np
        try:
            masks = self._columnar_masks(ctx, domains, trusted_sources)
        except KeyError:
            masks = None
        if masks is None:
            return _COLUMNAR_UNSET
        n_codes = len(ctx.encoder)
        states: List[_ColumnarTableState] = []
        occurrences: Dict[int, List[Tuple[_ColumnarTableState, Tuple[int, ...]]]] = {}
        pending: List[int] = []
        queued: Set[int] = set()

        def enqueue(vi: int) -> None:
            if vi not in queued:
                queued.add(vi)
                pending.append(vi)

        for rel, scope_idx in ctx.tables:
            if rel.num_rows == 0:
                return None
            live = np.ones(rel.num_rows, dtype=bool)
            for position, vi in enumerate(scope_idx):
                live &= masks[vi][rel.columns[position]]
            if not live.any():
                return None
            live_idx = np.flatnonzero(live)
            counts = [
                np.bincount(rel.columns[position][live_idx], minlength=n_codes)
                for position in range(len(scope_idx))
            ]
            state = _ColumnarTableState(rel, scope_idx, live, counts)
            states.append(state)
            positions_by_vi: Dict[int, List[int]] = {}
            for position, vi in enumerate(scope_idx):
                positions_by_vi.setdefault(vi, []).append(position)
            for vi, positions in positions_by_vi.items():
                occurrences.setdefault(vi, []).append((state, tuple(positions)))
            for position, vi in enumerate(scope_idx):
                supported = counts[position] > 0
                mask = masks[vi]
                if (mask & ~supported).any():
                    mask &= supported
                    if not mask.any():
                        return None
                    enqueue(vi)

        # Drain the worklist: a shrunken variable kills the live rows holding
        # its dead codes, and the kills are folded back into the support
        # counts with one bulk bincount decrement per (constraint, position).
        while pending:
            vi = pending.pop()
            queued.discard(vi)
            mask_v = masks[vi]
            for state, positions in occurrences.get(vi, ()):
                live = state.live
                dead = None
                for position in positions:
                    gone = live & ~mask_v[state.rel.columns[position]]
                    dead = gone if dead is None else (dead | gone)
                if dead is None or not dead.any():
                    continue
                live &= ~dead
                if not live.any():
                    return None
                dead_idx = np.flatnonzero(dead)
                for position, vq in enumerate(state.scope_idx):
                    decrement = np.bincount(
                        state.rel.columns[position][dead_idx], minlength=n_codes
                    )
                    support = state.counts[position]
                    support -= decrement
                    mask_q = masks[vq]
                    newly_dead = mask_q & (decrement > 0) & (support == 0)
                    if newly_dead.any():
                        mask_q &= ~newly_dead
                        if not mask_q.any():
                            return None
                        enqueue(vq)
        return masks, states, ctx

    def _propagate_columnar(self, domains, trusted_sources):
        """GAC via :meth:`_columnar_fixpoint`, decoded back into ``domains``;
        ``_COLUMNAR_UNSET`` tells :meth:`propagate` to run indexed instead."""
        outcome = self._columnar_fixpoint(domains, trusted_sources)
        if outcome is _COLUMNAR_UNSET or outcome is None:
            return outcome
        np = _columnar.np
        masks, _states, ctx = outcome
        values = ctx.encoder.values
        for vi, variable in enumerate(ctx.var_list):
            domains[variable] = {values[code] for code in np.flatnonzero(masks[vi])}
        return domains

    def _constraints_by_variable(self) -> Dict[Variable, List[Constraint]]:
        if self._by_variable_cache is None:
            index: Dict[Variable, List[Constraint]] = {v: [] for v in self._domains}
            for constraint in self._constraints:
                for variable in set(constraint.scope):
                    index[variable].append(constraint)
            self._by_variable_cache = index
        return self._by_variable_cache

    # ---------------------------------------------------------------- search
    def iter_solutions(self, limit: Optional[int] = None) -> Iterator[Dict[Variable, Value]]:
        """Enumerate solutions by propagation + backtracking search.  Every
        engine yields the same solutions in the same order."""
        for assignment in self._iter_assignments(limit):
            yield dict(assignment)

    def _iter_assignments(self, limit: Optional[int]) -> Iterator[Dict[Variable, Value]]:
        """Yield the internal (shared, mutable) assignment dict at every
        solution; callers must copy if they keep it."""
        if self._engine == "naive":
            yield from self._iter_naive(limit)
        else:
            yield from self._iter_indexed(limit)

    def _iter_naive(self, limit: Optional[int]) -> Iterator[Dict[Variable, Value]]:
        """The original search: re-sorts the current variable's domain at
        every node and checks consistency by scanning the tables."""
        domains = self.propagate()
        if domains is None:
            return
        order = self.search_order()
        by_variable = self._constraints_by_variable()
        produced = 0

        def consistent_check(constraint, assignment) -> bool:
            if isinstance(constraint, Constraint):
                return constraint.scan_consistent_with_partial(assignment)
            return constraint.consistent_with_partial(assignment)

        def backtrack(position: int, assignment: Dict[Variable, Value]) -> Iterator[Dict[Variable, Value]]:
            nonlocal produced
            if limit is not None and produced >= limit:
                return
            if position == len(order):
                produced += 1
                yield assignment
                return
            variable = order[position]
            for value in sorted(domains[variable], key=repr):
                assignment[variable] = value
                consistent = all(
                    consistent_check(constraint, assignment)
                    for constraint in by_variable[variable]
                )
                if consistent:
                    yield from backtrack(position + 1, assignment)
                    if limit is not None and produced >= limit:
                        del assignment[variable]
                        return
                del assignment[variable]

        yield from backtrack(0, {})

    def _iter_indexed(
        self,
        limit: Optional[int],
        order: Optional[List[Variable]] = None,
        cut: Optional[int] = None,
    ) -> Iterator[Dict[Variable, Value]]:
        """Index-driven search, shared by the indexed and columnar engines
        (:meth:`propagate` runs each engine's own GAC first): canonical value
        orders computed once, and forward checking prunes neighbour domains
        through the tuple indexes (with an undo trail) before recursing.
        ``order`` defaults to :meth:`search_order`; a node at position
        ``cut`` or deeper returns after its first solution (the witness cut
        of :meth:`iter_answers`; the default, ``len(order)``, cuts
        nothing)."""
        domains = self.propagate()
        if domains is None:
            return
        if order is None:
            order = self.search_order()
        if cut is None:
            cut = len(order)
        by_variable = self._constraints_by_variable()
        # Canonical per-variable value order, computed once (not per node).
        value_order: Dict[Variable, List[Value]] = {
            variable: sorted(values, key=repr) for variable, values in domains.items()
        }
        current: Dict[Variable, Set[Value]] = {
            variable: set(values) for variable, values in domains.items()
        }
        assignment: Dict[Variable, Value] = {}
        produced = 0
        # A table check replaces a domain by the narrowed set and trails the
        # previous set object; a disequality discards one value in place and
        # trails it (``previous`` is ``None``).  Only unassigned variables
        # are narrowed, so a ``backtrack`` frame's ``live`` set is never
        # replaced while it iterates.
        Trail = List[Tuple[Variable, Optional[Set[Value]], Optional[Value]]]

        def undo(trail: Trail) -> None:
            for variable, previous, value in reversed(trail):
                if previous is None:
                    current[variable].add(value)
                else:
                    current[variable] = previous

        def forward_check(variable: Variable, value: Value) -> Optional[Trail]:
            """Check the constraints touching ``variable`` and prune the
            domains of their unassigned variables; returns the undo trail, or
            ``None`` on a dead end (already undone)."""
            trail: Trail = []
            for constraint in by_variable[variable]:
                if isinstance(constraint, Constraint):
                    index = constraint.index
                    if not index.tuples:
                        undo(trail)
                        return None
                    scope = constraint.scope
                    ids: Optional[FrozenSet[int]] = None
                    unassigned: List[Tuple[int, Variable]] = []
                    failed = False
                    for position, scope_variable in enumerate(scope):
                        if scope_variable in assignment:
                            bucket = index.by_position[position].get(
                                assignment[scope_variable]
                            )
                            if not bucket:
                                failed = True
                                break
                            if ids is None:
                                ids = bucket
                            else:
                                ids = ids & bucket
                                if not ids:
                                    failed = True
                                    break
                        else:
                            unassigned.append((position, scope_variable))
                    if failed:
                        undo(trail)
                        return None
                    if ids is None:
                        continue
                    tuples = index.tuples
                    for position, scope_variable in unassigned:
                        domain = current[scope_variable]
                        if len(ids) <= 4 * len(domain):
                            kept = domain.intersection(
                                [tuples[tid][position] for tid in ids]
                            )
                        else:
                            bucket = index.by_position[position]
                            kept = {
                                candidate
                                for candidate in domain
                                if not ids.isdisjoint(bucket.get(candidate, _EMPTY))
                            }
                        if len(kept) < len(domain):
                            if not kept:
                                undo(trail)
                                return None
                            current[scope_variable] = kept
                            trail.append((scope_variable, domain, None))
                elif isinstance(constraint, NotEqualConstraint):
                    other = (
                        constraint.right
                        if variable == constraint.left
                        else constraint.left
                    )
                    if other in assignment:
                        if assignment[other] == value:
                            undo(trail)
                            return None
                    else:
                        domain = current[other]
                        if value in domain:
                            domain.discard(value)
                            trail.append((other, None, value))
                            if not domain:
                                undo(trail)
                                return None
                else:
                    if not constraint.consistent_with_partial(assignment):
                        undo(trail)
                        return None
            return trail

        def backtrack(position: int) -> Iterator[Dict[Variable, Value]]:
            nonlocal produced
            if limit is not None and produced >= limit:
                return
            if position == len(order):
                produced += 1
                yield assignment
                return
            variable = order[position]
            live = current[variable]
            for value in value_order[variable]:
                if value not in live:
                    continue
                assignment[variable] = value
                trail = forward_check(variable, value)
                if trail is not None:
                    before = produced
                    yield from backtrack(position + 1)
                    undo(trail)
                    if (limit is not None and produced >= limit) or (
                        position >= cut and produced > before
                    ):
                        del assignment[variable]
                        return
                del assignment[variable]

        yield from backtrack(0)

    def solve(self) -> Optional[Dict[Variable, Value]]:
        """Return one solution, or ``None`` if the instance is unsatisfiable."""
        for solution in self.iter_solutions(limit=1):
            return solution
        return None

    def is_satisfiable(self) -> bool:
        for _ in self._iter_assignments(limit=1):
            return True
        return False

    def count_solutions(self) -> int:
        """Exact number of solutions (exponential in the worst case; intended
        for the small instances used as test baselines).  Avoids copying each
        solution dict."""
        return sum(1 for _ in self._iter_assignments(None))

    # ---------------------------------------------------------------- answers
    def iter_answers(self, free: Sequence[Variable]) -> Iterator[AssignmentTuple]:
        """Each distinct projection of a solution onto ``free`` (an answer of
        Definition 2 when this is a ``Sol(phi, D)`` instance), exactly once.

        The indexed and columnar engines share one search: it runs in the
        order of :meth:`_answer_order` and stops every subtree below its
        witness cut at its first solution, so an answer costs one witness,
        not all of its solutions; projections are deduplicated only where
        they can repeat.  The naive engine deduplicates the projections of
        its unchanged search.
        """
        free = tuple(free)
        if self._engine == "naive":
            return _distinct_projections(self._iter_naive(None), free)
        order, cut = self._answer_order(free)
        assignments = self._iter_indexed(None, order, cut)
        if cut > len(set(free)):
            return _distinct_projections(assignments, free)
        # The free variables are a prefix of the order: every node at the
        # cut holds a different answer.
        return (tuple(assignment[v] for v in free) for assignment in assignments)

    def count_answers(self, free: Sequence[Variable]) -> int:
        """``|Ans|``: the number of answers :meth:`iter_answers` yields.

        On the columnar engine, with at least one free variable, the
        existential variables are eliminated by joins
        (:meth:`_count_by_elimination`) when the answer search would walk
        one leaf per answer anyway: when some free variable shares no table
        with the earlier ones (:meth:`_answer_order` cuts below the free
        variables, so the search walks every witness), or when every
        variable is free (no first witness to stop at).  Every other case —
        Boolean queries, existential variables below a free-first cut, and a
        join that would exceed :data:`_ELIMINATION_ROW_LIMIT` rows — counts
        the answer search, which stops each subtree at its first witness.
        """
        free = tuple(free)
        wanted = set(free)
        if (
            self._engine == "columnar"
            and wanted
            and (
                wanted.issuperset(self._domains)
                or self._answer_order(free)[1] > len(wanted)
            )
        ):
            count = self._count_by_elimination(free)
            if count is not None:
                return count
        return sum(1 for _ in self.iter_answers(free))

    def _count_by_elimination(self, free: Tuple[Variable, ...]) -> Optional[int]:
        """Count the answers by bucket elimination over the columnar codes,
        or ``None`` when the columnar engine cannot serve the call or a join
        step would exceed :data:`_ELIMINATION_ROW_LIMIT` rows.

        After GAC, every table becomes a relation over its live rows, and
        disequalities and negated atoms become filters.  Each existential
        variable, in min-fill elimination order, joins the relations and
        filters that mention it (crossing in the domain of a filter variable
        no relation covers) and is projected away by a distinct on the
        rest.  The free variables left then fall into groups that no
        relation or filter links; each group's join counts its distinct
        rows, and the counts multiply.
        """
        domains = {v: set(values) for v, values in self._domains.items()}
        outcome = self._columnar_fixpoint(domains, True)
        if outcome is _COLUMNAR_UNSET:
            return None
        if outcome is None:
            return 0
        np = _columnar.np
        masks, states, ctx = outcome
        var_index = ctx.var_index
        if not all(mask.any() for mask in masks):
            # A variable no table mentions has an empty domain.
            return 0
        relations: List[_CodeRelation] = []
        for state in states:
            variables: List[int] = []
            columns = []
            live = state.live.copy()
            for position, vi in enumerate(state.scope_idx):
                column = state.rel.columns[position]
                if vi in variables:
                    live &= column == columns[variables.index(vi)]
                else:
                    variables.append(vi)
                    columns.append(column)
            if variables:
                rows = np.flatnonzero(live)
                relations.append(_CodeRelation(variables, [c[rows] for c in columns]))
        code_of = ctx.encoder.code_of
        filters: List[_Filter] = []
        for constraint in self._constraints:
            if isinstance(constraint, Constraint):
                continue
            scope = [var_index[variable] for variable in constraint.scope]
            if isinstance(constraint, NotEqualConstraint):
                filters.append(_Filter(scope, None))
            elif not isinstance(constraint, NotInRelationConstraint) or not scope:
                return None
            else:
                forbidden = [
                    [code_of[value] for value in tup]
                    for tup in constraint.forbidden
                    if all(value in code_of for value in tup)
                ]
                if forbidden:
                    filters.append(_Filter(scope, np.array(forbidden, dtype=np.int64)))
        universe = [np.flatnonzero(mask) for mask in masks]
        wanted = {var_index[variable] for variable in free}
        for variable in reversed(self.search_order()):
            vi = var_index[variable]
            if vi in wanted:
                continue
            bucket = [r for r in relations if vi in r.variables]
            bucket_filters = [f for f in filters if vi in f.variables]
            if not bucket and not bucket_filters:
                continue
            joined = _join_bucket(bucket, bucket_filters, universe)
            if joined is None:
                return None
            if not joined.num_rows:
                return 0
            relations = [r for r in relations if vi not in r.variables]
            filters = [f for f in filters if vi not in f.variables]
            rest = [u for u in joined.variables if u != vi]
            if rest:
                relations.append(joined.project(rest))
        # Only free variables remain: merge them into groups along every
        # relation and filter left, then count each group on its own.
        groups = [{vi} for vi in sorted(wanted)]
        for scope in [r.variables for r in relations] + [f.variables for f in filters]:
            linked = [group for group in groups if not group.isdisjoint(scope)]
            groups = [group for group in groups if group.isdisjoint(scope)]
            groups.append(set().union(*linked))
        count = 1
        for members in groups:
            joined = _join_bucket(
                [r for r in relations if members.intersection(r.variables)],
                [f for f in filters if members.intersection(f.variables)],
                universe,
                needed=members,
            )
            if joined is None:
                return None
            # Tables, projections and domains hold distinct rows, and so
            # do their joins: each row is one answer of the group.
            count *= joined.num_rows
        return count

    def _answer_order(self, free: Sequence[Variable]) -> Tuple[List[Variable], int]:
        """``(order, cut)`` for :meth:`iter_answers`.

        Let F be the free variables in min-fill order.  When every variable
        of F after the first shares a table constraint with an earlier one
        (vacuously so for at most one), F is searched first and the
        existential variables after it, both in min-fill order.  Otherwise
        the min-fill order stays: free variables that share no table would
        be walked over their whole cross product, whereas min-fill lets
        forward checking prune them through their existential neighbours.
        ``cut`` is one plus the position of the deepest free variable.
        """
        order = self.search_order()
        wanted = set(free)
        ranked = [variable for variable in order if variable in wanted]
        by_variable = self._constraints_by_variable()
        for position in range(1, len(ranked)):
            earlier = set(ranked[:position])
            if not any(
                isinstance(constraint, Constraint)
                and not earlier.isdisjoint(constraint.scope)
                for constraint in by_variable[ranked[position]]
            ):
                cut = max(order.index(variable) for variable in ranked) + 1
                return order, cut
        return ranked + [v for v in order if v not in wanted], len(ranked)


def _distinct_projections(
    assignments: Iterator[Dict[Variable, Value]], free: Tuple[Variable, ...]
) -> Iterator[AssignmentTuple]:
    """The distinct projections of ``assignments`` onto ``free``, in
    first-seen order.  Seen answers are keyed on their values in nested
    dicts, one level per free variable, and a tuple is built only for a new
    answer."""
    if not free:
        for _ in assignments:
            yield ()
            return
        return
    *prefix, last = free
    seen: Dict[Value, object] = {}
    for assignment in assignments:
        node = seen
        for variable in prefix:
            value = assignment[variable]
            child = node.get(value)
            if child is None:
                child = node[value] = {}
            node = child
        value = assignment[last]
        if value not in node:
            node[value] = None
            yield tuple(assignment[v] for v in free)


_EMPTY: FrozenSet[int] = frozenset()


def solve_csp(
    domains: Dict[Variable, Iterable[Value]],
    constraints: Sequence[Constraint],
    engine: str = DEFAULT_ENGINE,
) -> Optional[Dict[Variable, Value]]:
    """Convenience wrapper: build a :class:`CSPInstance` and return one
    solution (or ``None``)."""
    return CSPInstance(domains, constraints, engine=engine).solve()
