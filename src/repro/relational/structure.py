"""Relational structures and databases (Sections 1.1 and 2.2).

A structure ``A`` with signature ``sig(A)`` consists of a finite universe
``U(A)`` and, for each relation symbol ``R`` of the signature, a relation
``R^A ⊆ U(A)^{ar(R)}``.  A relational database is simply a structure (the
paper uses "database" for the large right-hand side and "structure" for the
small left-hand side of the homomorphism problem).

The size of a structure is ``||A|| = |sig(A)| + |U(A)| + sum_R |R^A| * ar(R)``
(following Grohe), which is the quantity the paper's running-time bounds are
stated in.
"""

from __future__ import annotations

import itertools
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.hypergraph import Hypergraph
from repro.relational.index import TupleIndex
from repro.relational.signature import RelationSymbol, Signature

Element = Hashable
Fact = Tuple[Element, ...]

#: Process-wide source of structure identity tokens (``next()`` is atomic in
#: CPython, so no lock is needed even under threaded use).
_STRUCTURE_TOKENS = itertools.count(1)

#: How many single-fact mutations a cached relation index absorbs through
#: :meth:`TupleIndex.with_fact_added` / :meth:`~TupleIndex.with_fact_removed`
#: before :meth:`Structure.relation_index` gives up and rebuilds from scratch.
#: Streams fold one pending delta per lookup; the limit only bites when many
#: mutations pile up between lookups — exactly the "versions skip" case where
#: a rebuild beats replaying a long op chain.
_INDEX_DELTA_LIMIT = 32


class Structure:
    """A finite relational structure.

    Parameters
    ----------
    signature:
        The signature; may also be grown implicitly via :meth:`add_fact` /
        :meth:`add_relation`.
    universe:
        Iterable of universe elements.  Elements appearing in facts are added
        automatically.
    relations:
        Mapping from relation-symbol name to an iterable of tuples.
    """

    def __init__(
        self,
        signature: Optional[Signature] = None,
        universe: Iterable[Element] = (),
        relations: Optional[Mapping[str, Iterable[Sequence[Element]]]] = None,
    ) -> None:
        self._signature = signature.copy() if signature is not None else Signature()
        self._universe: Set[Element] = set(universe)
        self._relations: Dict[str, Set[Fact]] = {
            symbol.name: set() for symbol in self._signature
        }
        # Fine-grained mutation counters: derived caches are keyed to the
        # counter of what they depend on, so e.g. adding facts to one relation
        # does not invalidate another relation's tuple index, and copies can
        # share still-valid caches.
        self._universe_version: int = 0
        self._relations_version: int = 0
        self._relation_versions: Dict[str, int] = {}
        self._structure_token: int = next(_STRUCTURE_TOKENS)
        self._canonical_universe_cache: Optional[Tuple[int, Tuple[Element, ...]]] = None
        self._relation_index_cache: Dict[str, Tuple[int, TupleIndex]] = {}
        self._relation_index_pending: Dict[str, List[Tuple[str, Fact]]] = {}
        # Columnar (struct-of-arrays) mirrors of the relations, for
        # engine="columnar": the universe encoder is keyed to the universe
        # version, each relation's column store to (universe version, that
        # relation's version).  Both are carried by copy() like the tuple
        # indexes, which is what lets the colour-coding hot path reuse the
        # base relations' columns across per-colouring copies.
        self._universe_encoder_cache: Optional[Tuple[int, object]] = None
        self._columnar_cache: Dict[str, Tuple[Tuple[int, int], object]] = {}
        self._derived_cache_state: Optional[Tuple[Tuple[int, int], Dict[object, object]]] = None
        # Opt-in change capture: callbacks invoked as (name, op, fact,
        # relation_version) on every effective fact mutation ("add"/"remove").
        # Copies start with no observers — a ChangeLog watches one structure.
        self._fact_observers: List = []
        if relations:
            for name, tuples in relations.items():
                tuples = [tuple(t) for t in tuples]
                if name not in self._signature and tuples:
                    self._signature.add(RelationSymbol(name, len(tuples[0])))
                    self._relations.setdefault(name, set())
                elif name not in self._signature:
                    raise ValueError(
                        f"cannot infer the arity of empty relation {name!r}; "
                        "declare it in the signature"
                    )
                for fact in tuples:
                    self.add_fact(name, fact)

    # --------------------------------------------------------------- building
    @classmethod
    def from_relations(
        cls,
        relations: Mapping[str, Iterable[Sequence[Element]]],
        universe: Iterable[Element] = (),
        signature: Optional[Signature] = None,
    ) -> "Structure":
        """Convenience constructor from a ``{name: [tuples]}`` mapping."""
        return cls(signature=signature, universe=universe, relations=relations)

    @classmethod
    def from_graph(cls, edges: Iterable[Sequence[Element]], symmetric: bool = True,
                   universe: Iterable[Element] = ()) -> "Structure":
        """The structure of a graph over a binary relation ``E``.

        With ``symmetric=True`` both orientations of every edge are added,
        which matches the usual encoding of undirected graphs as symmetric
        binary relations.
        """
        structure = cls(signature=Signature([RelationSymbol("E", 2)]), universe=universe)
        for edge in edges:
            u, v = tuple(edge)
            structure.add_fact("E", (u, v))
            if symmetric:
                structure.add_fact("E", (v, u))
        return structure

    def add_element(self, element: Element) -> None:
        """Add a universe element (idempotent)."""
        if element not in self._universe:
            self._universe.add(element)
            self._universe_version += 1

    def add_relation(self, symbol: RelationSymbol) -> None:
        """Declare a relation symbol with an (initially) empty relation."""
        self._signature.add(symbol)
        self._relations.setdefault(symbol.name, set())
        self._relations_version += 1

    def add_fact(self, name: str, fact: Sequence[Element]) -> Fact:
        """Add a fact (tuple) to the named relation, growing the signature on
        first use and the universe as needed."""
        fact = tuple(fact)
        symbol = self._signature.get(name)
        if symbol is None:
            symbol = RelationSymbol(name, len(fact))
            self._signature.add(symbol)
            self._relations.setdefault(name, set())
        if len(fact) != symbol.arity:
            raise ValueError(
                f"relation {name!r} has arity {symbol.arity}, got a tuple of "
                f"length {len(fact)}"
            )
        relation = self._relations.setdefault(name, set())
        if fact not in relation:
            relation.add(fact)
            self._relations_version += 1
            version = self._relation_versions.get(name, 0) + 1
            self._relation_versions[name] = version
            self._record_index_delta(name, "add", fact)
            for observer in self._fact_observers:
                observer(name, "add", fact, version)
        before = len(self._universe)
        self._universe.update(fact)
        if len(self._universe) != before:
            self._universe_version += 1
        return fact

    def remove_fact(self, name: str, fact: Sequence[Element]) -> Fact:
        """Remove a fact (tuple) from the named relation — the mutation
        symmetric to :meth:`add_fact`.

        Bumps the relation's version counter (invalidating exactly the
        version-keyed caches that depend on it: the relation's tuple index,
        the derived cache, and every service result-cache entry whose
        fingerprint mentions the relation) and notifies attached change
        observers.  The universe is **not** shrunk: elements stay once seen,
        so cached canonical universes and the identities of other facts are
        unaffected.  Raises ``KeyError`` for unknown relation symbols or
        facts not present in the relation.
        """
        fact = tuple(fact)
        if name not in self._signature:
            raise KeyError(f"unknown relation symbol {name!r}")
        relation = self._relations.get(name)
        if relation is None or fact not in relation:
            raise KeyError(f"relation {name!r} has no fact {fact!r}")
        relation.remove(fact)
        self._relations_version += 1
        version = self._relation_versions.get(name, 0) + 1
        self._relation_versions[name] = version
        self._record_index_delta(name, "remove", fact)
        for observer in self._fact_observers:
            observer(name, "remove", fact, version)
        return fact

    # ---------------------------------------------------------- change capture
    def register_fact_observer(self, observer) -> None:
        """Register a change-capture callback, invoked as ``observer(name,
        op, fact, relation_version)`` after every *effective* fact mutation
        (``op`` is ``"add"`` or ``"remove"``; no-op re-adds do not fire).

        This is the hook behind :class:`repro.relational.changelog.ChangeLog`;
        observers are not carried over by :meth:`copy`.
        """
        self._fact_observers.append(observer)

    def unregister_fact_observer(self, observer) -> None:
        """Remove a previously registered observer (idempotent)."""
        try:
            self._fact_observers.remove(observer)
        except ValueError:
            pass

    # ----------------------------------------------------------------- access
    @property
    def signature(self) -> Signature:
        return self._signature

    @property
    def universe(self) -> FrozenSet[Element]:
        return frozenset(self._universe)

    def relation(self, name: str) -> FrozenSet[Fact]:
        """The relation ``R^A`` for the named symbol (empty if declared but
        unpopulated)."""
        if name not in self._signature:
            raise KeyError(f"unknown relation symbol {name!r}")
        return frozenset(self._relations.get(name, set()))

    def relations(self) -> Dict[str, FrozenSet[Fact]]:
        return {symbol.name: self.relation(symbol.name) for symbol in self._signature}

    def has_fact(self, name: str, fact: Sequence[Element]) -> bool:
        return tuple(fact) in self._relations.get(name, set())

    # ------------------------------------------------------- derived caches
    def canonical_universe(self) -> Tuple[Element, ...]:
        """The universe in canonical (repr-sorted) order, cached until the
        universe changes.

        Every code path that needs a deterministic universe order should use
        this instead of re-sorting ``structure.universe``.
        """
        cached = self._canonical_universe_cache
        if cached is not None and cached[0] == self._universe_version:
            return cached[1]
        ordered = tuple(sorted(self._universe, key=repr))
        self._canonical_universe_cache = (self._universe_version, ordered)
        return ordered

    def _record_index_delta(self, name: str, op: str, fact: Fact) -> None:
        """Remember a single-fact mutation so the next :meth:`relation_index`
        lookup can fold it into the cached index instead of rebuilding.  Once
        the pending chain exceeds ``_INDEX_DELTA_LIMIT`` the cache entry is
        dropped (rebuild on next lookup)."""
        if name not in self._relation_index_cache:
            return
        pending = self._relation_index_pending.setdefault(name, [])
        pending.append((op, fact))
        if len(pending) > _INDEX_DELTA_LIMIT:
            self._relation_index_cache.pop(name, None)
            self._relation_index_pending.pop(name, None)

    def relation_index(self, name: str) -> TupleIndex:
        """The positional :class:`TupleIndex` of the named relation, cached
        until *that* relation changes and shared by every constraint built
        from this structure (and by fast copies of it).

        Mutations do not throw the cached index away: pending single-fact
        deltas are folded in via :meth:`TupleIndex.with_fact_added` /
        :meth:`~TupleIndex.with_fact_removed` (a structurally shared
        derivation — previously handed-out indexes keep their snapshot), and
        only a version skip beyond the recorded chain falls back to a full
        ``O(|R| * arity)`` rebuild.

        Raises ``KeyError`` for unknown relation symbols, like
        :meth:`relation`.
        """
        symbol = self._signature.get(name)
        if symbol is None:
            raise KeyError(f"unknown relation symbol {name!r}")
        version = self._relation_versions.get(name, 0)
        cached = self._relation_index_cache.get(name)
        if cached is not None:
            if cached[0] == version:
                return cached[1]
            pending = self._relation_index_pending.get(name, ())
            if cached[0] + len(pending) == version:
                index = cached[1]
                for op, fact in pending:
                    index = (
                        index.with_fact_added(fact)
                        if op == "add"
                        else index.with_fact_removed(fact)
                    )
                self._relation_index_pending.pop(name, None)
                self._relation_index_cache[name] = (version, index)
                return index
        index = TupleIndex.from_tuples(
            self._relations.get(name, set()), arity=symbol.arity
        )
        self._relation_index_pending.pop(name, None)
        self._relation_index_cache[name] = (version, index)
        return index

    def universe_encoder(self):
        """The interned value <-> int32 code bijection over this structure's
        canonical universe (see :mod:`repro.relational.columnar`), cached
        until the universe changes; ``None`` when the universe exceeds the
        int32 code space (the CSP engine then falls back to its indexed
        paths)."""
        from repro.relational import columnar

        cached = self._universe_encoder_cache
        if cached is not None and cached[0] == self._universe_version:
            return cached[1]
        encoder = columnar.build_encoder(self.canonical_universe())
        self._universe_encoder_cache = (self._universe_version, encoder)
        return encoder

    def columnar_relation(self, name: str):
        """The :class:`~repro.relational.columnar.ColumnarRelation` mirror of
        the named relation, cached until the universe or *that* relation
        changes; ``None`` when the encoder is unavailable.  Raises
        ``KeyError`` for unknown relation symbols, like :meth:`relation`."""
        from repro.relational.columnar import ColumnarRelation

        symbol = self._signature.get(name)
        if symbol is None:
            raise KeyError(f"unknown relation symbol {name!r}")
        key = (self._universe_version, self._relation_versions.get(name, 0))
        cached = self._columnar_cache.get(name)
        if cached is not None and cached[0] == key:
            return cached[1]
        encoder = self.universe_encoder()
        if encoder is None:
            table = None
        else:
            table = ColumnarRelation.from_facts(
                self._relations.get(name, set()), symbol.arity, encoder
            )
        self._columnar_cache[name] = (key, table)
        return table

    def derived_cache(self) -> Dict[object, object]:
        """A scratch cache tied to the structure's current contents, for
        callers that memoise derived data (e.g. per-atom projection bases in
        :mod:`repro.core.bag_solutions`).  Invalidated on any mutation."""
        key = (self._universe_version, self._relations_version)
        state = self._derived_cache_state
        if state is None or state[0] != key:
            state = (key, {})
            self._derived_cache_state = state
        return state[1]

    @property
    def structure_token(self) -> int:
        """A process-wide unique identity token for this structure object.

        Version counters only order the mutations of *one* structure: two
        independently built structures can reach identical counter values with
        different contents.  Cache keys therefore pair the token with
        :meth:`version_fingerprint`; :meth:`copy` assigns a fresh token so a
        copy and its original can never serve each other stale entries after
        diverging mutations.
        """
        return self._structure_token

    def version_fingerprint(
        self, relation_names: Optional[Iterable[str]] = None
    ) -> Tuple[int, Tuple[Tuple[str, int], ...]]:
        """A hashable snapshot of the mutation counters this structure's
        contents are keyed under: the universe version plus the per-relation
        versions of ``relation_names`` (default: every declared relation).

        Restricting to the relations a query actually mentions makes cache
        keys insensitive to mutations of unrelated relations: adding facts to
        ``F`` does not evict cached counts of a query over ``E``.
        """
        if relation_names is None:
            names = sorted(self._relations)
        else:
            names = sorted(set(relation_names))
        return (
            self._universe_version,
            tuple((name, self._relation_versions.get(name, 0)) for name in names),
        )

    def facts(self) -> Iterator[Tuple[str, Fact]]:
        """Iterate over all (relation name, tuple) facts."""
        for name in sorted(self._relations):
            for fact in sorted(self._relations[name], key=repr):
                yield name, fact

    def num_facts(self) -> int:
        return sum(len(tuples) for tuples in self._relations.values())

    def arity(self) -> int:
        """``ar(sig(A))``: the maximum arity in the signature."""
        return self._signature.arity()

    def size(self) -> int:
        """``||A|| = |sig(A)| + |U(A)| + sum_R |R^A| * ar(R)``."""
        relation_mass = sum(
            len(self._relations.get(symbol.name, set())) * symbol.arity
            for symbol in self._signature
        )
        return len(self._signature) + len(self._universe) + relation_mass

    # -------------------------------------------------------------- structure
    def hypergraph(self) -> Hypergraph:
        """The associated hypergraph H(A) (Section 4): vertices are the
        universe elements, and every fact contributes the hyperedge of the
        elements it mentions."""
        edges = []
        for _, fact in self.facts():
            members = frozenset(fact)
            if members:
                edges.append(members)
        return Hypergraph(vertices=self._universe, edges=edges)

    def restrict_universe(self, subset: Iterable[Element]) -> "Structure":
        """The induced substructure on ``subset``: keep only facts whose
        elements all lie in the subset."""
        subset_set = set(subset)
        unknown = subset_set - self._universe
        if unknown:
            raise KeyError(f"elements not in universe: {sorted(map(repr, unknown))}")
        restricted = Structure(signature=self._signature, universe=subset_set)
        for name, fact in self.facts():
            if all(element in subset_set for element in fact):
                restricted.add_fact(name, fact)
        return restricted

    def with_unary_relation(self, name: str, members: Iterable[Element]) -> "Structure":
        """A copy with an additional unary relation ``name`` holding the given
        members (the operation used by the coloured structures of Definitions
        26 and 28 and by the "constants via singleton relations" trick)."""
        copy = self.copy()
        copy.add_relation(RelationSymbol(name, 1))
        for element in members:
            if element not in self._universe:
                raise KeyError(f"element {element!r} not in universe")
            copy.add_fact(name, (element,))
        return copy

    def complement_relation(self, name: str, arity: int) -> Set[Fact]:
        """The complement relation ``U(A)^arity \\ R^A`` used by Definition 20
        to interpret negated predicates.  Beware: its size is ``|U|^arity``."""
        universe = self.canonical_universe()
        existing = self._relations.get(name, set())
        complement: Set[Fact] = set()

        def extend(prefix: Tuple[Element, ...]) -> None:
            if len(prefix) == arity:
                if prefix not in existing:
                    complement.add(prefix)
                return
            for element in universe:
                extend(prefix + (element,))

        extend(())
        return complement

    def copy(self) -> "Structure":
        """A fast independent copy: relation sets are bulk-copied (the facts
        were validated when first added) and still-valid derived caches —
        canonical universe, per-relation tuple indexes — are carried over, so
        copies mutated in only a few relations keep the shared indexes of the
        untouched ones."""
        duplicate = Structure.__new__(Structure)
        duplicate._signature = self._signature.copy()
        duplicate._universe = set(self._universe)
        duplicate._relations = {name: set(facts) for name, facts in self._relations.items()}
        duplicate._universe_version = self._universe_version
        duplicate._relations_version = self._relations_version
        duplicate._relation_versions = dict(self._relation_versions)
        duplicate._structure_token = next(_STRUCTURE_TOKENS)
        duplicate._canonical_universe_cache = self._canonical_universe_cache
        duplicate._relation_index_cache = dict(self._relation_index_cache)
        duplicate._relation_index_pending = {
            name: list(ops) for name, ops in self._relation_index_pending.items()
        }
        duplicate._universe_encoder_cache = self._universe_encoder_cache
        duplicate._columnar_cache = dict(self._columnar_cache)
        duplicate._derived_cache_state = None
        # Change observers watch the original object, not its copies.
        duplicate._fact_observers = []
        return duplicate

    # ----------------------------------------------------------------- dunder
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Structure):
            return NotImplemented
        return (
            self._signature == other._signature
            and self._universe == other._universe
            and {k: v for k, v in self._relations.items()}
            == {k: v for k, v in other._relations.items()}
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(|U|={len(self._universe)}, "
            f"symbols={self._signature.names()}, facts={self.num_facts()})"
        )


class Database(Structure):
    """A relational database: a structure playing the "large" right-hand-side
    role in the counting problems #CQ / #DCQ / #ECQ."""

    @classmethod
    def from_graph_edges(
        cls, edges: Iterable[Sequence[Element]], symmetric: bool = True,
        universe: Iterable[Element] = ()
    ) -> "Database":
        """Database of a graph over a symmetric binary relation ``E``."""
        database = cls(signature=Signature([RelationSymbol("E", 2)]), universe=universe)
        for edge in edges:
            u, v = tuple(edge)
            database.add_fact("E", (u, v))
            if symmetric:
                database.add_fact("E", (v, u))
        return database
