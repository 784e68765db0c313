"""Positional tuple indexes for relations and table constraints.

A :class:`TupleIndex` is the shared, immutable acceleration structure behind
the indexed CSP/join engine: for a relation (or a constraint's ``allowed``
table) it stores the tuples in a fixed order and, for every argument
position, a mapping ``value -> frozenset of tuple ids`` holding that value at
that position.  With it,

* "is some allowed tuple compatible with this partial assignment?" becomes an
  intersection of a few id-sets instead of a scan of the whole table,
* GAC propagation can kill exactly the tuples that lost a domain value
  (``by_position[p][v]``) instead of re-filtering the table, and
* forward checking reads the supported neighbour values straight off the
  surviving ids.

Indexes are built once per relation per :class:`~repro.relational.structure.Structure`
version (see :meth:`Structure.relation_index`) and shared by every constraint
over that relation, so the Hom oracle pays the build cost once per database,
not once per query node.

Under live updates a single-fact change must not pay the full
``O(|R| * arity)`` rebuild (re-hashing every value of every tuple), so an
index can also be **derived** from its predecessor: :meth:`with_fact_added`
and :meth:`with_fact_removed` return a *new* index sharing every untouched
id-set with the old one — the old index is never mutated, so constraints
holding it (and structure copies sharing it) keep a consistent snapshot.
Removal leaves a tombstoned slot in ``tuples`` (its id simply drops out of
``all_ids`` and the buckets); once tombstones dominate, the derivation
compacts back to a full rebuild.  Derivation is not O(1): the id-sets are
shared but the flat containers (``tuples``, ``allowed``, ``all_ids``, one
bucket dict per position) are still pointer-copied, so the win over a
rebuild is the skipped per-value hashing and id-set construction — a large
constant factor, not an asymptotic one.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Optional, Set, Tuple

Value = Hashable
ValueTuple = Tuple[Value, ...]


class TupleIndex:
    """An immutable positional index over a set of same-arity tuples."""

    __slots__ = ("tuples", "allowed", "by_position", "all_ids", "arity")

    def __init__(self, tuples: Iterable[ValueTuple], arity: Optional[int] = None) -> None:
        ordered = tuple(tuples)
        self.tuples: Tuple[ValueTuple, ...] = ordered
        self.allowed: FrozenSet[ValueTuple] = frozenset(ordered)
        if arity is None:
            arity = len(ordered[0]) if ordered else 0
        self.arity: int = arity
        # The id-sets are built once and treated as immutable afterwards; the
        # engine only reads and intersects them (plain sets keep construction
        # cheap — this runs once per relation per structure version).
        buckets: Tuple[Dict[Value, Set[int]], ...] = tuple({} for _ in range(arity))
        for tid, tup in enumerate(ordered):
            for position, value in enumerate(tup):
                bucket = buckets[position]
                ids = bucket.get(value)
                if ids is None:
                    bucket[value] = {tid}
                else:
                    ids.add(tid)
        self.by_position: Tuple[Dict[Value, Set[int]], ...] = buckets
        self.all_ids: FrozenSet[int] = frozenset(range(len(ordered)))

    @classmethod
    def from_tuples(cls, tuples: Iterable[ValueTuple], arity: Optional[int] = None) -> "TupleIndex":
        """Build an index from an iterable of tuples (deduplicated; tuple ids
        are an internal detail and carry no semantics)."""
        if not isinstance(tuples, (set, frozenset)):
            tuples = set(tuples)
        return cls(tuples, arity=arity)

    # ------------------------------------------------------ delta derivation
    def _derive(self) -> "TupleIndex":
        """An uninitialised sibling for the delta constructors to fill in."""
        sibling = TupleIndex.__new__(TupleIndex)
        sibling.arity = self.arity
        return sibling

    def with_fact_added(self, fact: ValueTuple) -> "TupleIndex":
        """A new index over ``tuples + {fact}``; ``self`` is untouched.

        Only the id-sets of the new fact's ``(position, value)`` buckets are
        rebuilt — every other bucket is shared with this index, skipping the
        ``O(|R| * arity)`` hashing of a full rebuild.
        """
        fact = tuple(fact)
        if self.arity and len(fact) != self.arity:
            raise ValueError(
                f"cannot add a tuple of length {len(fact)} to an index of "
                f"arity {self.arity}"
            )
        if fact in self.allowed:
            return self
        if not self.arity:
            # Arity was never pinned (empty, arity-less index): rebuild.
            return TupleIndex((fact,), arity=len(fact))
        tid = len(self.tuples)
        sibling = self._derive()
        sibling.tuples = self.tuples + (fact,)
        sibling.allowed = self.allowed | {fact}
        buckets = []
        for position, value in enumerate(fact):
            bucket = dict(self.by_position[position])
            ids = bucket.get(value)
            bucket[value] = {tid} if ids is None else ids | {tid}
            buckets.append(bucket)
        sibling.by_position = tuple(buckets)
        sibling.all_ids = self.all_ids | {tid}
        return sibling

    def with_fact_removed(self, fact: ValueTuple) -> "TupleIndex":
        """A new index over ``tuples - {fact}``; ``self`` is untouched.

        The removed tuple's slot is tombstoned: it stays in ``tuples`` (ids
        are positional) but its id leaves ``all_ids`` and every bucket, so
        the engine never visits it.  When tombstones outnumber the live
        tuples the index is compacted via a full rebuild instead.
        """
        fact = tuple(fact)
        if fact not in self.allowed:
            raise KeyError(f"tuple {fact!r} is not in the index")
        live = len(self.allowed) - 1
        if not self.arity or live * 2 < len(self.tuples) - 1:
            return TupleIndex(self.allowed - {fact}, arity=self.arity)
        ids = None
        for position, value in enumerate(fact):
            bucket_ids = self.by_position[position][value]
            ids = bucket_ids if ids is None else ids & bucket_ids
            if len(ids) == 1:
                break
        # Tuples are deduplicated, so exactly one id matches every position.
        (tid,) = (tid for tid in ids if self.tuples[tid] == fact)
        sibling = self._derive()
        sibling.tuples = self.tuples
        sibling.allowed = self.allowed - {fact}
        buckets = []
        for position, value in enumerate(fact):
            bucket = dict(self.by_position[position])
            remaining = bucket[value] - {tid}
            if remaining:
                bucket[value] = remaining
            else:
                del bucket[value]
            buckets.append(bucket)
        sibling.by_position = tuple(buckets)
        sibling.all_ids = self.all_ids - {tid}
        return sibling

    def __len__(self) -> int:
        return len(self.tuples)

    def __repr__(self) -> str:
        return f"TupleIndex(|tuples|={len(self.tuples)}, arity={self.arity})"
