"""Opt-in change capture for live databases.

A :class:`ChangeLog` attaches to one :class:`~repro.relational.structure.Structure`
through its fact-observer hook and records every effective ``add_fact`` /
``remove_fact`` together with the relation version the mutation produced.
Given a :meth:`Structure.version_fingerprint` taken earlier, the log can then
reconstruct the **net per-relation delta** between that fingerprint and the
structure's current contents — the input of the incremental counting paths in
:mod:`repro.stream`.

Versions are the glue: every fact mutation bumps exactly one relation's
counter by one, so "the changes since fingerprint ``F``" are precisely the
recorded events whose version exceeds ``F``'s entry for their relation.  The
log can only answer for fingerprints taken while it was attached (and not yet
:meth:`trimmed <trim>` past); anything older raises :class:`ChangeLogGap`,
which callers treat as "recount from scratch".

Facts are netted: an insert followed by a delete of the same fact (or vice
versa) cancels, so long insert/delete churn over a small working set yields
small deltas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from repro.relational.structure import Fact, Structure

#: The shape produced by :meth:`Structure.version_fingerprint`.
Fingerprint = Tuple[int, Tuple[Tuple[str, int], ...]]


class ChangeLogGap(KeyError):
    """The log cannot reconstruct the delta since the given fingerprint —
    it was attached (or trimmed) after the fingerprint was taken."""


@dataclass(frozen=True)
class RelationDelta:
    """The net change of one relation between two points in time."""

    added: FrozenSet[Fact]
    removed: FrozenSet[Fact]

    def is_empty(self) -> bool:
        return not self.added and not self.removed

    def __len__(self) -> int:
        return len(self.added) + len(self.removed)


#: ``{relation name: RelationDelta}`` with empty deltas omitted.
StructureDelta = Dict[str, RelationDelta]


class ChangeLog:
    """Record per-relation fact deltas of one structure, keyed by version.

    Attach with ``log = ChangeLog(database)`` (registers itself as a fact
    observer); detach with :meth:`detach`.  While attached, every effective
    mutation appends one ``(version, op, fact)`` event to the mutated
    relation's event list.

    ``relation_filter`` (optional) drops events for relations no reader will
    ever ask about — the streaming layer passes "is any live subscription
    watching this relation?", so heavy churn on unwatched relations does not
    grow the log.  Filtering is sound for :meth:`delta_since` as long as a
    relation is watched from before the fingerprint in question was taken
    (earlier filtered events are below the fingerprint and never replayed).
    """

    def __init__(self, structure: Structure, relation_filter=None) -> None:
        self._structure = structure
        self._filter = relation_filter
        # Events for version v are reconstructable iff v > floor[name]; the
        # floor starts at the version current when the log attached and rises
        # when the log is trimmed.
        self._floor: Dict[str, int] = dict(structure._relation_versions)
        self._events: Dict[str, List[Tuple[int, str, Fact]]] = {}
        self._attached = True
        structure.register_fact_observer(self._record)

    # ------------------------------------------------------------- lifecycle
    @property
    def structure(self) -> Structure:
        return self._structure

    @property
    def attached(self) -> bool:
        return self._attached

    def detach(self) -> None:
        """Stop recording (idempotent).  Recorded events stay readable."""
        if self._attached:
            self._structure.unregister_fact_observer(self._record)
            self._attached = False

    def _record(self, name: str, op: str, fact: Fact, version: int) -> None:
        if self._filter is not None and not self._filter(name):
            return
        self._events.setdefault(name, []).append((version, op, fact))

    def num_events(self) -> int:
        return sum(len(events) for events in self._events.values())

    def recorded_relations(self) -> Tuple[str, ...]:
        """Names of the relations currently holding recorded events."""
        return tuple(sorted(self._events))

    def mark_floor(self, name: str) -> None:
        """Raise ``name``'s floor to the structure's current version —
        called when a previously filtered relation starts being recorded, so
        :meth:`covers` honestly reflects the unrecorded window."""
        version = self._structure._relation_versions.get(name, 0)
        if version > self._floor.get(name, 0):
            self._floor[name] = version

    # --------------------------------------------------------------- queries
    def covers(self, fingerprint: Fingerprint) -> bool:
        """Whether the log reaches back to ``fingerprint``: for every
        relation in it, events from the fingerprinted version onward are
        still recorded (i.e. the version is at or above the log's floor).

        A detached log covers nothing — mutations after :meth:`detach` went
        unrecorded, so its deltas can no longer be trusted to reach the
        structure's *current* contents."""
        if not self._attached:
            return False
        _, relation_versions = fingerprint
        return all(
            version >= self._floor.get(name, 0)
            for name, version in relation_versions
        )

    def delta_since(self, fingerprint: Fingerprint) -> StructureDelta:
        """The net per-relation delta between ``fingerprint`` and the
        structure's current contents, restricted to the relations the
        fingerprint mentions.  Raises :class:`ChangeLogGap` when the log does
        not reach back that far (see :meth:`covers`)."""
        if not self.covers(fingerprint):
            raise ChangeLogGap(
                "change log does not cover the requested fingerprint "
                "(attached or trimmed after it was taken)"
            )
        _, relation_versions = fingerprint
        delta: StructureDelta = {}
        for name, since_version in relation_versions:
            net: Dict[Fact, int] = {}
            for version, op, fact in self._events.get(name, ()):
                if version <= since_version:
                    continue
                net[fact] = net.get(fact, 0) + (1 if op == "add" else -1)
            added = frozenset(fact for fact, sign in net.items() if sign > 0)
            removed = frozenset(fact for fact, sign in net.items() if sign < 0)
            if added or removed:
                delta[name] = RelationDelta(added=added, removed=removed)
        return delta

    # ------------------------------------------------------------ compaction
    def trim(self, fingerprint: Fingerprint) -> int:
        """Forget events at or before ``fingerprint`` (which no reader will
        ask about again), raising the floor accordingly.  Returns the number
        of events dropped.  Long-running streams call this with the oldest
        fingerprint any live subscription still holds."""
        _, relation_versions = fingerprint
        dropped = 0
        for name, version in relation_versions:
            if version > self._floor.get(name, 0):
                self._floor[name] = version
            events = self._events.get(name)
            if not events:
                continue
            kept = [event for event in events if event[0] > version]
            dropped += len(events) - len(kept)
            if kept:
                self._events[name] = kept
            else:
                del self._events[name]
        return dropped


def rewind(
    database: Structure, delta: StructureDelta
) -> Structure:
    """A copy of ``database`` with ``delta`` undone — the "old" side of an
    incremental recount.

    Relation contents are restored exactly.  The universe is *not* shrunk
    (``remove_fact`` never removes elements), so when the delta introduced
    new universe elements the rewound copy keeps them as isolated elements;
    :func:`repro.stream.delta.delta_applicable` guards the counting paths
    that would be affected.
    """
    old = database.copy()
    for name, relation_delta in delta.items():
        for fact in relation_delta.added:
            old.remove_fact(name, fact)
        for fact in relation_delta.removed:
            old.add_fact(name, fact)
    return old


__all__ = [
    "ChangeLog",
    "ChangeLogGap",
    "RelationDelta",
    "StructureDelta",
    "Fingerprint",
    "rewind",
]
