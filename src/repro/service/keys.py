"""The database side of a result-cache key.

:func:`database_cache_key` pairs the database's identity token with the
version counters of exactly the relations the query mentions (plus the
universe version).  Mutating a relation bumps its counter and silently
strands every cached entry built over the old contents; mutating a relation
the query does not mention leaves the query's keys valid.  The query side,
the canonical query form, lives in :mod:`repro.queries.canonical`.
"""

from __future__ import annotations

from typing import Tuple

from repro.queries.canonical import query_relation_names
from repro.queries.query import ConjunctiveQuery
from repro.relational.structure import Structure


def database_cache_key(
    database: Structure, query: ConjunctiveQuery
) -> Tuple[int, Tuple[int, Tuple[Tuple[str, int], ...]]]:
    """The database component of a result-cache key: identity token plus the
    version fingerprint restricted to the query's relations."""
    return (
        database.structure_token,
        database.version_fingerprint(query_relation_names(query)),
    )
