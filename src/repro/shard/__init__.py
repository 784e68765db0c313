"""`repro.shard`: horizontally sharded databases with shard-parallel counting.

The package partitions a database's facts across ``N`` shards and counts
query answers against the shards instead of a monolith:

* :mod:`~repro.shard.partition` — deterministic fact placement
  (:class:`HashTuplePartitioner` spreads tuples, :class:`ByRelationPartitioner`
  keeps relations whole);
* :class:`~repro.shard.sharded.ShardedStructure` — one logical database over
  ``N`` physical :class:`~repro.relational.structure.Structure` shards, with
  the monolith's mutation API and cache-key semantics
  (``structure_token`` / ``version_fingerprint``);
* :mod:`~repro.shard.plan` — the count decomposition: route localising
  queries to their owning shard (bit-identical, seed passed through), combine
  per-shard component counts by product (each component at the tighter
  per-component accuracy that keeps the product's ``(epsilon, delta)``), or
  rewrite shard-spanning queries as a union of CQs for the Section-6
  Karp–Luby machinery;
* :mod:`~repro.shard.executor` — the fan-out helpers the service's staged
  pipeline calls: per-shard tasks for its serial / thread / process
  back-ends with deterministic per-shard seeds, the product fan-in with
  the merged-view recount of a dead shard, and the inline union/merged
  count;
* :class:`~repro.shard.subscription.ShardSubscription` — the live-count
  subscription core with a sharded refresh body: stream deltas route to the
  owning shard, so only touched shards recount.

``CountingService`` accepts a ``ShardedStructure`` anywhere a database goes;
the CLI's ``batch --shards N`` and ``benchmarks/record_perf.py --suite
shard`` drive the layer end-to-end.  See DESIGN.md ("The shard layer").
"""

from repro.queries.components import query_components
from repro.shard.executor import shard_task_seed
from repro.shard.partition import (
    PARTITIONER_KINDS,
    ByRelationPartitioner,
    HashTuplePartitioner,
    Partitioner,
    make_partitioner,
    stable_hash,
)
from repro.shard.plan import (
    MAX_UNION_COMPONENTS,
    ShardCountPlan,
    ShardTask,
    UnionDecomposition,
    build_union_decomposition,
    plan_sharded_count,
)
from repro.shard.sharded import ShardedStructure


def __getattr__(name: str):
    # Lazy: ShardSubscription subclasses repro.stream.live.CountSubscription,
    # and importing repro.stream runs its package __init__, which imports the
    # service layer — which itself imports this package at module load.
    # Deferring the subscription import keeps the cycle open
    # (``from repro.shard import ShardSubscription`` still works).
    if name == "ShardSubscription":
        from repro.shard.subscription import ShardSubscription

        return ShardSubscription
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ShardedStructure",
    "Partitioner",
    "HashTuplePartitioner",
    "ByRelationPartitioner",
    "make_partitioner",
    "stable_hash",
    "PARTITIONER_KINDS",
    "ShardCountPlan",
    "ShardTask",
    "UnionDecomposition",
    "plan_sharded_count",
    "query_components",
    "build_union_decomposition",
    "MAX_UNION_COMPONENTS",
    "shard_task_seed",
    "ShardSubscription",
]
