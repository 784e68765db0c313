"""Shard-aware count planning: decompose ``|Ans(phi, D)|`` over shards.

Three strategies, tried in order:

**single** — every connected component of the query localises to one common
shard (with by-relation partitioning this covers every query whose relations
all live together).  The whole query is routed to that shard unchanged, with
the caller's seed passed through untouched: the shard carries the full
universe and the full content of every relation the query mentions, so the
scheme run is *bit-identical* to the unsharded one — exact counts and
approximate estimates alike.

**local** — components localise, but to different shards.  Because distinct
connected components share no variables, ``Ans(phi, D)`` factorises as the
product of the per-component answer sets (a component without free variables
contributes factor 1 or 0 — its boolean satisfiability); each component is
counted on its owning shard as an independent task, fanned across the
service executor's back-ends with deterministic ``derive_seed(seed, shard,
component)`` seeds.  Exact per-component counts make the product bit-identical
to the unsharded count; approximate products are reproducible from the seed
and keep the caller's ``(epsilon, delta)`` guarantee, because each of the
``c`` components runs at the tighter :meth:`ShardCountPlan.task_budget`.

**union** — some component's relations are split across shards (the normal
state under hash-by-tuple partitioning).  Shards partition facts, so every
*solution* assigns each positive atom's fact to exactly one shard: writing
``R@s`` for shard ``s``'s slice of ``R``,

    ``Ans(phi, D)  =  ⋃_f Ans(phi_f, D')``

where ``f`` ranges over assignments of positive atoms to (fact-bearing)
shards, ``phi_f`` rewrites each positive atom ``R(x̄)`` to ``R@f(atom)(x̄)``,
and the tagged database ``D'`` holds every slice plus the **full** content of
each negated relation (negation must see the whole relation).  This is
exactly the union-of-CQs setting of Section 6: exact counts come from
:func:`repro.unions.karp_luby.exact_count_union` (bit-identical by the
identity above), estimates from the registry's ``union_karp_luby`` scheme.
Past :data:`MAX_UNION_COMPONENTS` the plan degrades to **merged** (count the
reassembled monolith — correct, just not shard-parallel).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.registry import EXACT_SCHEMES
from repro.queries.atoms import Atom
from repro.queries.canonical import query_relation_names
from repro.queries.components import query_components
from repro.queries.query import ConjunctiveQuery
from repro.relational.signature import RelationSymbol
from repro.relational.structure import Structure
from repro.shard.sharded import ShardedStructure
from repro.util.estimation import Budget

#: Union decompositions larger than this degrade to the merged fallback
#: (``shards ** atoms`` grows fast; the cap keeps planning predictable).
MAX_UNION_COMPONENTS = 256


# ----------------------------------------------------------------------- plans
@dataclass(frozen=True)
class ShardTask:
    """One per-shard unit of work of a ``local`` (or ``single``) plan."""

    shard: int
    component: int
    query: ConjunctiveQuery
    #: Seed derivation relative to the request seed: ``None`` passes the
    #: request seed through unchanged (single-strategy plans); ``(shard,
    #: component)`` derives a child seed via ``derive_seed``.
    seed_path: Optional[Tuple[int, int]]


@dataclass(frozen=True)
class UnionDecomposition:
    """The tagged database and per-shard-restriction queries of a union plan.

    An empty ``queries`` tuple means some positive atom's relation holds no
    facts anywhere — the count is zero without running anything.
    """

    tagged: Structure
    queries: Tuple[ConjunctiveQuery, ...]


@dataclass(frozen=True)
class ShardCountPlan:
    """How a sharded count will be computed.

    ``strategy`` is ``"single"`` | ``"local"`` | ``"union"`` | ``"merged"``.
    ``tasks`` is populated for single/local (single has exactly one task
    covering the whole query), ``union`` for union plans; merged plans carry
    neither (the executor counts ``sharded.merged()``).
    """

    strategy: str
    num_components: int
    tasks: Tuple[ShardTask, ...] = ()
    union: Optional[UnionDecomposition] = None
    trace: Tuple[str, ...] = field(default_factory=tuple)

    @property
    def shards_involved(self) -> Tuple[int, ...]:
        return tuple(sorted({task.shard for task in self.tasks}))

    def task_budget(self, scheme: str, budget: Budget) -> Budget:
        """The budget each task runs at: the tasks' estimates multiply, so
        an approximate scheme splits ``budget`` with :meth:`Budget.product`
        (a one-task plan keeps it); an exact scheme spends none."""
        return budget if scheme in EXACT_SCHEMES else budget.product(len(self.tasks))


def _tagged_relation_name(relation: str, shard: int) -> str:
    # "@" cannot occur in parsed relation names, so slice names never collide
    # with user relations.
    return f"{relation}@s{shard}"


def build_union_decomposition(
    query: ConjunctiveQuery, sharded: ShardedStructure
) -> Optional[UnionDecomposition]:
    """The union-of-CQs rewriting of ``query`` over ``sharded`` (see module
    docstring), or ``None`` when it would exceed :data:`MAX_UNION_COMPONENTS`."""
    atom_choices: List[List[int]] = []
    for atom in query.atoms:
        counts = sharded.relation_shard_counts(atom.relation)
        bearing = [index for index, count in enumerate(counts) if count > 0]
        if not bearing:
            return UnionDecomposition(tagged=Structure(), queries=())
        atom_choices.append(bearing)

    total = 1
    for choices in atom_choices:
        total *= len(choices)
        if total > MAX_UNION_COMPONENTS:
            return None

    tagged = Structure(universe=sharded.universe)
    for name in sorted({atom.relation for atom in query.atoms}):
        arity = sharded.signature.get(name).arity
        for shard_index, shard in enumerate(sharded.shards):
            slice_name = _tagged_relation_name(name, shard_index)
            tagged.add_relation(RelationSymbol(slice_name, arity))
            for fact in shard.relation(name):
                tagged.add_fact(slice_name, fact)
    for name in sorted({atom.relation for atom in query.negated_atoms}):
        # Negated atoms read the full relation: ship it whole, under its own
        # name (a relation may appear both positively and negated; the slices
        # above and the full copy here coexist under different names).
        tagged.add_relation(sharded.signature.get(name))
        for fact in sharded.relation(name):
            tagged.add_fact(name, fact)

    queries = []
    for assignment in itertools.product(*atom_choices):
        atoms = [
            Atom(_tagged_relation_name(atom.relation, shard), atom.args)
            for atom, shard in zip(query.atoms, assignment)
        ]
        queries.append(
            ConjunctiveQuery(
                free_variables=query.free_variables,
                atoms=atoms,
                negated_atoms=query.negated_atoms,
                disequalities=query.disequalities,
                existential_variables=query.existential_variables,
            )
        )
    return UnionDecomposition(tagged=tagged, queries=tuple(queries))


def plan_sharded_count(query: ConjunctiveQuery, sharded: ShardedStructure) -> ShardCountPlan:
    """Choose the sharded counting strategy for ``query`` over ``sharded``."""
    components = query_components(query)
    owners = [sharded.owner_shards(query_relation_names(component)) for component in components]

    if all(owners):
        common = frozenset(range(sharded.num_shards))
        for owner_set in owners:
            common &= owner_set
        if common:
            shard = min(common)
            return ShardCountPlan(
                strategy="single",
                num_components=len(components),
                tasks=(ShardTask(shard=shard, component=0, query=query, seed_path=None),),
                trace=(
                    f"{len(components)} component(s), all localising to shard "
                    f"{shard}: whole query routed there (seed passed through; "
                    "bit-identical to the unsharded run)",
                ),
            )
        tasks = tuple(
            ShardTask(
                shard=min(owner_set),
                component=index,
                query=component,
                seed_path=(min(owner_set), index),
            )
            for index, (component, owner_set) in enumerate(zip(components, owners))
        )
        return ShardCountPlan(
            strategy="local",
            num_components=len(components),
            tasks=tasks,
            trace=(
                f"{len(components)} components localise to shards "
                f"{tuple(sorted({t.shard for t in tasks}))}: independent "
                "per-shard counts combined by product",
            ),
        )

    union = build_union_decomposition(query, sharded)
    if union is not None:
        return ShardCountPlan(
            strategy="union",
            num_components=len(components),
            union=union,
            trace=(
                "answers span shards: per-shard restrictions form a union of "
                f"{len(union.queries)} CQs over the tagged database "
                "(Section-6 Karp–Luby machinery)",
            ),
        )
    return ShardCountPlan(
        strategy="merged",
        num_components=len(components),
        trace=(
            f"union decomposition exceeds {MAX_UNION_COMPONENTS} components; "
            "falling back to a count over the reassembled monolith",
        ),
    )
