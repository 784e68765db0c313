"""Differential tests: indexed engine vs. naive engine vs. brute force.

The indexed, propagation-based CSP engine must be a pure performance change:
on every instance it has to produce exactly the same solutions — and in the
same enumeration order — as the retained naive scan path, and the same counts
as the independent ``count_answers_bruteforce`` reference.  These tests sweep
seeded random workloads (CQs with disequalities and negations included) from
:mod:`repro.workloads` across all three implementations, fuzz the exact
answer search (``CSPInstance.iter_answers``) on every engine against the
brute-force ``Ans(phi, D)``, and pin which search order it picks.
"""

from __future__ import annotations

import random

import pytest

from repro.core.exact import (
    count_answers_exact,
    count_solutions_exact,
    enumerate_answers_exact,
    solution_csp,
)
from repro.queries.atoms import Atom, Disequality, NegatedAtom
from repro.queries.builders import path_query, star_query
from repro.queries.parser import parse_query
from repro.queries.query import ConjunctiveQuery
from repro.relational import (
    Constraint,
    CSPInstance,
    NotEqualConstraint,
    count_homomorphisms,
    enumerate_homomorphisms,
)
from repro.relational import columnar
from repro.relational import csp as csp_module
from repro.relational.signature import RelationSymbol, Signature
from repro.relational.structure import Structure
from repro.workloads import (
    database_from_graph,
    erdos_renyi_graph,
    random_database,
    random_tree_query,
)


def _random_workloads():
    """Seeded (query, database) pairs covering CQs, DCQs and ECQs."""
    workloads = []
    for seed in range(4):
        query = random_tree_query(
            num_variables=4,
            num_free=2,
            num_disequalities=seed % 3,
            num_negations=seed % 2,
            rng=seed,
        )
        database = random_database(
            universe_size=5,
            relations={"E": 2, "F": 2},
            facts_per_relation=10,
            rng=seed + 100,
        )
        workloads.append((f"tree-seed{seed}", query, database))
    graph_db = database_from_graph(erdos_renyi_graph(7, 0.4, rng=3))
    workloads.append(("two-hop", path_query(2, free_endpoints_only=True), graph_db))
    workloads.append(("star3-dcq", star_query(3, with_disequalities=True), graph_db))
    return workloads


WORKLOADS = _random_workloads()
IDS = [name for name, _, _ in WORKLOADS]


@pytest.mark.parametrize("name,query,database", WORKLOADS, ids=IDS)
def test_engines_agree_with_bruteforce_on_answer_counts(name, query, database):
    brute = count_answers_exact(query, database, method="bruteforce")
    naive = count_answers_exact(query, database, engine="naive")
    indexed = count_answers_exact(query, database, engine="indexed")
    assert indexed == naive == brute


@pytest.mark.parametrize("name,query,database", WORKLOADS, ids=IDS)
def test_engines_agree_on_solution_counts_and_answer_sets(name, query, database):
    assert count_solutions_exact(query, database, engine="indexed") == count_solutions_exact(
        query, database, engine="naive"
    )
    assert enumerate_answers_exact(query, database, engine="indexed") == enumerate_answers_exact(
        query, database, engine="naive"
    )


def test_engines_enumerate_homomorphisms_in_identical_order():
    source = Structure.from_graph([(0, 1), (1, 2), (2, 3)])
    target = Structure.from_graph(erdos_renyi_graph(6, 0.5, rng=5).edges())
    naive = list(enumerate_homomorphisms(source, target, engine="naive"))
    indexed = list(enumerate_homomorphisms(source, target, engine="indexed"))
    assert naive == indexed
    assert count_homomorphisms(source, target, engine="indexed") == len(naive)


def test_engines_agree_on_mixed_constraint_csp():
    for engine_pair in ({"x": {1, 2, 3}, "y": {1, 2, 3}, "z": {1, 2, 3}},):
        constraints = [
            Constraint(scope=("x", "y"), allowed=frozenset({(1, 2), (2, 3), (3, 1), (2, 2)})),
            Constraint(scope=("y", "z"), allowed=frozenset({(2, 1), (3, 3), (2, 2)})),
            NotEqualConstraint("x", "z"),
        ]
        naive = list(CSPInstance(engine_pair, constraints, engine="naive").iter_solutions())
        indexed = list(CSPInstance(engine_pair, constraints, engine="indexed").iter_solutions())
        assert naive == indexed


def test_trusted_constructor_skips_validation_but_matches_semantics():
    allowed = frozenset({(1, 2), (2, 1)})
    checked = Constraint(scope=("x", "y"), allowed=allowed)
    trusted = Constraint.trusted(("x", "y"), allowed)
    assert checked == trusted
    assert trusted.consistent_with_partial({"x": 1}) and not trusted.consistent_with_partial({"x": 3})
    # The validated path still rejects ragged tuples...
    with pytest.raises(ValueError):
        Constraint(scope=("x", "y"), allowed=frozenset({(1,)}))
    # ...while the trusted path is explicitly a no-validation fast path.
    Constraint.trusted(("x", "y"), frozenset({(1,)}))


def test_shared_relation_index_is_cached_and_invalidated():
    database = Structure.from_graph([(1, 2), (2, 3)])
    first = database.relation_index("E")
    assert database.relation_index("E") is first
    database.add_fact("E", (3, 1))
    second = database.relation_index("E")
    assert second is not first
    assert (3, 1) in second.allowed


def test_canonical_universe_cached_and_copy_shares_caches():
    database = Structure.from_graph([(1, 2), (2, 3)])
    universe = database.canonical_universe()
    assert universe == tuple(sorted(database.universe, key=repr))
    assert database.canonical_universe() is universe
    index = database.relation_index("E")
    duplicate = database.copy()
    assert duplicate == database
    assert duplicate.relation_index("E") is index
    # Mutating the copy must not leak into the original.
    duplicate.add_fact("E", (9, 9))
    assert not database.has_fact("E", (9, 9))
    assert duplicate.relation_index("E") is not index


# ------------------------------------------------- answer search (Ans(φ, D))
FUZZ_CASES = 320
FUZZ_VARIABLES = ("a", "b", "c", "d", "e")


def _fuzz_case(rng):
    """One random ECQ over ``E`` (binary), ``T`` (ternary) and ``F``
    (binary, negated only) with a database over at most 5 elements.

    Atoms draw their arguments with replacement from a small variable pool,
    so repeated variables inside one atom and cycles are common; some
    queries start from a path or cycle through the pool.  Heads are
    Boolean, all-free, a random proper subset of the variables or two
    variables two steps apart on the path."""
    pool = FUZZ_VARIABLES[: rng.randint(1, len(FUZZ_VARIABLES))]
    atoms = []
    path = len(pool) >= 3 and rng.random() < 0.4
    if path:
        # A path (or, closed, a cycle) through the pool, whose far-apart
        # free variables share no atom.
        atoms = [Atom("E", (left, right)) for left, right in zip(pool, pool[1:])]
        if rng.random() < 0.5:
            atoms.append(Atom("E", (pool[-1], pool[0])))
    for _ in range(rng.randint(0 if atoms else 1, 3)):
        relation, arity = rng.choice((("E", 2), ("E", 2), ("T", 3)))
        atoms.append(Atom(relation, tuple(rng.choice(pool) for _ in range(arity))))
    used = sorted({v for atom in atoms for v in atom.args})
    negated = []
    for _ in range(rng.choice((0, 0, 1, 2))):
        # A negated atom may introduce a variable no positive atom covers.
        negated.append(NegatedAtom("F", (rng.choice(used), rng.choice(pool))))
    occurring = sorted(set(used) | {v for atom in negated for v in atom.args})
    disequalities = []
    if len(occurring) >= 2:
        for _ in range(rng.choice((0, 0, 1, 2))):
            left, right = rng.sample(occurring, 2)
            disequalities.append(Disequality(left, right))
    head = rng.choice(("boolean", "all", "proper", "proper", "apart"))
    if head == "apart" and path:
        # Two variables two steps apart on the path (adjacent only when a
        # 3-cycle closes it).
        free = [pool[0], pool[2]]
    elif head == "boolean":
        free = []
    elif head == "all":
        free = list(occurring)
    else:
        free = rng.sample(occurring, rng.randint(1, max(1, len(occurring) - 1)))
    query = ConjunctiveQuery(free, atoms, negated, disequalities)

    size = rng.randint(1, 5)
    database = Structure(
        Signature.from_arities({"E": 2, "T": 3, "F": 2}), universe=range(size)
    )
    for relation, arity, facts in (("E", 2, 14), ("T", 3, 20), ("F", 2, 6)):
        for _ in range(rng.randint(0, facts)):
            database.add_fact(relation, tuple(rng.randrange(size) for _ in range(arity)))
    return query, database


def test_answer_search_agrees_with_bruteforce_on_fuzzed_queries():
    """Every exact answer count and answer set equals the brute-force
    Ans(φ, D) on every engine; iter_answers never repeats an answer, and the
    indexed and columnar engines yield the same answer sequence.  The
    indexed and columnar engines share one search, so their solution order
    is also checked against the naive engine's separate search: the same
    ``iter_solutions()`` sequence, and ``limit=k`` yields its first k
    solutions, on all three engines."""
    rng = random.Random(20)
    mismatches = []
    for case in range(FUZZ_CASES):
        query, database = _fuzz_case(rng)
        expected = query.answers(database)
        sequences = {}
        solutions = {}
        for engine in ("naive", "indexed", "columnar"):
            count = count_answers_exact(query, database, engine=engine)
            answers = enumerate_answers_exact(query, database, engine=engine)
            csp = solution_csp(query, database, engine=engine)
            sequence = list(csp.iter_answers(query.free_variables))
            sequences[engine] = sequence
            solutions[engine] = list(csp.iter_solutions())
            for k in (1, 2, 3):
                if list(csp.iter_solutions(limit=k)) != solutions[engine][:k]:
                    mismatches.append(f"case {case} {engine}: limit={k} prefix for {query}")
            if count != len(expected) or answers != expected:
                mismatches.append(f"case {case} {engine}: {query} -> {count}, want {len(expected)}")
            if len(set(sequence)) != len(sequence) or set(sequence) != expected:
                mismatches.append(f"case {case} {engine}: iter_answers {sequence} for {query}")
        if sequences["indexed"] != sequences["columnar"]:
            mismatches.append(f"case {case}: indexed and columnar order differ for {query}")
        if not solutions["naive"] == solutions["indexed"] == solutions["columnar"]:
            mismatches.append(f"case {case}: solution orders differ for {query}")
    assert not mismatches, "\n".join(mismatches[:10])


def test_repeated_existential_variable_needs_both_positions():
    """``R(a, x, x)`` holds only if a row repeats its last two values; a
    shortcut that counted distinct variables instead of positions answered 1
    here."""
    query = parse_query("Ans(a) :- R(a, x, x)")
    database = Structure(
        Signature.from_arities({"R": 3}), relations={"R": [(1, 1, 2), (1, 2, 1)]}
    )
    assert query.answers(database) == set()
    for engine in ("naive", "indexed", "columnar"):
        assert count_answers_exact(query, database, engine=engine) == 0
        assert enumerate_answers_exact(query, database, engine=engine) == set()


def test_forward_check_narrows_by_position_on_both_branches():
    """Search order is z, y, x, w.  Assigning z leaves 24-48 rows of the
    ternary table: more than four times y's four-value domain (the
    ``isdisjoint`` filter) and at most four times x's (the intersection of
    the rows' values).  Either branch reading the wrong position, or keeping
    the wrong side of the filter, drops solutions; every engine must list
    the rows a scan of the table finds, in the naive engine's order."""
    rows = frozenset(
        (x, y, z)
        for z in range(3)
        for x in range(24)
        for y in (x % 5, (x + z) % 7)
        if (x + y + z) % 3
    )
    links = frozenset({(1, 2), (2, 5), (4, 1), (6, 0)})
    expected = {
        (x, y, z, w)
        for x, y, z in rows
        for linked, w in links
        if linked == y and x != w
    }

    def instance(engine):
        domains = {variable: set(range(30)) for variable in ("x", "y", "z", "w")}
        constraints = [
            Constraint(scope=("x", "y", "z"), allowed=rows),
            Constraint(scope=("y", "w"), allowed=links),
            NotEqualConstraint("x", "w"),
        ]
        return CSPInstance(domains, constraints, engine=engine)

    orders = {}
    for engine in ("naive", "indexed", "columnar"):
        csp = instance(engine)
        assert csp.search_order() == ["z", "y", "x", "w"]
        solutions = [dict(solution) for solution in csp.iter_solutions()]
        found = [tuple(s[v] for v in ("x", "y", "z", "w")) for s in solutions]
        assert len(set(found)) == len(found) and set(found) == expected, engine
        for k in (1, 5, 20):
            assert list(csp.iter_solutions(limit=k)) == solutions[:k], (engine, k)
        orders[engine] = solutions
    assert orders["naive"] == orders["indexed"] == orders["columnar"]


FREE_FIRST_SHAPES = (
    "Ans() :- E(x, y), E(y, z), E(z, x)",
    "Ans(x) :- E(x, y), E(y, x)",
    "Ans(x) :- E(x, y), E(x, z), y != z",
    "Ans(x, y) :- E(x, y)",
)
MIN_FILL_SHAPES = (
    "Ans(x, y) :- E(x, z), E(z, y)",
    "Ans(x, z) :- E(x, y), E(y, z), x != z",
    "Ans(x, w) :- E(x, y), E(y, z), E(z, w)",
    "Ans(x, u) :- E(x, y), E(y, z), G(u, v)",
)


def _order_database():
    return Structure(
        Signature.from_arities({"E": 2, "G": 2}),
        relations={"E": [(0, 1), (1, 0)], "G": [(0, 1)]},
    )


@pytest.mark.parametrize("text", FREE_FIRST_SHAPES)
def test_linked_free_variables_are_searched_first(text):
    query = parse_query(text)
    csp = solution_csp(query, _order_database())
    free = query.free_variables
    order, cut = csp._answer_order(free)
    assert cut == len(free)
    assert set(order[:cut]) == set(free)
    if not free:
        assert order == csp.search_order()


@pytest.mark.parametrize("text", MIN_FILL_SHAPES)
def test_free_variables_sharing_no_atom_keep_the_min_fill_order(text):
    """Putting such free variables first walks their cross product (33x
    slower on a sparse 3-path), so the answer search keeps min-fill and
    deduplicates."""
    query = parse_query(text)
    csp = solution_csp(query, _order_database())
    free = query.free_variables
    order, cut = csp._answer_order(free)
    assert order == csp.search_order()
    assert cut == 1 + max(order.index(v) for v in free)
    assert cut > len(free)


# ------------------------------------ answer counts by join–project elimination
@pytest.fixture
def eliminations(monkeypatch):
    """Every result of ``_count_by_elimination`` in the test (``None``: the
    count fell back to the answer search)."""
    results = []
    original = CSPInstance._count_by_elimination

    def spy(self, free):
        result = original(self, free)
        results.append(result)
        return result

    monkeypatch.setattr(CSPInstance, "_count_by_elimination", spy)
    return results


def _elimination_database():
    """G(8, 0.3) as a symmetric ``E``; ``G`` and a functional ``F`` over
    the same vertices; an empty ``H``; two isolated universe values."""
    database = database_from_graph(erdos_renyi_graph(8, 0.3, rng=0))
    for name in ("F", "G", "H"):
        database.add_relation(RelationSymbol(name, 2))
    for vertex in range(8):
        database.add_fact("F", (vertex, (3 * vertex + 1) % 8))
    for fact in ((0, 5), (2, 5), (2, 6), (7, 1)):
        database.add_fact("G", fact)
    database.add_element("isolated-a")
    database.add_element("isolated-b")
    return database


#: Queries with no existential variable: the search has no first witness
#: to stop at and walks one leaf per answer.
ALL_FREE_SHAPES = (
    "Ans(x, y) :- E(x, y)",
    "Ans(x, y, z) :- E(x, y), E(y, z), E(z, x)",
)
#: Boolean, or existential variables below a free-first cut: the search
#: stops every subtree at its first witness, so it keeps the count.
SEARCHED_SHAPES = (
    "Ans() :- E(x, y), E(y, z), E(z, x)",
    "Ans(x) :- E(x, y), E(y, x)",
    "Ans(x) :- E(x, y), E(x, z), y != z",
)


@pytest.mark.parametrize("text", MIN_FILL_SHAPES + ALL_FREE_SHAPES + SEARCHED_SHAPES)
def test_columnar_count_eliminates_the_min_fill_and_all_free_shapes(text, eliminations):
    """Elimination runs where the search would walk one leaf per answer:
    free variables that do not all share tables (the search cuts below
    them), or no existential variable at all."""
    query = parse_query(text)
    database = _elimination_database()
    count = count_answers_exact(query, database, engine="columnar")
    assert count == count_answers_exact(query, database, engine="indexed")
    assert count == len(query.answers(database))
    assert eliminations == ([] if text in SEARCHED_SHAPES else [count])


#: Shapes the columnar count eliminates, with their counts on
#: ``_elimination_database()`` (where the 2-hop has 40 answers and
#: ``Ans(x, y) :- E(x, z), E(y, w)`` has 64).
ELIMINATED_COUNTS = {
    # A disequality and a negated atom inside an eliminated bucket.
    "Ans(x, y) :- E(x, z), E(y, w), z != w": 61,
    "Ans(x, y) :- E(x, z), E(z, y), !F(z, y)": 36,
    # Free variables linked only by a disequality.
    "Ans(x, y) :- E(x, z), G(y, w), x != y": 21,
    # A variable that occurs only in a disequality: existential u, free y
    # (which ranges over the two isolated values too).
    "Ans(x, y) :- E(x, z), E(z, y), z != u": 40,
    "Ans(x, y) :- E(x, z), y != z": 77,
    # An empty relation, positive and negated.
    "Ans(x, y) :- E(x, z), H(z, y)": 0,
    "Ans(x, y) :- E(x, z), E(z, y), !H(x, y)": 40,
    # Two groups of free variables that nothing links.
    "Ans(x, u) :- E(x, y), E(y, z), G(u, v)": 24,
    # All free: unlinked groups multiply (the search walks their product).
    "Ans(x, y, u, v) :- E(x, y), G(u, v)": 72,
    # All free, with a negated atom or a disequality over the atom's row.
    "Ans(x, y) :- E(x, y), !F(x, y)": 16,
    "Ans(x, y) :- E(x, y), x != y": 18,
    # All free, u only in a disequality: it ranges over the universe.
    "Ans(x, y, u) :- E(x, y), x != u": 162,
}


@pytest.mark.parametrize("text", ELIMINATED_COUNTS)
def test_eliminated_counts_match_the_search_and_bruteforce(text, eliminations):
    query = parse_query(text)
    database = _elimination_database()
    count = count_answers_exact(query, database, engine="columnar")
    assert eliminations == [count] == [ELIMINATED_COUNTS[text]]
    assert count == count_answers_exact(query, database, engine="indexed")
    assert count == count_answers_exact(query, database, engine="naive")
    assert count == len(query.answers(database))


def test_elimination_agrees_with_bruteforce_on_every_fuzzed_query():
    """The count path runs on the fuzz's min-fill cases only; run the
    elimination itself on all of them (Boolean, single- and all-free heads
    included)."""
    rng = random.Random(20)
    mismatches = []
    for case in range(FUZZ_CASES):
        query, database = _fuzz_case(rng)
        csp = solution_csp(query, database, engine="columnar")
        count = csp._count_by_elimination(tuple(query.free_variables))
        if count != len(query.answers(database)):
            mismatches.append(f"case {case}: {query} -> {count}")
    assert not mismatches, "\n".join(mismatches[:10])


def test_unlinked_free_variable_groups_multiply_their_counts():
    database = _elimination_database()
    both = parse_query("Ans(x, u) :- E(x, y), E(y, z), G(u, v)")
    left = parse_query("Ans(x) :- E(x, y), E(y, z)")
    right = parse_query("Ans(u) :- G(u, v)")
    assert count_answers_exact(both, database, engine="columnar") == (
        count_answers_exact(left, database, engine="columnar")
        * count_answers_exact(right, database, engine="columnar")
    )


def test_a_join_over_the_row_limit_counts_the_search(monkeypatch, eliminations):
    monkeypatch.setattr(csp_module, "_ELIMINATION_ROW_LIMIT", 0)
    query = parse_query(MIN_FILL_SHAPES[0])
    database = _elimination_database()
    count = count_answers_exact(query, database, engine="columnar")
    assert eliminations == [None]
    assert count == count_answers_exact(query, database, engine="indexed") > 0


def test_past_int32_codes_the_count_is_the_search(monkeypatch, eliminations):
    monkeypatch.setattr(columnar, "_INT32_LIMIT", 2)
    query = parse_query(MIN_FILL_SHAPES[0])
    database = _elimination_database()
    count = count_answers_exact(query, database, engine="columnar")
    assert eliminations == [None]
    assert count == count_answers_exact(query, database, engine="indexed") > 0


#: Exact counts on G(120, 1250) seed 5, the served large-exact database.
SCALE_COUNTS = {
    "Ans(x, y) :- E(x, z), E(z, y)": 14_034,
    "Ans(x, w) :- E(x, y), E(y, z), E(z, w)": 14_400,
    "Ans(x, z) :- E(x, y), E(y, z), x != z": 13_914,
    "Ans(x, y) :- E(x, y)": 2_500,
    "Ans(x) :- E(x, y), E(y, x)": 120,
    "Ans() :- E(x, y), E(y, z), E(z, x)": 1,
}


def test_columnar_counts_equal_indexed_at_scale():
    import networkx as nx

    database = database_from_graph(nx.gnm_random_graph(120, 1250, seed=5))
    for text, expected in SCALE_COUNTS.items():
        query = parse_query(text)
        assert count_answers_exact(query, database, engine="columnar") == expected, text
        assert count_answers_exact(query, database, engine="indexed") == expected, text


def test_packed_keys_past_sixteen_bit_codes_are_int64(eliminations):
    """70,001 values, so projected pairs pack past 2**32.  The rows
    (100, 14059) and (61455, 70000) pack to keys exactly 2**32 apart
    (61355 * 70001 + 55941 == 2**32): 32-bit keys would merge two of the
    four answers."""
    values = [f"v{code:05d}" for code in range(70_001)]  # codes = positions
    a, b, hub, c, f = (values[code] for code in (100, 61_455, 5, 14_059, 70_000))
    database = Structure(
        Signature.from_arities({"E": 2}),
        universe=values,
        relations={"E": [(a, hub), (b, hub), (hub, c), (hub, f)]},
    )
    query = parse_query(MIN_FILL_SHAPES[0])
    assert count_answers_exact(query, database, engine="columnar") == 4
    assert eliminations == [4]
    assert count_answers_exact(query, database, engine="indexed") == 4


def test_an_empty_domain_that_no_constraint_mentions_leaves_no_answers(eliminations):
    table = frozenset({(1, 2), (2, 1)})
    csp = CSPInstance(
        {"x": {1, 2}, "y": {1, 2}, "z": {1, 2}, "u": set()},
        [Constraint(("x", "z"), table), Constraint(("z", "y"), table)],
        engine="columnar",
    )
    assert list(csp.iter_answers(("x", "y"))) == []
    assert csp.count_answers(("x", "y")) == 0
    assert eliminations == [0]
