"""Tests for bag solutions (Lemma 48), tree automata (Definitions 49/50) and
the Lemma-52 reduction used by the Theorem-16 FPRAS."""

from __future__ import annotations

import itertools

import pytest

from repro.core.bag_solutions import assignment_key, bag_solutions
from repro.core.fpras import build_tree_automaton
from repro.core.tree_automaton import RootedTree, TreeAutomaton, _enumerate_trees
from repro.core import count_answers_exact
from repro.queries import parse_query
from repro.queries.builders import star_query
from repro.relational import Database
from repro.workloads import random_database, random_tree_query


def definition_47_solutions(query, database, bag):
    """``Sol(phi, D, B)`` by brute force over Definition 47: every
    assignment ``alpha : B -> U(D)`` such that each atom has a fact that
    agrees with ``alpha`` and gives a repeated variable one value."""
    variables = sorted(bag)
    universe = sorted(database.universe, key=repr)
    expected = set()
    for values in itertools.product(universe, repeat=len(variables)):
        alpha = dict(zip(variables, values))
        if all(_atom_extends(atom, database, alpha) for atom in query.atoms):
            expected.add(assignment_key(alpha))
    return expected


def _atom_extends(atom, database, alpha):
    for fact in database.relation(atom.relation):
        witness = dict(alpha)
        if all(witness.setdefault(v, value) == value for v, value in zip(atom.args, fact)):
            return True
    return False


def _mixed_universe_database():
    database = Database(universe=[1, 2, 3, "a", "b"])
    for fact in [(1, "a"), ("a", 2), (2, "b"), ("b", "b"), (3, 1), ("a", "a")]:
        database.add_fact("E", fact)
    return database


def _definition_47_cases():
    """(id, query, database, bag): random tree queries with empty, partial
    and full bags, a repeated variable, a universe mixing ints and strings,
    and relations without a consistent tuple."""
    cases = []
    for seed in range(6):
        query = random_tree_query(num_variables=5, num_free=2, rng=seed)
        database = random_database(
            universe_size=6,
            relations={"E": 2, "F": 2},
            facts_per_relation=12,
            rng=seed + 30,
        )
        variables = sorted(query.variables)
        for name, bag in (("empty", ()), ("partial", variables[:2]), ("full", variables)):
            cases.append((f"tree-seed{seed}-{name}", query, database, bag))
    loops = Database.from_graph_edges([(1, 2), (2, 3)])
    loops.add_fact("E", (3, 3))
    repeated = parse_query("Ans(x) :- E(x, x), E(x, y)")
    for name, bag in (("empty", ()), ("x", ["x"]), ("y", ["y"]), ("full", ["x", "y"])):
        cases.append((f"repeated-variable-{name}", repeated, loops, bag))
    mixed = _mixed_universe_database()
    for text, bag in (
        ("Ans(x, z) :- E(x, y), E(y, z)", ["x", "z"]),
        ("Ans(x, z) :- E(x, y), E(y, z)", ["x", "y", "z"]),
        ("Ans(x) :- E(x, x), E(y, x)", ["x", "y"]),
    ):
        cases.append((f"mixed-universe-{'-'.join(bag)}", parse_query(text), mixed, bag))
    loopless = Database.from_graph_edges([(1, 2), (2, 3)])
    no_loop = parse_query("Ans(x) :- E(x, y), E(y, y)")
    for name, bag in (("empty", ()), ("x", ["x"]), ("full", ["x", "y"])):
        cases.append((f"no-consistent-tuple-{name}", no_loop, loopless, bag))
    return cases


DEFINITION_47_CASES = _definition_47_cases()


@pytest.mark.parametrize(
    "query,database,bag",
    [case[1:] for case in DEFINITION_47_CASES],
    ids=[case[0] for case in DEFINITION_47_CASES],
)
def test_bag_solutions_match_definition_47(query, database, bag):
    assert bag_solutions(query, database, bag) == definition_47_solutions(
        query, database, bag
    )


class TestBagSolutions:
    def test_rejects_non_cq(self, triangle_database):
        query = parse_query("Ans(x, y) :- E(x, y), x != y")
        with pytest.raises(ValueError):
            bag_solutions(query, triangle_database, {"x"})

    def test_empty_bag(self, triangle_database):
        query = parse_query("Ans(x, y) :- E(x, y)")
        solutions = bag_solutions(query, triangle_database, set())
        assert solutions == {assignment_key({})}

    def test_empty_bag_with_empty_relation(self):
        from repro.relational import RelationSymbol, Signature

        database = Database(signature=Signature([RelationSymbol("E", 2)]), universe=[1])
        query = parse_query("Ans(x, y) :- E(x, y)")
        assert bag_solutions(query, database, set()) == set()

    def test_definition_47_reference(self, small_database):
        """Sol(phi, D, B) matches a brute-force evaluation of Definition 47."""
        query = parse_query("Ans(x) :- E(x, y), E(y, z)")
        bag = {"x", "y"}
        computed = bag_solutions(query, small_database, bag)
        assert computed == definition_47_solutions(query, small_database, bag)
        assert computed

    def test_full_bag_equals_solutions(self, triangle_database):
        from repro.core import count_solutions_exact

        query = parse_query("Ans(x, y) :- E(x, y), E(y, x)")
        full = bag_solutions(query, triangle_database, query.variables)
        assert len(full) == count_solutions_exact(query, triangle_database)

    def test_universe_past_int32_codes_is_refused(self, monkeypatch, triangle_database):
        from repro.relational import columnar

        monkeypatch.setattr(columnar, "_INT32_LIMIT", 2)
        query = parse_query("Ans(x, y) :- E(x, y)")
        with pytest.raises(ValueError, match="int32"):
            bag_solutions(query, triangle_database, {"x"})

    def test_unknown_bag_variable(self, triangle_database):
        query = parse_query("Ans(x, y) :- E(x, y)")
        with pytest.raises(ValueError):
            bag_solutions(query, triangle_database, {"nope"})


class TestTreeAutomaton:
    def _simple_automaton(self):
        """Accepts the single-node tree labelled "a" or a root labelled "a"
        with one child labelled "b"."""
        return TreeAutomaton(
            states=["s0", "s1"],
            alphabet=["a", "b"],
            transitions={
                ("s0", "a"): [(), ("s1",)],
                ("s1", "b"): [()],
            },
            initial_state="s0",
        )

    def test_accepts_single_node(self):
        automaton = self._simple_automaton()
        tree = RootedTree(root=0, children={0: ()})
        assert automaton.accepts(tree, {0: "a"})
        assert not automaton.accepts(tree, {0: "b"})

    def test_accepts_two_nodes(self):
        automaton = self._simple_automaton()
        tree = RootedTree(root=0, children={0: (1,), 1: ()})
        assert automaton.accepts(tree, {0: "a", 1: "b"})
        assert not automaton.accepts(tree, {0: "a", 1: "a"})

    def test_count_labelings_bruteforce(self):
        automaton = self._simple_automaton()
        tree = RootedTree(root=0, children={0: (1,), 1: ()})
        assert automaton.count_labelings_bruteforce(tree) == 1

    def test_count_labelings_estimator_matches_bruteforce(self):
        automaton = self._simple_automaton()
        tree = RootedTree(root=0, children={0: (1,), 1: ()})
        estimate = automaton.count_labelings(tree, epsilon=0.1, delta=0.1, rng=0)
        assert estimate == pytest.approx(1.0)

    def test_nslice_bruteforce(self):
        automaton = self._simple_automaton()
        # Size-1 slice: only the single "a" node is accepted.
        assert automaton.count_nslice_bruteforce(1) == 1
        # Size-2 slice: only root "a" with child "b".
        assert automaton.count_nslice_bruteforce(2) == 1

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            TreeAutomaton(["s"], ["a"], {}, initial_state="missing")
        with pytest.raises(ValueError):
            TreeAutomaton(["s"], ["a"], {("s", "b"): [()]}, initial_state="s")
        with pytest.raises(ValueError):
            TreeAutomaton(["s"], ["a"], {("s", "a"): [("s", "s", "s")]}, initial_state="s")

    def test_more_than_two_children_rejected(self):
        with pytest.raises(ValueError):
            RootedTree(root=0, children={0: (1, 2, 3), 1: (), 2: (), 3: ()})

    def test_enumerate_trees_counts(self):
        # Number of "at most binary, children ordered" trees on n nodes:
        # n=1: 1, n=2: 1, n=3: 2 (chain or two children).
        assert len(list(_enumerate_trees(1))) == 1
        assert len(list(_enumerate_trees(2))) == 1
        assert len(list(_enumerate_trees(3))) == 2

    def test_nondeterministic_union_counting(self):
        """An automaton whose two transitions accept overlapping languages:
        the estimator must not double-count."""
        automaton = TreeAutomaton(
            states=["s0", "a1", "a2"],
            alphabet=["r", "x", "y"],
            transitions={
                ("s0", "r"): [("a1",), ("a2",)],
                # a1 accepts {x, y}; a2 accepts {y}.  Union has size 2.
                ("a1", "x"): [()],
                ("a1", "y"): [()],
                ("a2", "y"): [()],
            },
            initial_state="s0",
        )
        tree = RootedTree(root=0, children={0: (1,), 1: ()})
        assert automaton.count_labelings_bruteforce(tree) == 2
        estimate = automaton.count_labelings(tree, epsilon=0.1, delta=0.1, rng=1)
        assert abs(estimate - 2.0) <= 0.5

    def test_sample_labeling(self):
        automaton = self._simple_automaton()
        tree = RootedTree(root=0, children={0: (1,), 1: ()})
        labeling = automaton.sample_labeling(tree, rng=2)
        assert labeling == {0: "a", 1: "b"}

    def test_sample_labeling_empty_language(self):
        automaton = self._simple_automaton()
        tree = RootedTree(root=0, children={0: (1, 2), 1: (), 2: ()})
        assert automaton.sample_labeling(tree, rng=3) is None


class TestLemma52Reduction:
    def test_bijection_with_answers(self, small_database):
        """|L(A)| over the fixed decomposition tree equals |Ans(phi, D)| —
        verified through the estimator on small instances."""
        query = parse_query("Ans(x, y) :- E(x, z), E(z, y)")
        reduction = build_tree_automaton(query, small_database)
        truth = count_answers_exact(query, small_database)
        if truth == 0:
            assert reduction.empty_language()
            return
        estimate = reduction.automaton.count_labelings(
            reduction.tree,
            epsilon=0.2,
            delta=0.1,
            rng=0,
            disjoint_union_hints=reduction.disjoint_union_hint,
        )
        assert abs(estimate - truth) <= max(0.4 * truth, 1.0)

    def test_empty_language_detected_by_estimator(self):
        """No (x, y) pair has both edge directions, so there are no answers;
        Sol(phi, D, ∅) is non-empty (each atom has a tuple in isolation), so
        the emptiness is detected by the estimator, not the root check."""
        database = Database.from_relations({"E": [(1, 2)]}, universe=[1, 2])
        query = parse_query("Ans(x) :- E(x, y), E(y, x)")
        reduction = build_tree_automaton(query, database)
        assert not reduction.empty_language()
        estimate = reduction.automaton.count_labelings(
            reduction.tree, epsilon=0.3, delta=0.2, rng=0,
            disjoint_union_hints=reduction.disjoint_union_hint,
        )
        assert estimate == 0.0

    def test_empty_language_root_check(self):
        """An empty relation makes Sol(phi, D, ∅) itself empty."""
        from repro.relational import RelationSymbol, Signature

        database = Database(signature=Signature([RelationSymbol("E", 2)]), universe=[1, 2])
        query = parse_query("Ans(x) :- E(x, y)")
        reduction = build_tree_automaton(query, database)
        assert reduction.empty_language()

    def test_rejects_non_cq(self, triangle_database):
        query = parse_query("Ans(x) :- E(x, y), x != y")
        with pytest.raises(ValueError):
            build_tree_automaton(query, triangle_database)

    def test_accepted_labelings_correspond_to_answers(self, triangle_database):
        """Sample a labelling from the automaton and check that composing its
        labels yields an actual answer (the forward direction of Lemma 52)."""
        query = star_query(2)  # 2 leaves, quantified centre
        reduction = build_tree_automaton(query, triangle_database)
        assert not reduction.empty_language()
        labeling = reduction.automaton.sample_labeling(
            reduction.tree, rng=1, disjoint_union_hints=reduction.disjoint_union_hint
        )
        assert labeling is not None
        # Each label is (node, projected assignment); compose them.
        assignment = {}
        for node, label in labeling.items():
            _, beta = label
            for variable, value in beta:
                assert assignment.get(variable, value) == value
                assignment[variable] = value
        answer = tuple(assignment[v] for v in query.free_variables)
        assert query.is_answer(answer, triangle_database)

    def test_states_and_labels_counts(self, triangle_database):
        query = parse_query("Ans(x, y) :- E(x, y)")
        reduction = build_tree_automaton(query, triangle_database)
        assert len(reduction.automaton.states) >= 1
        assert reduction.tree.size() == reduction.decomposition.num_nodes()
