"""Regression tests for the Theorem-16 estimator and sampler
(:mod:`repro.core.tree_automaton`): golden estimates and samples that pin the
exact random draws, the memoised acceptance test against a bottom-up
reference, and the counter of biased fallback samples."""

from __future__ import annotations

import itertools

import networkx as nx
import numpy as np
import pytest

from repro.core import REGISTRY
from repro.core.fpras import build_tree_automaton, fpras_count_cq
from repro.core.tree_automaton import RootedTree, TreeAutomaton, _enumerate_trees
from repro.queries import parse_query
from repro.queries.builders import star_query
from repro.relational import Database
from repro.workloads import database_from_graph

TWO_HOP = "Ans(x, y) :- E(x, z), E(z, y)"
THREE_PATH = "Ans(x, w) :- E(x, y), E(y, z), E(z, w)"
CHAIN = RootedTree(root=0, children={0: (1,), 1: ()})


@pytest.fixture(scope="module")
def gnm_database():
    """G(7, 9) with generator seed 3: the serving benchmark's approximate
    workload database."""
    return database_from_graph(nx.gnm_random_graph(7, 9, seed=3))


def _answer(query, labeling):
    """The answer an accepted Lemma-52 labelling encodes."""
    assignment = {}
    for _, (_, beta) in labeling.items():
        assignment.update(dict(beta))
    return tuple(assignment[variable] for variable in query.free_variables)


def _simple_automaton():
    return TreeAutomaton(
        states=["s0", "s1"],
        alphabet=["a", "b"],
        transitions={("s0", "a"): [(), ("s1",)], ("s1", "b"): [()]},
        initial_state="s0",
    )


def _overlapping_automaton(second_language):
    """Root ``r`` with two one-child targets: ``a1`` accepts {x, y}, ``a2``
    accepts ``second_language``."""
    transitions = {
        ("s0", "r"): [("a1",), ("a2",)],
        ("a1", "x"): [()],
        ("a1", "y"): [()],
    }
    for label in second_language:
        transitions[("a2", label)] = [()]
    return TreeAutomaton(
        states=["s0", "a1", "a2"],
        alphabet=["r", "x", "y"],
        transitions=transitions,
        initial_state="s0",
    )


# Recorded before the estimator's draws became table-driven; any change to the
# draw sequence or the order of the estimator's work moves them.
GOLDEN_ESTIMATES = {
    TWO_HOP: [36.8125, 41.03125, 37.59375, 35.5625, 36.34375],
    THREE_PATH: [
        40.90478515625,
        39.23046875,
        44.647216796875,
        48.324951171875,
        40.29443359375,
    ],
}
GOLDEN_SAMPLES = {
    TWO_HOP: [(3, 4), (6, 2), (3, 1), (3, 6), (6, 6)],
    THREE_PATH: [(6, 2), (0, 5), (6, 5), (1, 5), (6, 3)],
}


class TestGoldenDraws:
    @pytest.mark.parametrize("text", [TWO_HOP, THREE_PATH])
    def test_fpras_estimates(self, gnm_database, text):
        query = parse_query(text)
        results = [
            fpras_count_cq(
                query, gnm_database, epsilon=0.5, delta=0.25, rng=seed, return_result=True
            )
            for seed in range(1000, 1005)
        ]
        assert [result.estimate for result in results] == GOLDEN_ESTIMATES[text]
        # The rejection sampler never needed its biased fallback here.
        assert [result.fallback_samples for result in results] == [0] * 5

    @pytest.mark.parametrize("text", [TWO_HOP, THREE_PATH])
    def test_reduction_samples(self, gnm_database, text):
        query = parse_query(text)
        reduction = build_tree_automaton(query, gnm_database)
        answers = []
        for seed in range(5):
            labeling = reduction.automaton.sample_labeling(
                reduction.tree,
                epsilon=0.5,
                delta=0.25,
                rng=seed,
                disjoint_union_hints=reduction.disjoint_union_hint,
            )
            assert reduction.automaton.accepts(reduction.tree, labeling)
            answers.append(_answer(query, labeling))
        assert answers == GOLDEN_SAMPLES[text]

    def test_fixture_automata_samples(self):
        simple = _simple_automaton()
        assert [simple.sample_labeling(CHAIN, rng=seed) for seed in range(5)] == [
            {0: "a", 1: "b"}
        ] * 5
        union = _overlapping_automaton("y")
        children = [union.sample_labeling(CHAIN, rng=seed)[1] for seed in range(8)]
        assert children == ["y", "x", "y", "y", "x", "y", "x", "y"]
        estimates = [
            union.count_labelings(CHAIN, epsilon=0.1, delta=0.1, rng=seed) for seed in range(3)
        ]
        assert estimates == [2.0025, 2.05, 1.9699999999999998]

    def test_star_reduction_samples(self):
        database = Database.from_graph_edges([(1, 2), (2, 3), (1, 3)])
        query = star_query(2)
        reduction = build_tree_automaton(query, database)
        answers = [
            _answer(
                query,
                reduction.automaton.sample_labeling(
                    reduction.tree, rng=seed, disjoint_union_hints=reduction.disjoint_union_hint
                ),
            )
            for seed in range(5)
        ]
        assert answers == [(1, 1), (1, 1), (1, 3), (2, 1), (3, 2)]


class TestFallbackCounter:
    def test_identical_target_languages_force_fallbacks(self):
        """Both targets accept exactly {x, y}, so a draw of the second target is
        always rejected (the first owns every element); with one attempt per
        sample, each such draw is returned anyway and counted."""
        automaton = _overlapping_automaton("xy")
        estimator = automaton.language_estimator(CHAIN, epsilon=0.3, delta=0.2, rng=4)
        assert estimator.count() > 0
        assert estimator.fallback_samples == 0
        draws = 40
        samples = [estimator.sample(0, "s0", max_attempts=1) for _ in range(draws)]
        assert all(automaton.accepts(CHAIN, sample) for sample in samples)
        assert 0 < estimator.fallback_samples < draws

    def test_enough_attempts_avoid_fallbacks(self):
        automaton = _overlapping_automaton("xy")
        estimator = automaton.language_estimator(CHAIN, epsilon=0.3, delta=0.2, rng=4)
        for _ in range(40):
            estimator.sample(0, "s0")
        assert estimator.fallback_samples == 0

    def test_trace_reports_fallbacks(self, gnm_database):
        result = REGISTRY.count(
            "fpras_cq", parse_query(TWO_HOP), gnm_database, epsilon=0.5, delta=0.25, rng=1000
        )
        assert any("0 fallback samples" in line for line in result.trace)


def _random_automaton(seed):
    rng = np.random.default_rng(seed)
    states = [f"s{i}" for i in range(int(rng.integers(2, 5)))]
    alphabet = ["a", "b", "c"][: int(rng.integers(2, 4))]
    transitions = {}
    for state in states:
        for label in alphabet:
            if rng.random() < 0.3:
                continue
            # Up to three targets, each of a uniformly random arity.
            transitions[(state, label)] = [
                tuple(states[int(i)] for i in rng.integers(0, len(states), size=arity))
                for arity in rng.integers(0, 3, size=int(rng.integers(1, 4)))
            ]
    return TreeAutomaton(states, alphabet, transitions, initial_state=states[0])


def _accepts_bottom_up(automaton, tree, labeling):
    """Reference acceptance: the set of viable states of every node, computed
    from the leaves up."""
    viable = {}
    for node in tree.bottom_up():
        kids = tree.children_of(node)
        viable[node] = {
            state
            for state in automaton.states
            if any(
                len(target) == len(kids)
                and all(s in viable[kid] for kid, s in zip(kids, target))
                for target in automaton.targets(state, labeling[node])
            )
        }
    return automaton.initial_state in viable[tree.root]


def test_accepts_matches_bottom_up_reference():
    """On every tree of up to four nodes and every labelling, the memoised
    top-down acceptance test agrees with the bottom-up reference."""
    nontrivial = 0
    for seed in range(16):
        automaton = _random_automaton(seed)
        alphabet = sorted(automaton.alphabet)
        verdicts = set()
        for size in range(1, 5):
            for tree in _enumerate_trees(size):
                nodes = tree.nodes()
                for labels in itertools.product(alphabet, repeat=len(nodes)):
                    labeling = dict(zip(nodes, labels))
                    expected = _accepts_bottom_up(automaton, tree, labeling)
                    assert automaton.accepts(tree, labeling) == expected
                    verdicts.add(expected)
        nontrivial += verdicts == {True, False}
    # Most random automata both accept and reject some labelled trees.
    assert nontrivial >= 10
