"""Regression tests for the Theorem-16 estimator and sampler
(:mod:`repro.core.tree_automaton`): golden estimates and samples that pin the
exact random draws (on unary chains and on decompositions with a join node),
their independence from string hashing, the memoised acceptance test against
a bottom-up reference, the invariant that every sample is accepted from its
state, and the counter of biased fallback samples."""

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
# Decompositions with a join node, where Karp–Luby unions sample both
# subtrees of a two-child node.
THREE_STAR = "Ans(x) :- E(x, y), E(x, z), E(x, w)"
FORK = "Ans(y, w) :- E(x, y), E(x, z), E(z, w), E(x, u)"
CHAIN = RootedTree(root=0, children={0: (1,), 1: ()})


@pytest.fixture(scope="module")
def gnm_database():
    """G(7, 9) with generator seed 3: the serving benchmark's approximate
    workload database."""
    return database_from_graph(nx.gnm_random_graph(7, 9, seed=3))


#: Databases of the join-node goldens: G(n, m) with its generator seed.
JOIN_DATABASES = {"G(7, 9)": (7, 9, 3), "G(12, 22)": (12, 22, 5)}


@pytest.fixture(scope="module")
def join_databases():
    return {
        name: database_from_graph(nx.gnm_random_graph(n, m, seed=seed))
        for name, (n, m, seed) in JOIN_DATABASES.items()
    }


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


JOIN = RootedTree(root=0, children={0: (1, 2), 1: (), 2: ()})


def _overlapping_join_automaton():
    """Root ``r`` over two children with targets ``(a1, a2)`` and
    ``(a2, a1)``, where ``a1`` accepts {x, y} and ``a2`` accepts {y}: the
    product languages {xy, yy} and {yx, yy} share ``yy``, so the union (3
    labellings) needs ownership checks on both children."""
    return TreeAutomaton(
        states=["s0", "a1", "a2"],
        alphabet=["r", "x", "y"],
        transitions={
            ("s0", "r"): [("a1", "a2"), ("a2", "a1")],
            ("a1", "x"): [()],
            ("a1", "y"): [()],
            ("a2", "y"): [()],
        },
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

    def test_join_fixture_draws(self):
        """Recorded before the sampler was compiled over preorder positions."""
        automaton = _overlapping_join_automaton()
        assert automaton.count_labelings_bruteforce(JOIN) == 3
        estimates = [
            automaton.count_labelings(JOIN, epsilon=0.1, delta=0.1, rng=seed) for seed in range(3)
        ]
        assert estimates == [3.02, 3.0, 2.986666666666667]
        children = []
        for seed in range(10):
            labeling = automaton.sample_labeling(JOIN, rng=seed)
            children.append(labeling[1] + labeling[2])
        assert children == ["xy", "yy", "yy", "xy", "yy", "yy", "xy", "yy", "yx", "xy"]
        estimator = automaton.language_estimator(JOIN, epsilon=0.3, delta=0.2, rng=4)
        draws = [estimator.sample(0, "s0", max_attempts=1) for _ in range(12)]
        assert [labeling[1] + labeling[2] for labeling in draws] == [
            "yx", "xy", "yy", "yx", "yx", "yy", "yy", "yy", "xy", "xy", "xy", "yy"
        ]
        assert estimator.fallback_samples == 1

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


# Recorded before the sampler was compiled over preorder positions: fpras
# estimates at epsilon 0.3, delta 0.1, seeds 0-3 (no fallback samples), and
# sample_labeling answers for the same seeds.
JOIN_GOLDEN_ESTIMATES = {
    ("G(7, 9)", THREE_STAR): [
        6.914310437121587,
        7.65130227122352,
        6.4965205161539155,
        6.653100198495161,
    ],
    ("G(7, 9)", FORK): [
        56.97379789069799,
        53.211310899279496,
        38.36420703344494,
        56.98653923521178,
    ],
    ("G(12, 22)", THREE_STAR): [
        14.010409358863955,
        12.336875297160889,
        12.019667063435328,
        11.045941488813451,
    ],
    ("G(12, 22)", FORK): [
        178.68632112327654,
        158.73250034079987,
        126.93897770004952,
        168.01387969929814,
    ],
}
JOIN_GOLDEN_SAMPLES = {
    ("G(7, 9)", THREE_STAR): [(6,), (5,), (3,), (1,)],
    ("G(7, 9)", FORK): [(6, 1), (4, 1), (1, 0), (6, 1)],
    ("G(12, 22)", THREE_STAR): [(7,), (5,), (11,), (3,)],
    ("G(12, 22)", FORK): [(11, 9), (11, 2), (3, 4), (11, 4)],
}
JOIN_CASES = sorted(JOIN_GOLDEN_ESTIMATES)


class TestJoinNodeGoldens:
    @pytest.mark.parametrize("name, text", JOIN_CASES)
    def test_fpras_estimates(self, join_databases, name, text):
        query = parse_query(text)
        results = [
            fpras_count_cq(
                query, join_databases[name], epsilon=0.3, delta=0.1, rng=seed, return_result=True
            )
            for seed in range(4)
        ]
        assert [result.estimate for result in results] == JOIN_GOLDEN_ESTIMATES[name, text]
        assert [result.fallback_samples for result in results] == [0] * 4

    @pytest.mark.parametrize("name, text", JOIN_CASES)
    def test_reduction_samples(self, join_databases, name, text):
        query = parse_query(text)
        reduction = build_tree_automaton(query, join_databases[name])
        tree = reduction.tree
        assert any(len(tree.children_of(node)) == 2 for node in tree.nodes())
        answers = []
        for seed in range(4):
            labeling = reduction.automaton.sample_labeling(
                reduction.tree,
                epsilon=0.3,
                delta=0.1,
                rng=seed,
                disjoint_union_hints=reduction.disjoint_union_hint,
            )
            assert reduction.automaton.accepts(reduction.tree, labeling)
            answers.append(_answer(query, labeling))
        assert answers == JOIN_GOLDEN_SAMPLES[name, text]


def test_estimates_do_not_depend_on_string_hashing(tmp_path):
    """States and labels hold strings, and the automaton keeps its targets in
    sets: the estimator must order everything it draws from itself, so hash
    seeds 0 and 1 give the same estimates and samples."""
    import os
    import subprocess
    import sys

    import repro

    script = tmp_path / "fpras.py"
    script.write_text(
        "import networkx as nx\n"
        "from repro.core.fpras import build_tree_automaton, fpras_count_cq\n"
        "from repro.queries import parse_query\n"
        "from repro.workloads import database_from_graph\n"
        "database = database_from_graph(nx.gnm_random_graph(7, 9, seed=3))\n"
        f"for text in {[TWO_HOP, FORK]!r}:\n"
        "    query = parse_query(text)\n"
        "    print([fpras_count_cq(query, database, 0.5, 0.25, rng=seed) for seed in range(2)])\n"
        "    reduction = build_tree_automaton(query, database)\n"
        "    labeling = reduction.automaton.sample_labeling(\n"
        "        reduction.tree, 0.5, 0.25, 7, reduction.disjoint_union_hint\n"
        "    )\n"
        "    print(sorted(labeling.items(), key=repr))\n"
    )
    outputs = set()
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        result = subprocess.run(
            [sys.executable, str(script)], env=env, capture_output=True, text=True, check=True
        )
        outputs.add(result.stdout)
    assert len(outputs) == 1


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


def _started_in(automaton, state):
    """The same automaton with ``state`` as its initial state."""
    transitions = {
        (source, label): automaton.targets(source, label)
        for source in automaton.states
        for label in automaton.alphabet
        if automaton.targets(source, label)
    }
    return TreeAutomaton(automaton.states, automaton.alphabet, transitions, initial_state=state)


@pytest.mark.parametrize("max_attempts", [64, 1])
def test_every_sample_is_accepted_from_its_state(max_attempts):
    """Every labelling ``sample(node, state)`` returns, the biased fallback
    included, is accepted from ``state`` on the subtree at ``node``.  This is
    what lets an ownership check skip the target a sample was drawn from."""
    checked = fallbacks = 0
    for seed in range(16):
        automaton = _random_automaton(seed)
        started = {state: _started_in(automaton, state) for state in automaton.states}
        for size in range(1, 5):
            for tree in _enumerate_trees(size):
                estimator = automaton.language_estimator(
                    tree, epsilon=0.5, delta=0.25, rng=seed, samples_per_union=16
                )
                for node in tree.nodes():
                    subtree = RootedTree(root=node, children=tree.children)
                    for state in sorted(automaton.states):
                        for _ in range(3):
                            labeling = estimator.sample(node, state, max_attempts=max_attempts)
                            if labeling is None:
                                break
                            assert set(labeling) == set(subtree.nodes())
                            assert started[state].accepts(subtree, labeling)
                            checked += 1
                fallbacks += estimator.fallback_samples
    assert checked > 1000
    if max_attempts == 1:
        # Overlapping targets make single-attempt draws fall back often.
        assert fallbacks > 0
