"""The Theorem-16 estimator's shared pieces: the block-buffered uniform
stream (:class:`repro.util.rng.UniformStream`), the LRU of Lemma-52
reductions behind :func:`repro.core.fpras.build_tree_automaton`, where the
caller's generator is left after a run, and the ``samples_per_union``
check."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core import fpras
from repro.core.fpras import build_tree_automaton, fpras_count_cq
from repro.queries import parse_query
from repro.relational import Database
from repro.util.rng import UNIFORM_BLOCK, UniformStream
from repro.workloads import database_from_graph

TWO_HOP = "Ans(x, y) :- E(x, z), E(z, y)"
THREE_PATH = "Ans(x, w) :- E(x, y), E(y, z), E(z, w)"
THREE_STAR = "Ans(x) :- E(x, y), E(x, z), E(x, w)"
FORK = "Ans(y, w) :- E(x, y), E(x, z), E(z, w), E(x, u)"

#: G(n, m) with its generator seed, as in tests/test_tree_automaton_sampler.py.
DATABASES = {"G(7, 9)": (7, 9, 3), "G(12, 22)": (12, 22, 5)}


@pytest.fixture(scope="module")
def databases():
    return {
        name: database_from_graph(nx.gnm_random_graph(n, m, seed=seed))
        for name, (n, m, seed) in DATABASES.items()
    }


@pytest.fixture
def empty_cache():
    """Run a test against an empty reduction cache, and leave it empty."""
    fpras._REDUCTIONS.clear()
    yield fpras._REDUCTIONS
    fpras._REDUCTIONS.clear()


def _estimates(query, database, seeds=range(3)):
    return [fpras_count_cq(query, database, 0.5, 0.25, rng=seed) for seed in seeds]


# ------------------------------------------------------------------- stream
def _twin_after(seed, draws):
    twin = np.random.default_rng(seed)
    values = [twin.random() for _ in range(draws)]
    return twin, values


@pytest.mark.parametrize(
    "draws", [0, 1, UNIFORM_BLOCK - 1, UNIFORM_BLOCK, UNIFORM_BLOCK + 1]
)
def test_stream_leaves_the_generator_where_scalar_draws_would(draws):
    generator = np.random.default_rng(7)
    stream = UniformStream(generator)
    values = [stream.random() for _ in range(draws)]
    stream.sync()
    twin, expected = _twin_after(7, draws)
    assert values == expected
    assert generator.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("before", [0, 3, UNIFORM_BLOCK - 1])
def test_stream_skip_across_a_block_boundary(before):
    generator = np.random.default_rng(11)
    stream = UniformStream(generator)
    head = [stream.random() for _ in range(before)]
    skipped = UNIFORM_BLOCK + 10
    stream.skip(skipped)
    tail = [stream.random() for _ in range(3)]
    stream.sync()
    twin, expected = _twin_after(11, before + skipped + 3)
    assert head + tail == expected[:before] + expected[-3:]
    assert generator.bit_generator.state == twin.bit_generator.state


def test_stream_resumes_after_a_sync_and_interleaved_use():
    """After a sync the caller may use the generator itself; the stream's
    next uniform is the generator's next one."""
    generator = np.random.default_rng(5)
    twin = np.random.default_rng(5)
    stream = UniformStream(generator)
    for draws in (6, UNIFORM_BLOCK + 6, 0, 1):
        assert [stream.random() for _ in range(draws)] == [twin.random() for _ in range(draws)]
        stream.sync()
        assert generator.random() == twin.random()
    assert generator.bit_generator.state == twin.bit_generator.state


# ------------------------------------------- generator state after a run
# The next ``generator.random()`` after a run on a passed-in Generator,
# recorded while every draw was a scalar ``random()`` call: after
# ``fpras_count_cq``, and after ``count()`` then ``sample()`` from the root.
NEXT_UNIFORM_CASES = {
    ("G(7, 9)", TWO_HOP, 0.5, 0.25, tuple(range(1000, 1005))): (
        [0.7360885493458766, 0.38803815321168944, 0.7105173808789315,
         0.7630666307189948, 0.09575535885088704],
        [0.2977291286048219, 0.7432681186913419, 0.8539267687044793,
         0.09383366107005775, 0.6368609972247828],
    ),
    ("G(7, 9)", THREE_PATH, 0.5, 0.25, tuple(range(1000, 1005))): (
        [0.5313622032620935, 0.7878525498645116, 0.06003629367500263,
         0.37835914207793364, 0.577148063867459],
        [0.027458507491316397, 0.9724631639014432, 0.09737533661285003,
         0.8211220430220207, 0.5223735542966356],
    ),
    ("G(7, 9)", THREE_STAR, 0.3, 0.1, tuple(range(4))): (
        [0.8706722823314449, 0.17741451143325093, 0.6876384947813223, 0.25305190619448614],
        [0.29516350810059, 0.387238092201447, 0.6318544865968948, 0.9449370876412778],
    ),
    ("G(7, 9)", FORK, 0.3, 0.1, tuple(range(4))): (
        [0.07605291411760218, 0.7351839423052173, 0.10188839603810684, 0.5105388189405478],
        [0.4511203690541965, 0.5153090662974212, 0.1584188917593572, 0.007972770664672058],
    ),
    ("G(12, 22)", THREE_STAR, 0.3, 0.1, tuple(range(4))): (
        [0.14791757016911677, 0.30801969546214036, 0.008372529432927767, 0.3302767894167308],
        [0.6349431848628166, 0.6188782041124627, 0.9336631943198052, 0.12463534680791832],
    ),
    ("G(12, 22)", FORK, 0.3, 0.1, tuple(range(4))): (
        [0.7886720553279681, 0.8741077479514772, 0.6132906548564054, 0.5183826939881139],
        [0.9091204958528422, 0.6250060100635862, 0.277540261709877, 0.5199745191130394],
    ),
}


@pytest.mark.parametrize("case", sorted(NEXT_UNIFORM_CASES))
def test_next_uniform_after_a_run(databases, case):
    name, text, epsilon, delta, seeds = case
    database, query = databases[name], parse_query(text)
    after_count, after_sample = [], []
    for seed in seeds:
        generator = np.random.default_rng(seed)
        fpras_count_cq(query, database, epsilon, delta, rng=generator)
        after_count.append(generator.random())
        reduction = build_tree_automaton(query, database)
        generator = np.random.default_rng(seed)
        estimator = reduction.automaton.language_estimator(
            reduction.tree, epsilon, delta, rng=generator,
            disjoint_union_hints=reduction.disjoint_union_hint,
        )
        estimator.count()
        estimator.sample(reduction.tree.root, reduction.automaton.initial_state)
        after_sample.append(generator.random())
    assert (after_count, after_sample) == NEXT_UNIFORM_CASES[case]


# -------------------------------------------------------- reduction cache
def test_cache_evicts_past_its_bound(empty_cache):
    query = parse_query(TWO_HOP)
    database = Database.from_graph_edges([(1, 2), (2, 3)])
    # Copies carry fresh structure tokens, so each one is a new entry.
    copies = [database.copy() for _ in range(fpras.REDUCTION_CACHE_SIZE + 1)]
    evictions = empty_cache.stats().evictions
    first = build_tree_automaton(query, copies[0])
    for copy in copies[1:]:
        build_tree_automaton(query, copy)
    assert len(empty_cache) == fpras.REDUCTION_CACHE_SIZE
    assert empty_cache.stats().evictions == evictions + 1
    assert build_tree_automaton(query, copies[0]) is not first
    assert build_tree_automaton(query, copies[-1]) is build_tree_automaton(query, copies[-1])


def test_mutating_a_queried_relation_rebuilds(empty_cache, databases):
    query = parse_query(THREE_PATH)
    database = databases["G(7, 9)"].copy()
    before = build_tree_automaton(query, database)
    assert build_tree_automaton(query, database) is before
    database.add_fact("E", (0, 6))
    database.add_fact("E", (6, 0))
    after = build_tree_automaton(query, database)
    assert after is not before
    # The new version replaces the old one's entry.
    assert len(empty_cache) == 1
    assert build_tree_automaton(query, database) is after
    # An uncached build over the same contents: a fresh structure.
    fresh = Database.from_relations(
        {"E": database.relation("E")}, universe=database.universe
    )
    assert len(after.automaton.states) == len(
        build_tree_automaton(query, fresh).automaton.states
    )
    assert _estimates(query, database) == _estimates(query, fresh)
    assert _estimates(query, database) != _estimates(query, databases["G(7, 9)"])


def test_mutating_an_unrelated_relation_keeps_the_entry(empty_cache, databases):
    query = parse_query(TWO_HOP)
    database = databases["G(7, 9)"].copy()
    database.add_fact("F", (0, 1))
    before = build_tree_automaton(query, database)
    database.add_fact("F", (1, 2))
    database.remove_fact("F", (0, 1))
    assert build_tree_automaton(query, database) is before


def test_a_copy_never_shares_an_entry(empty_cache, databases):
    query = parse_query(TWO_HOP)
    database = databases["G(7, 9)"]
    copy = database.copy()
    assert build_tree_automaton(query, copy) is not build_tree_automaton(query, database)
    assert len(empty_cache) == 2
    assert _estimates(query, copy) == _estimates(query, database)


@pytest.mark.parametrize(
    "text, reordered",
    [
        (THREE_PATH, "Ans(x, w) :- E(z, w), E(y, z), E(x, y)"),
        (FORK, "Ans(y, w) :- E(x, u), E(z, w), E(x, z), E(x, y)"),
    ],
)
def test_reordered_atoms_estimate_alike_whichever_is_cached_first(
    empty_cache, databases, text, reordered
):
    database = databases["G(7, 9)"]
    runs = []
    for order in ((text, reordered), (reordered, text)):
        empty_cache.clear()
        runs.append([_estimates(parse_query(each), database) for each in order])
    assert runs[0][0] == runs[0][1] == runs[1][0] == runs[1][1]


# --------------------------------------------------------- samples_per_union
@pytest.mark.parametrize("samples", [0, -5])
def test_samples_per_union_below_one_is_rejected(databases, samples):
    query = parse_query(THREE_PATH)
    database = databases["G(7, 9)"]
    with pytest.raises(ValueError, match="samples_per_union"):
        fpras_count_cq(query, database, 0.5, 0.25, rng=1, samples_per_union=samples)
    reduction = build_tree_automaton(query, database)
    with pytest.raises(ValueError, match="samples_per_union"):
        reduction.automaton.count_labelings(reduction.tree, samples_per_union=samples)
    # One sample per union is the smallest valid setting.
    assert fpras_count_cq(query, database, 0.5, 0.25, rng=1, samples_per_union=1) >= 0
