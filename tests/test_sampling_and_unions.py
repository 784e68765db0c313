"""Tests for the Section-6 extensions: approximate uniform sampling of answers
and Karp–Luby counting for unions of queries."""

from __future__ import annotations

import collections
import math

import pytest

from repro.core import count_answers_exact, enumerate_answers_exact
from repro.queries import parse_query
from repro.queries.builders import friends_query, path_query
from repro.relational import Database
from repro.sampling import sample_answers
from repro.unions import approx_count_union, exact_count_union
from repro.workloads import database_from_graph, erdos_renyi_graph


class TestExactSampler:
    def test_samples_are_answers(self, triangle_database):
        query = parse_query("Ans(x, y) :- E(x, y)")
        samples = sample_answers(query, triangle_database, num_samples=20, rng=0, exact=True)
        answers = enumerate_answers_exact(query, triangle_database)
        assert len(samples) == 20
        assert all(sample in answers for sample in samples)

    def test_empty_answer_set(self):
        database = Database.from_relations({"E": [(1, 1)]}, universe=[1, 2])
        query = parse_query("Ans(x, y) :- E(x, y), x != y")
        assert sample_answers(query, database, num_samples=5, rng=0, exact=True) == []


class TestJVVSampler:
    def test_samples_are_answers_exact_counter(self, triangle_database):
        query = parse_query("Ans(x, y) :- E(x, z), E(z, y)")
        samples = sample_answers(query, triangle_database, num_samples=10, rng=1, exact=True)
        answers = enumerate_answers_exact(query, triangle_database)
        assert len(samples) == 10
        assert all(sample in answers for sample in samples)

    def test_exact_counter_gives_uniformish_distribution(self, triangle_database):
        """With exact counts the JVV sampler is exactly uniform; check that
        every answer is hit over many samples (coupon-collector style)."""
        query = parse_query("Ans(x) :- E(x, y)")
        answers = enumerate_answers_exact(query, triangle_database)
        samples = sample_answers(query, triangle_database, num_samples=60, rng=2, exact=True)
        counts = collections.Counter(samples)
        assert set(counts) == answers
        # Uniform over 3 answers with 60 samples: each should appear often.
        assert min(counts.values()) >= 8

    def test_exact_draws_pass_a_chi_square_uniformity_test(self):
        """100 exact draws per answer of the 2-hop on G(9, 0.35) seed 33 (71
        answers): the chi-square statistic stays under its 0.999 quantile,
        by the Wilson–Hilferty approximation (CI installs no scipy)."""
        database = database_from_graph(erdos_renyi_graph(9, 0.35, rng=33))
        query = parse_query("Ans(x, y) :- E(x, z), E(z, y)")
        answers = enumerate_answers_exact(query, database)
        assert len(answers) == 71
        expected = 100
        samples = sample_answers(
            query, database, num_samples=expected * len(answers), rng=0, exact=True
        )
        counts = collections.Counter(samples)
        assert set(counts) <= answers
        statistic = sum((counts[answer] - expected) ** 2 for answer in answers) / expected
        dof = len(answers) - 1
        z = 3.090232  # the standard normal 0.999 quantile
        bound = dof * (1 - 2 / (9 * dof) + z * math.sqrt(2 / (9 * dof))) ** 3
        assert statistic < bound, (statistic, bound)

    def test_approximate_counter_path(self, friends_db):
        query = friends_query()
        samples = sample_answers(
            query, friends_db, num_samples=3, epsilon=0.3, delta=0.2, rng=3
        )
        answers = enumerate_answers_exact(query, friends_db)
        assert len(samples) == 3
        assert all(sample in answers for sample in samples)

    def test_no_answers(self):
        database = Database.from_relations({"E": [(1, 1)]}, universe=[1])
        query = parse_query("Ans(x, y) :- E(x, y), x != y")
        assert sample_answers(query, database, num_samples=2, rng=4, exact=True) == []


class TestUnions:
    def test_exact_union(self, triangle_database):
        first = parse_query("Ans(x, y) :- E(x, y)")
        second = parse_query("Ans(x, y) :- E(x, z), E(z, y)")
        union = exact_count_union([first, second], triangle_database)
        answers = enumerate_answers_exact(first, triangle_database) | enumerate_answers_exact(
            second, triangle_database
        )
        assert union == len(answers)

    def test_mismatched_arities_rejected(self, triangle_database):
        first = parse_query("Ans(x) :- E(x, y)")
        second = parse_query("Ans(x, y) :- E(x, y)")
        with pytest.raises(ValueError):
            exact_count_union([first, second], triangle_database)
        with pytest.raises(ValueError):
            approx_count_union([first, second], triangle_database)

    def test_empty_query_list_rejected(self, triangle_database):
        with pytest.raises(ValueError):
            exact_count_union([], triangle_database)

    def test_karp_luby_with_exact_components(self, small_database):
        first = parse_query("Ans(x, y) :- E(x, y)")
        second = parse_query("Ans(x, y) :- E(x, z), E(z, y)")
        truth = exact_count_union([first, second], small_database)
        estimate = approx_count_union(
            [first, second],
            small_database,
            epsilon=0.2,
            delta=0.1,
            rng=5,
            exact_components=True,
            num_samples=400,
        )
        assert abs(estimate - truth) <= max(0.3 * truth, 1.0)

    def test_karp_luby_identical_queries(self, triangle_database):
        """The union of a query with itself has the same count as the query."""
        query = parse_query("Ans(x, y) :- E(x, y)")
        truth = count_answers_exact(query, triangle_database)
        estimate = approx_count_union(
            [query, query], triangle_database, epsilon=0.2, delta=0.1, rng=6,
            exact_components=True, num_samples=300,
        )
        assert abs(estimate - truth) <= max(0.3 * truth, 1.0)

    def test_union_of_disjoint_queries(self, triangle_database):
        """Disjoint answer sets: the union is the sum."""
        database = Database.from_relations(
            {"E": [(1, 2), (2, 3)], "F": [(4, 5)]}, universe=[1, 2, 3, 4, 5]
        )
        first = parse_query("Ans(x, y) :- E(x, y)")
        second = parse_query("Ans(x, y) :- F(x, y)")
        truth = exact_count_union([first, second], database)
        assert truth == 3
        estimate = approx_count_union(
            [first, second], database, epsilon=0.2, delta=0.1, rng=7,
            exact_components=True, num_samples=200,
        )
        assert abs(estimate - truth) <= 1.0

    def test_empty_union(self):
        database = Database.from_relations({"E": [(1, 1)]}, universe=[1])
        query = parse_query("Ans(x, y) :- E(x, y), x != y")
        assert approx_count_union([query], database, rng=8, exact_components=True) == 0.0
