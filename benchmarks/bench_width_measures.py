"""Experiment: Lemma 12 / Observation 34 — the width-measure landscape that
Figure 1 is phrased in.

Claims reproduced:

* treewidth <= arity * adaptive-width - 1 (Observation 34),
* aw <= fhw <= (g)hw on every instance (the per-instance consequences of the
  domination chain of Lemma 12),
* the single-hyperedge family separates treewidth (unbounded) from the
  hypergraph measures (all 1) — the reason the unbounded-arity half of
  Figure 1 needs the finer measures.

The bench also times the width computations themselves (they are part of the
algorithms' preprocessing: Lemma 43 needs an fhw decomposition).
"""

from __future__ import annotations

import pytest

from repro.decomposition import (
    adaptive_width_upper_bound,
    estimate_adaptive_width,
    exact_treewidth,
    fractional_hypertreewidth,
    generalized_hypertreewidth,
    width_profile,
)
from repro.hypergraph import (
    complete_graph_hypergraph,
    cycle_hypergraph,
    grid_hypergraph,
    path_hypergraph,
    star_hypergraph,
)
from repro.hypergraph.generators import single_edge_hypergraph

FAMILIES = {
    "path-8": path_hypergraph(8),
    "cycle-8": cycle_hypergraph(8),
    "star-8": star_hypergraph(8),
    "grid-3x3": grid_hypergraph(3, 3),
    "clique-6": complete_graph_hypergraph(6),
    "one-edge-arity-8": single_edge_hypergraph(8),
}


@pytest.mark.parametrize("name", list(FAMILIES))
def test_width_profile_runtime(benchmark, name):
    hypergraph = FAMILIES[name]
    profile = benchmark(lambda: width_profile(hypergraph, rng=0, adaptive_samples=4))
    assert profile.satisfies_lemma_12_chain()


def test_width_landscape_summary(table_printer, benchmark):
    profiles = benchmark.pedantic(
        lambda: {name: width_profile(h, rng=0, adaptive_samples=4) for name, h in FAMILIES.items()},
        rounds=1,
        iterations=1,
    )
    rows = []
    for name, profile in profiles.items():
        rows.append(
            [
                name,
                profile.arity,
                profile.treewidth,
                f"{profile.hypertreewidth:.1f}",
                f"{profile.fractional_hypertreewidth:.2f}",
                f"[{profile.adaptive_width.lower_bound:.2f}, "
                f"{profile.adaptive_width.upper_bound:.2f}]",
            ]
        )
        assert profile.satisfies_lemma_12_chain()
    table_printer(
        "Width measures (Figure 1 landscape / Lemma 12 / Observation 34)",
        ["family", "arity", "tw", "hw", "fhw", "aw bracket"],
        rows,
    )


@pytest.mark.parametrize(
    "name, computation",
    [
        ("treewidth", lambda h: exact_treewidth(h)),
        ("fhw", lambda h: fractional_hypertreewidth(h)[0]),
        ("ghw", lambda h: generalized_hypertreewidth(h)[0]),
        (
            "adaptive",
            lambda h: estimate_adaptive_width(
                h, adaptive_width_upper_bound(h), samples=4, rng=0
            ).upper_bound,
        ),
    ],
)
def test_individual_width_computation(benchmark, name, computation):
    hypergraph = grid_hypergraph(3, 3)
    value = benchmark(lambda: computation(hypergraph))
    assert value >= 0
