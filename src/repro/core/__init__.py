"""The paper's core contribution: approximation schemes for counting answers
to (extended) conjunctive queries.

Entry points
------------
* :data:`REGISTRY` / :class:`SchemeRegistry` — the unified scheme registry:
  every counting scheme behind one ``count(prepared, database, ...)``
  envelope; all the wrappers below dispatch through it.
* :func:`approx_count_answers` — dispatching convenience wrapper: picks the
  FPRAS (Theorem 16) for plain CQs and the appropriate FPTRAS (Theorems 5/13)
  otherwise, and returns a rounded integer estimate; :func:`resolve_method`
  is its method-to-scheme rule, shared with the CLI's ``count``.
* :func:`fptras_count_ecq` — Theorem 5 (bounded treewidth + arity, ECQ).
* :func:`fptras_count_dcq` — Theorem 13 (bounded adaptive width, DCQ).
* :func:`fpras_count_cq` — Theorem 16 (bounded fractional hypertreewidth, CQ).
* :func:`count_answers_exact` — exact baselines.
* :func:`classify_query` / :func:`classify_class` — the Figure-1 dichotomy.

All of them consume :class:`repro.queries.prepared.PreparedQuery` artifacts
(hypergraph, widths, decompositions), computed at most once per canonical
query shape per process.
"""

from __future__ import annotations

from typing import Optional

from repro.core.associated_structures import (
    build_A,
    build_A_hat,
    build_B,
    build_B_hat,
    variable_order,
)
from repro.core.answer_hypergraph import (
    DirectEdgeFreeOracle,
    build_answer_hypergraph,
    vertex_classes,
)
from repro.core.bag_solutions import bag_solutions
from repro.core.colour_coding import ColourCodingEdgeFreeOracle
from repro.core.dichotomy import (
    ClassVerdict,
    QueryReport,
    Verdict,
    classify_class,
    classify_query,
)
from repro.core.dlm import (
    approx_count_via_oracle,
    exact_count_via_oracle,
    list_edges_via_oracle,
)
from repro.core.exact import (
    count_answers_exact,
    count_solutions_exact,
    enumerate_answers_exact,
)
from repro.core.fpras import FPRASResult, build_tree_automaton, fpras_count_cq
from repro.core.fptras import FPTRASResult, fptras_count_dcq, fptras_count_ecq
from repro.core.oracle_counting import (
    approx_count_answers_via_oracle,
    exact_count_answers_via_oracle,
)
from repro.core.registry import (
    REGISTRY,
    SCHEME_BY_CLASS,
    CountResult,
    SchemeRegistry,
    SchemeSpec,
    default_registry,
)
from repro.core.tree_automaton import RootedTree, TreeAutomaton
from repro.queries.prepared import PreparedQuery, prepare
from repro.queries.query import ConjunctiveQuery, QueryClass
from repro.relational.structure import Structure
from repro.util.rng import RNGLike


#: Counting methods that name a choice rather than one registered scheme.
METHOD_ALIASES = ("auto", "fpras", "fptras")


def resolve_method(method: str, query_class: QueryClass) -> str:
    """The registered scheme that counting ``method`` runs for a query of
    ``query_class``.

    ``method`` may be ``"auto"`` (FPRAS for plain CQs, FPTRAS otherwise),
    ``"fpras"`` (Theorem 16; CQs only), ``"fptras"`` (the Lemma-22 engine of
    Theorems 5/13), or any registered scheme name (``exact`` /
    ``oracle_exact`` / ``fpras_cq`` / ``fptras_dcq`` / ``fptras_ecq``).
    """
    if method == "auto":
        return SCHEME_BY_CLASS[query_class]
    if method == "fpras":
        return "fpras_cq"
    if method == "fptras":
        return "fptras_ecq" if query_class is QueryClass.ECQ else "fptras_dcq"
    if method in REGISTRY.names(include_unions=False):
        return method
    raise ValueError(f"unknown method {method!r}")


def approx_count_answers(
    query: ConjunctiveQuery,
    database: Structure,
    epsilon: float = 0.1,
    delta: float = 0.05,
    seed: RNGLike = None,
    method: str = "auto",
) -> int:
    """Approximately count ``|Ans(query, database)|`` and return the estimate
    rounded to the nearest integer.

    ``method`` picks the scheme through :func:`resolve_method`; dispatch goes
    through :data:`REGISTRY`.
    """
    scheme = resolve_method(method, query.query_class())
    result = REGISTRY.count(
        scheme, query, database, epsilon=epsilon, delta=delta, rng=seed
    )
    return result.count


__all__ = [
    "REGISTRY",
    "SchemeRegistry",
    "SchemeSpec",
    "CountResult",
    "default_registry",
    "PreparedQuery",
    "prepare",
    "approx_count_answers",
    "resolve_method",
    "METHOD_ALIASES",
    "count_answers_exact",
    "count_solutions_exact",
    "enumerate_answers_exact",
    "fptras_count_ecq",
    "fptras_count_dcq",
    "fpras_count_cq",
    "FPTRASResult",
    "FPRASResult",
    "classify_query",
    "classify_class",
    "ClassVerdict",
    "QueryReport",
    "Verdict",
    "build_A",
    "build_B",
    "build_A_hat",
    "build_B_hat",
    "variable_order",
    "build_answer_hypergraph",
    "vertex_classes",
    "DirectEdgeFreeOracle",
    "ColourCodingEdgeFreeOracle",
    "approx_count_via_oracle",
    "exact_count_via_oracle",
    "list_edges_via_oracle",
    "approx_count_answers_via_oracle",
    "exact_count_answers_via_oracle",
    "bag_solutions",
    "build_tree_automaton",
    "TreeAutomaton",
    "RootedTree",
]
