"""The FPRAS for #CQ with bounded fractional hypertreewidth (Theorem 16).

Pipeline (Section 5.2):

1.  Lemma 43 — compute a *nice* tree decomposition of ``H(phi)`` whose bags
    have bounded fractional edge cover number.  (Queries are small, so the
    reproduction computes an fhw-optimal decomposition exactly instead of
    Marx's cubic approximation; see :mod:`repro.decomposition.fractional`.)
2.  Lemma 48 — for every bag ``B_t`` compute the bag solutions
    ``Sol_t = Sol(phi, D, B_t)`` and their projections
    ``Sol'_t = proj(Sol_t, free(phi))``.  The enumeration runs on the indexed
    join engine of :mod:`repro.core.bag_solutions`: per-atom consistent rows
    are scanned once per database (version-keyed cache) and bags are joined
    with hash joins keyed on the shared-variable projection, so the per-bag
    cost is dominated by the output size as Lemma 48 requires.
3.  Lemma 52 — build the tree automaton whose accepted labelled trees are in
    bijection with ``Ans(phi, D)``:
      * states ``(t, alpha)`` with ``alpha ∈ Sol_t``; initial state
        ``(t*, empty)``,
      * labels ``(t, beta)`` with ``beta ∈ Sol'_t``,
      * transitions mirroring the join / introduce / forget structure of the
        nice decomposition.
4.  Lemma 51 — approximately count the accepted labellings of the (fixed)
    decomposition tree with the ACJR-style estimator in
    :mod:`repro.core.tree_automaton`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from repro.core.bag_solutions import (
    AssignmentKey,
    assignment_key,
    bag_solutions,
    project_solutions,
    solutions_consistent_with,
)
from repro.core.tree_automaton import RootedTree, TreeAutomaton
from repro.decomposition.nice import NiceTreeDecomposition
from repro.queries.prepared import PreparedQuery, prepare
from repro.queries.query import ConjunctiveQuery, QueryClass
from repro.relational.csp import DEFAULT_ENGINE
from repro.relational.structure import Structure
from repro.util.rng import RNGLike
from repro.util.validation import check_epsilon_delta

State = Tuple[Hashable, AssignmentKey]
Label = Tuple[Hashable, AssignmentKey]


@dataclass
class Lemma52Reduction:
    """The output of the Lemma-52 parsimonious reduction: a tree automaton,
    the (fixed) tree it runs over, and hints about which transition groups
    have pairwise-disjoint target languages (used by the estimator)."""

    automaton: TreeAutomaton
    tree: RootedTree
    decomposition: NiceTreeDecomposition
    bag_solution_counts: Dict[Hashable, int]
    fractional_hypertreewidth: float
    #: (state, label) pairs whose multi-target unions are certified disjoint
    #: (forget transitions over a *free* variable).
    disjoint_pairs: Set[Tuple[State, Label]]

    def disjoint_union_hint(self, state: State, label: Label) -> bool:
        return (state, label) in self.disjoint_pairs

    def empty_language(self) -> bool:
        """True when ``Sol(phi, D, ∅)`` is empty — a *sufficient* condition
        for the query to have no answers (the algorithm then returns 0 without
        running the estimator, as in the proof of Lemma 52).  When some bag
        deeper in the decomposition has no solutions the language is empty as
        well, but that case is detected by the estimator returning 0."""
        root = self.decomposition.root
        return self.bag_solution_counts.get(root, 0) == 0


@dataclass(frozen=True)
class FPRASResult:
    """Result record of a Theorem-16 FPRAS run."""

    estimate: float
    epsilon: float
    delta: float
    fractional_hypertreewidth: float
    num_states: int
    num_labels: int
    tree_size: int
    #: Samples the estimator returned after exhausting its rejection
    #: attempts (each one a biased draw; see DESIGN.md, substitution 3).
    fallback_samples: int

    def rounded(self) -> int:
        return int(round(self.estimate))


def build_tree_automaton(
    query: ConjunctiveQuery,
    database: Structure,
    prepared: Optional[PreparedQuery] = None,
    engine: str = DEFAULT_ENGINE,
) -> Lemma52Reduction:
    """Construct the Lemma-52 tree automaton for a CQ instance.

    The fhw-optimal decomposition and its nice form come from the shared
    ``prepared`` query (computed once per query shape and cached process-wide
    when omitted), translated into this query's variable names."""
    if query.query_class() is not QueryClass.CQ:
        raise ValueError(
            "Theorem 16 applies to plain CQs (no disequalities or negations); "
            f"got a {query.query_class().value}"
        )
    query._check_signature_compatibility(database)

    if prepared is None:
        prepared = prepare(query)
    fhw = prepared.fractional_hypertreewidth()[0]
    nice = prepared.nice_decomposition_for(query)

    free_variables = set(query.free_variables)

    # Bag solutions per node (memoised by bag content: equal bags share them).
    solutions_by_bag: Dict[FrozenSet[str], Set[AssignmentKey]] = {}
    node_solutions: Dict[Hashable, Set[AssignmentKey]] = {}
    for node in nice.nodes():
        bag = nice.bag(node)
        if bag not in solutions_by_bag:
            solutions_by_bag[bag] = bag_solutions(query, database, bag, engine=engine)
        node_solutions[node] = solutions_by_bag[bag]

    states: Set[State] = set()
    labels: Set[Label] = set()
    transitions: Dict[Tuple[State, Label], Set[Tuple[State, ...]]] = {}
    disjoint_pairs: Set[Tuple[State, Label]] = set()

    def label_of(node: Hashable, alpha: AssignmentKey) -> Label:
        projection = tuple(
            (variable, value) for variable, value in alpha if variable in free_variables
        )
        return (node, projection)

    def add_transition(state: State, label: Label, target: Tuple[State, ...]) -> None:
        transitions.setdefault((state, label), set()).add(target)

    for node in nice.nodes():
        for alpha in node_solutions[node]:
            states.add((node, alpha))
            labels.add(label_of(node, alpha))

    for node in nice.nodes():
        children = nice.children(node)
        for alpha in node_solutions[node]:
            state: State = (node, alpha)
            label = label_of(node, alpha)
            if not children:
                # Leaf: empty bag, empty assignment, transition to ∅.
                add_transition(state, label, ())
                continue
            if len(children) == 2:
                left, right = children
                add_transition(state, label, ((left, alpha), (right, alpha)))
                continue
            (child,) = children
            node_bag, child_bag = nice.bag(node), nice.bag(child)
            if child_bag <= node_bag and len(node_bag - child_bag) == 1:
                # Introduce node: project the assignment down to the child bag.
                child_alpha = assignment_key(
                    {v: value for v, value in alpha if v in child_bag}
                )
                if child_alpha in node_solutions[child]:
                    add_transition(state, label, ((child, child_alpha),))
                continue
            if node_bag <= child_bag and len(child_bag - node_bag) == 1:
                # Forget node: one transition per consistent extension.
                (forgotten,) = tuple(child_bag - node_bag)
                extensions = solutions_consistent_with(node_solutions[child], alpha)
                for child_alpha in extensions:
                    add_transition(state, label, ((child, child_alpha),))
                if len(extensions) > 1 and forgotten in free_variables:
                    # Extensions differ on a free variable, so the target
                    # languages carry different labels below and are disjoint.
                    disjoint_pairs.add((state, label))
                continue
            raise RuntimeError(
                f"node {node!r} of the nice decomposition is neither a join, "
                "introduce, forget nor leaf node"
            )

    tree = RootedTree(
        root=nice.root,
        children={node: tuple(nice.children(node)) for node in nice.nodes()},
    )
    root_state: State = (nice.root, assignment_key({}))
    if root_state not in states:
        # No solutions at all: create a dead initial state so the automaton is
        # well formed; its language is empty.
        states.add(root_state)
        labels.add(label_of(nice.root, assignment_key({})))

    automaton = TreeAutomaton(
        states=states,
        alphabet=labels,
        transitions=transitions,
        initial_state=root_state,
    )
    return Lemma52Reduction(
        automaton=automaton,
        tree=tree,
        decomposition=nice,
        bag_solution_counts={node: len(node_solutions[node]) for node in nice.nodes()},
        fractional_hypertreewidth=float(fhw),
        disjoint_pairs=disjoint_pairs,
    )


def fpras_count_cq(
    query: ConjunctiveQuery,
    database: Structure,
    epsilon: float,
    delta: float,
    rng: RNGLike = None,
    return_result: bool = False,
    samples_per_union: Optional[int] = None,
    prepared: Optional[PreparedQuery] = None,
    engine: str = DEFAULT_ENGINE,
):
    """Theorem 16: FPRAS for #CQ on queries with bounded fractional
    hypertreewidth.

    Returns the (epsilon, delta)-approximation of ``|Ans(phi, D)|`` (a float),
    or a :class:`FPRASResult` when ``return_result`` is true.  The Lemma-43
    decomposition is read from the shared ``prepared`` query (prepared and
    cached process-wide when omitted).
    """
    check_epsilon_delta(epsilon, delta)
    reduction = build_tree_automaton(query, database, prepared=prepared, engine=engine)
    fhw = reduction.fractional_hypertreewidth

    estimate, fallback_samples = 0.0, 0
    if not reduction.empty_language():
        estimator = reduction.automaton.language_estimator(
            reduction.tree,
            epsilon=epsilon,
            delta=delta,
            rng=rng,
            disjoint_union_hints=reduction.disjoint_union_hint,
            samples_per_union=samples_per_union,
        )
        estimate = estimator.count()
        fallback_samples = estimator.fallback_samples
    result = FPRASResult(
        estimate=float(estimate),
        epsilon=epsilon,
        delta=delta,
        fractional_hypertreewidth=float(fhw),
        num_states=len(reduction.automaton.states),
        num_labels=len(reduction.automaton.alphabet),
        tree_size=reduction.tree.size(),
        fallback_samples=fallback_samples,
    )
    return result if return_result else result.estimate
