"""Tree automata and counting accepted inputs (Definitions 49, 50, Lemma 51).

A (nondeterministic, top-down) tree automaton ``A = (S, Sigma, Delta, s0)``
runs over labelled rooted trees in which every node has at most two children
(``Trees_2[Sigma]``, Definition 49).  A run assigns a state to every node such
that the transition relation is respected (Definition 50); the automaton
accepts a labelled tree if some run assigns the initial state to the root.

The FPRAS of Theorem 16 reduces answer counting to counting the accepted
labelled trees over a *fixed* tree shape (the nice tree decomposition), and
Lemma 51 (Arenas–Croquevielle–Jayaram–Riveros) supplies an FPRAS for that
counting problem.  This module implements

* the automaton model and memoised acceptance test
  (:meth:`TreeAutomaton.accepts`, :meth:`TreeAutomaton.accepts_from`),
* brute-force counting of accepted labellings (tests / tiny instances),
* :class:`LanguageEstimator` (behind :meth:`TreeAutomaton.count_labelings`
  and :meth:`TreeAutomaton.sample_labeling`) — an ACJR-inspired approximate
  counter and sampler: a bottom-up dynamic program over (node, state) pairs
  that is exact at nodes whose transition targets form products or disjoint
  unions, and uses Karp–Luby union estimation with recursive
  approximate-uniform sampling where target languages may overlap (exactly
  the situation created by existential variables).  See DESIGN.md,
  substitution 3, for how this relates to the original ACJR construction and
  why its table-driven draws reproduce ``Generator.choice`` exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.util.rng import RNGLike, as_generator, choice_cdf, draw_index
from repro.util.validation import check_epsilon_delta

State = Hashable
Label = Hashable
NodeId = Hashable
#: A transition target: () for a leaf transition, (s,) for one child,
#: (s1, s2) for two (ordered) children.
Target = Tuple[State, ...]
#: A labelling of a rooted tree.
Labeling = Dict[NodeId, Label]


@dataclass(frozen=True)
class RootedTree:
    """A rooted tree with at most two (ordered) children per node."""

    root: NodeId
    children: Mapping[NodeId, Tuple[NodeId, ...]]
    _children_of: Dict[NodeId, Tuple[NodeId, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for node, kids in self.children.items():
            if len(kids) > 2:
                raise ValueError(f"node {node!r} has more than two children")
        object.__setattr__(
            self,
            "_children_of",
            {node: tuple(kids) for node, kids in self.children.items()},
        )

    def nodes(self) -> List[NodeId]:
        """All nodes in root-to-leaf (preorder) order."""
        return self.subtree_nodes(self.root)

    def bottom_up(self) -> List[NodeId]:
        return list(reversed(self.nodes()))

    def children_of(self, node: NodeId) -> Tuple[NodeId, ...]:
        return self._children_of.get(node, ())

    def size(self) -> int:
        return len(self.nodes())

    def subtree_nodes(self, node: NodeId) -> List[NodeId]:
        order: List[NodeId] = []
        stack = [node]
        while stack:
            current = stack.pop()
            order.append(current)
            stack.extend(reversed(self.children_of(current)))
        return order


class TreeAutomaton:
    """A nondeterministic top-down tree automaton (Definition 50).

    ``transitions`` maps ``(state, label)`` to the *set* of allowed targets
    (the paper writes the transition function as single-valued but uses it as
    a relation in the Lemma-52 construction; a relation is the general form).
    """

    def __init__(
        self,
        states: Iterable[State],
        alphabet: Iterable[Label],
        transitions: Mapping[Tuple[State, Label], Iterable[Target]],
        initial_state: State,
    ) -> None:
        self._states: Set[State] = set(states)
        self._alphabet: Set[Label] = set(alphabet)
        if initial_state not in self._states:
            raise ValueError("the initial state must be one of the states")
        self._initial = initial_state
        self._transitions: Dict[Tuple[State, Label], Set[Target]] = {}
        for (state, label), targets in transitions.items():
            if state not in self._states:
                raise ValueError(f"transition from unknown state {state!r}")
            if label not in self._alphabet:
                raise ValueError(f"transition on unknown label {label!r}")
            target_set = set()
            for target in targets:
                target = tuple(target)
                if len(target) > 2:
                    raise ValueError("targets have at most two states")
                for child_state in target:
                    if child_state not in self._states:
                        raise ValueError(f"transition to unknown state {child_state!r}")
                target_set.add(target)
            if target_set:
                self._transitions[(state, label)] = target_set
        # Index the labels each state has a transition on, in the fixed
        # (repr) order the estimator enumerates and samples them in.
        by_state: Dict[State, Set[Label]] = {}
        for state, label in self._transitions:
            by_state.setdefault(state, set()).add(label)
        self._labels_by_state: Dict[State, List[Label]] = {
            state: sorted(labels, key=repr) for state, labels in by_state.items()
        }

    # ----------------------------------------------------------------- access
    @property
    def states(self) -> FrozenSet[State]:
        return frozenset(self._states)

    @property
    def alphabet(self) -> FrozenSet[Label]:
        return frozenset(self._alphabet)

    @property
    def initial_state(self) -> State:
        return self._initial

    def targets(self, state: State, label: Label) -> FrozenSet[Target]:
        return frozenset(self._transitions.get((state, label), set()))

    def labels_from(self, state: State) -> List[Label]:
        """Labels for which the state has at least one transition."""
        return list(self._labels_by_state.get(state, ()))

    def num_transitions(self) -> int:
        return sum(len(targets) for targets in self._transitions.values())

    # ------------------------------------------------------------- acceptance
    def accepts_from(
        self,
        tree: RootedTree,
        labeling: Labeling,
        node: NodeId,
        state: State,
        memo: Dict[Tuple[NodeId, State], bool],
    ) -> bool:
        """Whether the labelled subtree rooted at ``node`` admits an accepting
        run starting from ``state``.

        Top-down and memoised in ``memo`` (one dict per labelling): only the
        (node, state) pairs some transition actually probes are evaluated,
        and each at most once.
        """
        key = (node, state)
        known = memo.get(key)
        if known is not None:
            return known
        kids = tree.children_of(node)
        accepted = False
        for target in self._transitions.get((state, labeling[node]), ()):
            if len(target) != len(kids):
                continue
            for kid, kid_state in zip(kids, target):
                if not self.accepts_from(tree, labeling, kid, kid_state, memo):
                    break
            else:
                accepted = True
                break
        memo[key] = accepted
        return accepted

    def accepts(self, tree: RootedTree, labeling: Labeling) -> bool:
        """Whether the automaton accepts the labelled tree (Definition 50)."""
        missing = [node for node in tree.nodes() if node not in labeling]
        if missing:
            raise ValueError(f"labeling is missing nodes {missing!r}")
        return self.accepts_from(tree, labeling, tree.root, self._initial, {})

    # ---------------------------------------------------- brute-force counting
    def count_labelings_bruteforce(self, tree: RootedTree) -> int:
        """The number of labellings of ``tree`` accepted by the automaton, by
        exhaustive enumeration over ``|Sigma|^{|tree|}`` labellings (tests and
        tiny instances only)."""
        nodes = tree.nodes()
        alphabet = sorted(self._alphabet, key=repr)
        count = 0
        for combination in itertools.product(alphabet, repeat=len(nodes)):
            labeling = dict(zip(nodes, combination))
            if self.accepts(tree, labeling):
                count += 1
        return count

    def count_nslice_bruteforce(self, size: int) -> int:
        """|L_N(A)| by brute force: enumerate every rooted tree with ``size``
        nodes and at most two children per node, and every labelling of it.
        Exponential; used only to validate the N-slice semantics on tiny
        automata."""
        total = 0
        for tree in _enumerate_trees(size):
            total += self.count_labelings_bruteforce(tree)
        return total

    # ----------------------------------------------- approximate counting (ACJR)
    def language_estimator(
        self,
        tree: RootedTree,
        epsilon: float = 0.1,
        delta: float = 0.05,
        rng: RNGLike = None,
        disjoint_union_hints: Optional[Callable[[State, Label], bool]] = None,
        samples_per_union: Optional[int] = None,
    ) -> "LanguageEstimator":
        """The ACJR-style estimator of the labellings of ``tree`` accepted by
        the automaton (the fixed-tree case of Lemma 51), with its sampler.

        ``disjoint_union_hints(state, label)`` may certify that the languages
        of the different targets of ``(state, label)`` are pairwise disjoint;
        the estimator then sums their sizes exactly instead of sampling.  (The
        Lemma-52 reduction supplies this hint for transitions that re-bind a
        *free* variable, where disjointness holds by construction.)
        """
        check_epsilon_delta(epsilon, delta)
        return LanguageEstimator(
            automaton=self,
            tree=tree,
            rng=as_generator(rng),
            epsilon=epsilon,
            delta=delta,
            disjoint_union_hints=disjoint_union_hints,
            samples_per_union=samples_per_union,
        )

    def count_labelings(
        self,
        tree: RootedTree,
        epsilon: float = 0.1,
        delta: float = 0.05,
        rng: RNGLike = None,
        disjoint_union_hints: Optional[Callable[[State, Label], bool]] = None,
        samples_per_union: Optional[int] = None,
    ) -> float:
        """Approximately count the labellings of ``tree`` accepted by the
        automaton; see :meth:`language_estimator` for the arguments."""
        return self.language_estimator(
            tree, epsilon, delta, rng, disjoint_union_hints, samples_per_union
        ).count()

    def sample_labeling(
        self,
        tree: RootedTree,
        epsilon: float = 0.1,
        delta: float = 0.05,
        rng: RNGLike = None,
        disjoint_union_hints: Optional[Callable[[State, Label], bool]] = None,
    ) -> Optional[Labeling]:
        """Draw an (approximately uniform) accepted labelling of ``tree``, or
        ``None`` if the language is empty.  This is the sampling counterpart
        ACJR provide alongside their counter (used for Section 6)."""
        estimator = self.language_estimator(tree, epsilon, delta, rng, disjoint_union_hints)
        if estimator.count() <= 0:
            return None
        return estimator.sample(tree.root, self._initial)


class _Union(NamedTuple):
    """The targets of one ``(node, state, label)`` whose product languages are
    non-empty, in the fixed (repr) order, with what drawing among them needs.
    Fixed once built: it reads only child estimates, which never change."""

    targets: List[Target]
    #: Estimated product-language size of each target.
    sizes: List[float]
    #: :func:`choice_cdf` of the sizes, normalised as ``sizes / sizes.sum()``.
    cdf: List[float]
    #: One target, or target languages certified pairwise disjoint: a draw
    #: needs no rejection step and the union size is the exact sum.
    disjoint: bool


class LanguageEstimator:
    """Bottom-up estimator of ``|L(node, state)|`` — the number of accepted
    labellings of the subtree rooted at ``node`` when started in ``state`` —
    with a companion approximate-uniform sampler.  Implements the scheme
    described in the module docstring."""

    def __init__(
        self,
        automaton: TreeAutomaton,
        tree: RootedTree,
        rng: np.random.Generator,
        epsilon: float,
        delta: float,
        disjoint_union_hints: Optional[Callable[[State, Label], bool]],
        samples_per_union: Optional[int],
    ) -> None:
        self._automaton = automaton
        self._tree = tree
        self._rng = rng
        self._epsilon = epsilon
        self._delta = delta
        self._hints = disjoint_union_hints
        if samples_per_union is None:
            samples_per_union = int(min(max(64, math.ceil(12.0 / (epsilon ** 2))), 4000))
        self._samples_per_union = samples_per_union
        self._estimates: Dict[Tuple[NodeId, State], float] = {}
        # Estimate of |U(node, state, label)| per reachable label.
        self._label_estimates: Dict[Tuple[NodeId, State], Dict[Label, float]] = {}
        # Draw tables, built on first use from estimates that are final by then.
        self._label_tables: Dict[Tuple[NodeId, State], Tuple[List[Label], List[float]]] = {}
        self._unions: Dict[Tuple[NodeId, State, Label], _Union] = {}
        #: How often :meth:`sample` returned its last rejected sample after
        #: ``max_attempts`` failed rejection checks (each one a biased draw).
        self.fallback_samples = 0

    # ------------------------------------------------------------ estimation
    def count(self) -> float:
        """The estimate of the whole language: the root in the initial state."""
        return self.estimate(self._tree.root, self._automaton.initial_state)

    def estimate(self, node: NodeId, state: State) -> float:
        key = (node, state)
        if key in self._estimates:
            return self._estimates[key]
        per_label: Dict[Label, float] = {}
        total = 0.0
        for label in self._automaton.labels_from(state):
            value = self._estimate_union(node, state, label)
            if value > 0:
                per_label[label] = value
                total += value
        self._estimates[key] = total
        self._label_estimates[key] = per_label
        return total

    def _target_size(self, node: NodeId, target: Target) -> float:
        kids = self._tree.children_of(node)
        size = 1.0
        for child, child_state in zip(kids, target):
            size *= self.estimate(child, child_state)
        return size

    def _union(self, node: NodeId, state: State, label: Label) -> _Union:
        key = (node, state, label)
        union = self._unions.get(key)
        if union is not None:
            return union
        arity = len(self._tree.children_of(node))
        targets = sorted(
            (t for t in self._automaton.targets(state, label) if len(t) == arity),
            key=repr,
        )
        sized = [(target, self._target_size(node, target)) for target in targets]
        positive = [(target, size) for target, size in sized if size > 0]
        sizes = [size for _, size in positive]
        cdf: List[float] = []
        if sizes:
            weights = np.asarray(sizes, dtype=float)
            cdf = choice_cdf(weights / weights.sum())
        union = _Union(
            targets=[target for target, _ in positive],
            sizes=sizes,
            cdf=cdf,
            disjoint=len(positive) == 1
            or (self._hints is not None and self._hints(state, label)),
        )
        self._unions[key] = union
        return union

    def _estimate_union(self, node: NodeId, state: State, label: Label) -> float:
        if not self._tree.children_of(node):
            # Leaf: the only labelling of the subtree is {node: label}.
            return 1.0 if () in self._automaton.targets(state, label) else 0.0
        union = self._union(node, state, label)
        if not union.targets:
            return 0.0
        if union.disjoint:
            # One target, or certified pairwise-disjoint target languages:
            # exact sum.
            return sum(union.sizes)
        # Karp–Luby union estimation.
        successes = 0
        samples = self._samples_per_union
        for _ in range(samples):
            index = draw_index(union.cdf, self._rng)
            element = self._sample_target(node, union.targets[index])
            if element is None:
                continue
            if self._owner(node, union.targets, element) == index:
                successes += 1
        fraction = successes / samples if samples else 0.0
        return float(np.sum(union.sizes)) * fraction

    def _owner(
        self,
        node: NodeId,
        targets: Sequence[Target],
        element: Dict[NodeId, Labeling],
    ) -> Optional[int]:
        """Index of the first target whose (product of) child languages
        contains the sampled child labellings."""
        kids = self._tree.children_of(node)
        memos: List[Dict[Tuple[NodeId, State], bool]] = [{} for _ in kids]
        accepts_from = self._automaton.accepts_from
        for index, target in enumerate(targets):
            if all(
                accepts_from(self._tree, element[kid], kid, kid_state, memo)
                for kid, kid_state, memo in zip(kids, target, memos)
            ):
                return index
        return None

    # -------------------------------------------------------------- sampling
    def _sample_target(
        self, node: NodeId, target: Target
    ) -> Optional[Dict[NodeId, Labeling]]:
        """Sample child labellings (one labelling per child subtree) from the
        product language of ``target``."""
        kids = self._tree.children_of(node)
        result: Dict[NodeId, Labeling] = {}
        for child, child_state in zip(kids, target):
            labeling = self.sample(child, child_state)
            if labeling is None:
                return None
            result[child] = labeling
        return result

    def _label_table(self, node: NodeId, state: State) -> Tuple[List[Label], List[float]]:
        key = (node, state)
        table = self._label_tables.get(key)
        if table is None:
            per_label = self._label_estimates[key]
            labels = sorted(per_label, key=repr)
            weights = np.asarray([per_label[label] for label in labels], dtype=float)
            table = (labels, choice_cdf(weights / weights.sum()))
            self._label_tables[key] = table
        return table

    def sample(self, node: NodeId, state: State, max_attempts: int = 64) -> Optional[Labeling]:
        """An (approximately uniform) accepted labelling of the subtree rooted
        at ``node`` started in ``state``; ``None`` if the language is empty."""
        if self.estimate(node, state) <= 0:
            return None
        labels, label_cdf = self._label_table(node, state)
        label = labels[draw_index(label_cdf, self._rng)]
        if not self._tree.children_of(node):
            return {node: label}
        # The label has a positive estimate, so its union has targets.
        union = self._union(node, state, label)
        element = None
        for _ in range(max_attempts):
            index = draw_index(union.cdf, self._rng)
            element = self._sample_target(node, union.targets[index])
            if element is None:
                continue
            if union.disjoint or self._owner(node, union.targets, element) == index:
                return _compose(node, label, element)
        if element is None:
            return None
        # Fall back to the last sample even if rejection failed repeatedly
        # (introduces a small bias but guarantees termination); counted.
        self.fallback_samples += 1
        return _compose(node, label, element)


def _compose(node: NodeId, label: Label, element: Dict[NodeId, Labeling]) -> Labeling:
    """The labelling of ``node``'s subtree: ``label`` at ``node`` over the
    sampled child labellings."""
    labeling: Labeling = {node: label}
    for child_labeling in element.values():
        labeling.update(child_labeling)
    return labeling


def _enumerate_trees(size: int) -> Iterable[RootedTree]:
    """Enumerate all rooted trees with ``size`` nodes and at most two children
    per node (children are ordered).  Node identifiers are assigned in
    preorder.  Exponential — testing helper only."""
    if size <= 0:
        return

    def build(count: int, next_id: int) -> Iterable[Tuple[Dict[NodeId, Tuple[NodeId, ...]], NodeId, int]]:
        """Yield (children-map, root, next_free_id) for trees with ``count``
        nodes whose identifiers start at ``next_id``."""
        root = next_id
        if count == 1:
            yield {root: ()}, root, next_id + 1
            return
        # One child taking all remaining nodes.
        for child_map, child_root, free in build(count - 1, next_id + 1):
            children = dict(child_map)
            children[root] = (child_root,)
            yield children, root, free
        # Two children splitting the remaining nodes.
        for left_size in range(1, count - 1):
            right_size = count - 1 - left_size
            for left_map, left_root, middle in build(left_size, next_id + 1):
                for right_map, right_root, free in build(right_size, middle):
                    children = dict(left_map)
                    children.update(right_map)
                    children[root] = (left_root, right_root)
                    yield children, root, free

    for children_map, root, _ in build(size, 0):
        yield RootedTree(root=root, children=children_map)
