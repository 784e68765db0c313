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

* the automaton model and its memoised acceptance test
  (:meth:`TreeAutomaton.accepts`), one routine over preorder label tuples
  that the sampler's ownership checks share,
* brute-force counting of accepted labellings (tests / tiny instances),
* :class:`LanguageEstimator` (behind :meth:`TreeAutomaton.count_labelings`
  and :meth:`TreeAutomaton.sample_labeling`) — an ACJR-inspired approximate
  counter and sampler: a bottom-up dynamic program over (node, state) pairs
  that is exact at nodes whose transition targets form products or disjoint
  unions, and uses Karp–Luby union estimation with recursive
  approximate-uniform sampling where target languages may overlap (exactly
  the situation created by existential variables).  See DESIGN.md,
  substitution 3, for how this relates to the original ACJR construction,
  why its table-driven draws reproduce ``Generator.choice`` exactly, and why
  an ownership check may skip the drawn target.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
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
    Set,
    Tuple,
)

import numpy as np

from repro.util.estimation import UNDERIVED, Budget
from repro.util.rng import RNGLike, as_generator, choice_cdf

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
    """A rooted tree with at most two (ordered) children per node.

    Nodes are also numbered by preorder *position*: the root is position 0
    and the subtree of position ``i`` occupies positions
    ``[i, i + size_i)``, so a labelling of that subtree is a tuple of labels
    in preorder and a parent's is its label followed by its children's."""

    root: NodeId
    children: Mapping[NodeId, Tuple[NodeId, ...]]
    _children_of: Dict[NodeId, Tuple[NodeId, ...]] = field(
        init=False, repr=False, compare=False
    )
    #: The nodes in preorder (position -> node) and its inverse.
    _order: Tuple[NodeId, ...] = field(init=False, repr=False, compare=False)
    _position: Dict[NodeId, int] = field(init=False, repr=False, compare=False)
    #: Subtree size and child positions per position.
    _sizes: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    _kid_positions: Tuple[Tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for node, kids in self.children.items():
            if len(kids) > 2:
                raise ValueError(f"node {node!r} has more than two children")
        children_of = {node: tuple(kids) for node, kids in self.children.items()}
        order: List[NodeId] = []
        stack = [self.root]
        while stack:
            current = stack.pop()
            order.append(current)
            stack.extend(reversed(children_of.get(current, ())))
        position = {node: index for index, node in enumerate(order)}
        kid_positions = tuple(
            tuple(position[kid] for kid in children_of.get(node, ())) for node in order
        )
        sizes = [1] * len(order)
        for index in reversed(range(len(order))):
            sizes[index] += sum(sizes[kid] for kid in kid_positions[index])
        object.__setattr__(self, "_children_of", children_of)
        object.__setattr__(self, "_order", tuple(order))
        object.__setattr__(self, "_position", position)
        object.__setattr__(self, "_sizes", tuple(sizes))
        object.__setattr__(self, "_kid_positions", kid_positions)

    def nodes(self) -> List[NodeId]:
        """All nodes in root-to-leaf (preorder) order."""
        return list(self._order)

    def bottom_up(self) -> List[NodeId]:
        return list(reversed(self._order))

    def children_of(self, node: NodeId) -> Tuple[NodeId, ...]:
        return self._children_of.get(node, ())

    def size(self) -> int:
        return len(self._order)


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

    # ------------------------------------------------------------- acceptance
    def _membership(self, tree: RootedTree) -> Callable[[int, State, Tuple[Label, ...]], bool]:
        """The membership test over ``tree``: ``member(position, state,
        labels)`` says whether the subtree at preorder ``position``, labelled
        by the tuple ``labels`` (its labels in preorder), admits an accepting
        run started in ``state``.

        Top-down, so only the (position, state) pairs some transition
        actually probes are evaluated, and memoised by
        ``(position, state, labels)``: the verdict is a fact about the
        labelled subtree, so one test serves any number of labellings.
        """
        transitions = self._transitions
        kid_positions = tree._kid_positions
        sizes = tree._sizes
        memo: Dict[Tuple[int, State, Tuple[Label, ...]], bool] = {}

        def member(position: int, state: State, labels: Tuple[Label, ...]) -> bool:
            key = (position, state, labels)
            known = memo.get(key)
            if known is not None:
                return known
            kids = kid_positions[position]
            # Each child's labels: the next sizes[kid] entries after the parent's.
            parts, start = [], 1
            for kid in kids:
                parts.append(labels[start : start + sizes[kid]])
                start += sizes[kid]
            accepted = any(
                len(target) == len(kids)
                and all(map(member, kids, target, parts))
                for target in transitions.get((state, labels[0]), ())
            )
            memo[key] = accepted
            return accepted

        return member

    def accepts(self, tree: RootedTree, labeling: Labeling) -> bool:
        """Whether the automaton accepts the labelled tree (Definition 50)."""
        missing = [node for node in tree.nodes() if node not in labeling]
        if missing:
            raise ValueError(f"labeling is missing nodes {missing!r}")
        labels = tuple(labeling[node] for node in tree._order)
        return self._membership(tree)(0, self._initial, labels)

    # ---------------------------------------------------- brute-force counting
    def count_labelings_bruteforce(self, tree: RootedTree) -> int:
        """The number of labellings of ``tree`` accepted by the automaton, by
        exhaustive enumeration over ``|Sigma|^{|tree|}`` labellings (tests and
        tiny instances only)."""
        member = self._membership(tree)
        alphabet = sorted(self._alphabet, key=repr)
        return sum(
            member(0, self._initial, labels)
            for labels in itertools.product(alphabet, repeat=tree.size())
        )

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
        return LanguageEstimator(
            automaton=self,
            tree=tree,
            rng=as_generator(rng),
            budget=Budget(epsilon, delta),
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
    """The targets of one ``(position, state, label)`` whose product languages
    are non-empty, in the fixed (repr) order, with what drawing among them
    needs.  Fixed once built: it reads only child estimates, which never
    change."""

    targets: List[Target]
    #: Estimated product-language size of each target.
    sizes: List[float]
    #: :func:`choice_cdf` of the sizes, normalised as ``sizes / sizes.sum()``.
    cdf: List[float]
    #: One target, or target languages certified pairwise disjoint: a draw
    #: needs no rejection step and the union size is the exact sum.
    disjoint: bool


class _DrawTable(NamedTuple):
    """Everything one draw from ``L(position, state)`` reads: the labels with
    a positive estimate in repr order, the :func:`choice_cdf` of their
    estimates, and each label's union (``None`` at a leaf)."""

    labels: List[Label]
    cdf: List[float]
    unions: List[Optional[_Union]]


class LanguageEstimator:
    """Bottom-up estimator of ``|L(node, state)|`` — the number of accepted
    labellings of the subtree rooted at ``node`` when started in ``state`` —
    with a companion approximate-uniform sampler.  Implements the scheme
    described in the module docstring.

    Internally a node is its preorder position in the tree and a sampled
    labelling is the tuple of its labels in preorder (see
    :class:`RootedTree`), so composing a sample is tuple concatenation; only
    the public :meth:`sample` builds a dict.
    """

    def __init__(
        self,
        automaton: TreeAutomaton,
        tree: RootedTree,
        rng: np.random.Generator,
        budget: Budget,
        disjoint_union_hints: Optional[Callable[[State, Label], bool]],
        samples_per_union: Optional[int],
    ) -> None:
        self._automaton = automaton
        self._tree = tree
        self._kids = tree._kid_positions
        self._random = rng.random
        self._budget = budget
        self._hints = disjoint_union_hints
        if samples_per_union is None:
            samples_per_union = int(min(max(64, math.ceil(12.0 / (budget.epsilon ** 2))), 4000))
        self._samples_per_union = samples_per_union
        #: Karp–Luby union estimates made and not yet recorded in the ledger.
        self._sampled_unions = 0
        self._estimates: Dict[Tuple[int, State], float] = {}
        # The labels with a positive estimate of |U(position, state, label)|,
        # in repr order, with that estimate and the label's union.
        self._per_label: Dict[Tuple[int, State], List[Tuple[Label, float, Optional[_Union]]]] = {}
        # Draw tables, built on first draw from estimates that are final by then.
        self._tables: Dict[Tuple[int, State], _DrawTable] = {}
        # Membership of sampled sub-labellings, shared by every ownership check.
        self._member = automaton._membership(tree)
        #: How often :meth:`sample` returned its last rejected sample after
        #: ``max_attempts`` failed rejection checks (each one a biased draw).
        self.fallback_samples = 0

    # ------------------------------------------------------------ estimation
    def count(self) -> float:
        """The estimate of the whole language: the root in the initial state.
        Its unions' sample count is not derived from the budget (underived)."""
        estimate = self._estimate(0, self._automaton.initial_state)
        site = f"tree_automaton.union[{self._samples_per_union} samples]"
        self._budget.spend(site, self._sampled_unions, UNDERIVED)
        self._sampled_unions = 0
        return estimate

    def estimate(self, node: NodeId, state: State) -> float:
        return self._estimate(self._tree._position[node], state)

    def _estimate(self, position: int, state: State) -> float:
        key = (position, state)
        known = self._estimates.get(key)
        if known is not None:
            return known
        kids = self._kids[position]
        per_label: List[Tuple[Label, float, Optional[_Union]]] = []
        total = 0.0
        for label in self._automaton.labels_from(state):
            union = None
            if not kids:
                # Leaf: the only labelling of the subtree is (label,).
                value = 1.0 if () in self._automaton.targets(state, label) else 0.0
            else:
                union = self._union(kids, state, label)
                value = self._estimate_union(union, kids)
            if value > 0:
                per_label.append((label, value, union))
                total += value
        self._estimates[key] = total
        self._per_label[key] = per_label
        return total

    def _union(self, kids: Tuple[int, ...], state: State, label: Label) -> _Union:
        targets = sorted(
            (t for t in self._automaton.targets(state, label) if len(t) == len(kids)),
            key=repr,
        )
        positive: List[Target] = []
        sizes: List[float] = []
        for target in targets:
            size = 1.0
            for kid, kid_state in zip(kids, target):
                size *= self._estimate(kid, kid_state)
            if size > 0:
                positive.append(target)
                sizes.append(size)
        cdf: List[float] = []
        if sizes:
            weights = np.asarray(sizes, dtype=float)
            cdf = choice_cdf(weights / weights.sum())
        return _Union(
            targets=positive,
            sizes=sizes,
            cdf=cdf,
            disjoint=len(positive) == 1
            or (self._hints is not None and self._hints(state, label)),
        )

    def _estimate_union(self, union: _Union, kids: Tuple[int, ...]) -> float:
        if not union.targets:
            return 0.0
        if union.disjoint:
            # One target, or certified pairwise-disjoint target languages:
            # exact sum.
            return sum(union.sizes)
        # Karp–Luby union estimation.
        self._sampled_unions += 1
        samples = self._samples_per_union
        successes = sum(self._attempt(union, kids)[1] for _ in range(samples))
        fraction = successes / samples if samples else 0.0
        return float(np.sum(union.sizes)) * fraction

    # -------------------------------------------------------------- sampling
    def _attempt(self, union: _Union, kids: Tuple[int, ...]) -> Tuple[Tuple[Label, ...], bool]:
        """One draw from ``union``: a target in proportion to its size, then
        one sample per child subtree from its product language.  Returns the
        children's labels (concatenated in preorder) and whether the drawn
        target owns them, i.e. is the first target whose product language
        contains them.  The sample lies in the drawn target's language by
        construction, so only the targets before it are checked."""
        index = bisect_right(union.cdf, self._random())
        target = union.targets[index]
        draw = self._draw
        member = self._member
        if len(kids) == 1:
            (kid,) = kids
            below = draw(kid, target[0])
            if not union.disjoint:
                for earlier in union.targets[:index]:
                    if member(kid, earlier[0], below):
                        return below, False
            return below, True
        left_kid, right_kid = kids
        left = draw(left_kid, target[0])
        right = draw(right_kid, target[1])
        if not union.disjoint:
            for earlier in union.targets[:index]:
                if member(left_kid, earlier[0], left) and member(right_kid, earlier[1], right):
                    return left + right, False
        return left + right, True

    def _table(self, key: Tuple[int, State]) -> _DrawTable:
        per_label = self._per_label[key]
        weights = np.asarray([value for _, value, _ in per_label], dtype=float)
        table = _DrawTable(
            labels=[label for label, _, _ in per_label],
            cdf=choice_cdf(weights / weights.sum()),
            unions=[union for _, _, union in per_label],
        )
        self._tables[key] = table
        return table

    def _draw(self, position: int, state: State, max_attempts: int = 64) -> Tuple[Label, ...]:
        """A sample of ``L(position, state)``, whose estimate is positive, as
        the tuple of its labels in preorder."""
        key = (position, state)
        table = self._tables.get(key)
        if table is None:
            table = self._table(key)
        index = bisect_right(table.cdf, self._random())
        label = table.labels[index]
        kids = self._kids[position]
        if not kids:
            return (label,)
        # The label has a positive estimate, so its union has targets.
        union = table.unions[index]
        for _ in range(max_attempts):
            below, owned = self._attempt(union, kids)
            if owned:
                return (label,) + below
        # Fall back to the last sample even if rejection failed repeatedly
        # (introduces a small bias but guarantees termination); counted.
        self.fallback_samples += 1
        return (label,) + below

    def sample(self, node: NodeId, state: State, max_attempts: int = 64) -> Optional[Labeling]:
        """An (approximately uniform) accepted labelling of the subtree rooted
        at ``node`` started in ``state``; ``None`` if the language is empty."""
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        position = self._tree._position[node]
        if self._estimate(position, state) <= 0:
            return None
        labels = self._draw(position, state, max_attempts)
        return dict(zip(self._tree._order[position:], labels))


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
