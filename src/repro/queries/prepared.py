"""The :class:`PreparedQuery` compilation layer: compile once, count many.

Every algorithm of the paper consumes per-*query* artifacts — the hypergraph
``H(phi)`` (Definition 3), its width profile (treewidth / hypertreewidth /
fractional hypertreewidth / adaptive width, Figure 1), and, for the Theorem-16
FPRAS, an fhw-optimal tree decomposition made nice (Lemmas 43/52).  These
artifacts depend only on the query's *shape*, never on the database, yet the
seed code recomputed them in four places (``classify_query``, the planner,
``fptras_count_*`` and ``fpras_count_cq``) on every call.

:class:`PreparedQuery` is the compiled form of one query shape:

* every artifact is **lazily memoised** — computed on first access, with
  per-artifact compute/hit counters so tests and benches can assert the
  "at most once per canonical query per process" contract;
* prepared queries are shared through a **process-wide LRU** keyed on the
  canonical query form (:func:`repro.queries.canonical.canonical_query_key`),
  so alpha-renamed copies of a query share one entry and one artifact set;
* variable-named artifacts (the decompositions) are stored in the variable
  space of the representative query (the first one prepared) and translated
  to any alpha-equivalent query's variables on demand — width *numbers* are
  renaming-invariant and shared as-is.

Consumers: the counting schemes accept a ``prepared=`` argument (and call
:func:`prepare` themselves when not given one), the planner and
``classify_query`` read the shared width profile, and
:class:`repro.core.registry.SchemeRegistry` dispatches every scheme over
prepared queries.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional, Tuple

from repro.decomposition.adaptive import (
    AdaptiveWidthEstimate,
    estimate_adaptive_width,
)
from repro.decomposition.fractional import fractional_hypertreewidth_decomposition
from repro.decomposition.hypertree import generalized_hypertreewidth
from repro.decomposition.nice import NiceTreeDecomposition, make_nice
from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.decomposition.treewidth import treewidth_decomposition
from repro.decomposition.widths import WidthProfile
from repro.hypergraph import Hypergraph
from repro.queries.canonical import canonical_query_key, canonical_variable_renaming
from repro.queries.query import ConjunctiveQuery, QueryClass
from repro.util.cache import CacheStats, LRUCache
from repro.util.rng import RNGLike

#: Default capacity of the process-wide prepared-query cache.  Each entry is
#: one query *shape* (a few decomposition nodes and width numbers), so the
#: footprint is small even at capacity.
DEFAULT_PREPARED_CACHE_SIZE = 256

#: How many *translated* decompositions (one per distinct variable renaming
#: of an alpha-equivalent caller) each prepared query memoises.  Beyond this,
#: translations are still served — recomputed from the stored decomposition,
#: a cheap rename — but not stored, so a long-running stream of fresh
#: renamings cannot grow a shape's memo without bound.
TRANSLATED_MEMO_LIMIT = 32


class PreparedQuery:
    """Compiled, shareable artifacts of one query shape.

    Construct via :func:`prepare` (which shares instances across
    alpha-renamed queries through the process-wide cache); constructing
    directly yields a private, uncached instance — the benches use that to
    measure the uncached cost.
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        canonical_key: Optional[str] = None,
        renaming: Optional[Dict[str, str]] = None,
    ) -> None:
        self._query = query
        if renaming is None:
            renaming = canonical_variable_renaming(query)
        #: representative variable -> canonical name (f0..., e0...).
        self._renaming = renaming
        self._canonical_key = canonical_key or canonical_query_key(
            query, renaming=renaming
        )
        self._query_class = query.query_class()
        self._lock = threading.RLock()
        self._memo: Dict[Any, Any] = {}
        self._counters: Dict[str, Dict[str, int]] = {}

    # ------------------------------------------------------------ memoisation
    def _get(self, name: str, key: Any, compute: Callable[[], Any]) -> Any:
        """Lazily compute and memoise one artifact, counting computes/hits.

        ``key`` extends ``name`` for artifacts parameterised beyond the query
        shape (e.g. translated decompositions, one per variable renaming);
        counters aggregate per ``name``.
        """
        with self._lock:
            counter = self._counters.setdefault(name, {"computes": 0, "hits": 0})
            if key in self._memo:
                counter["hits"] += 1
                return self._memo[key]
            value = compute()
            self._memo[key] = value
            counter["computes"] += 1
            return value

    def artifact_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-artifact ``{"computes": ..., "hits": ...}`` counters (the
        compile-once contract is ``computes <= 1`` for every shape-determined
        artifact)."""
        with self._lock:
            return {name: dict(counts) for name, counts in self._counters.items()}

    # ----------------------------------------------------------------- access
    @property
    def query(self) -> ConjunctiveQuery:
        """The representative query (the first one prepared for this shape)."""
        return self._query

    @property
    def canonical_key(self) -> str:
        """The canonical form shared by every alpha-renamed copy."""
        return self._canonical_key

    @property
    def query_class(self) -> QueryClass:
        return self._query_class

    def __repr__(self) -> str:
        return (
            f"PreparedQuery(class={self._query_class.value}, "
            f"key={self._canonical_key!r})"
        )

    # -------------------------------------------------- shape-level artifacts
    def hypergraph(self) -> Hypergraph:
        """``H(phi)`` of the representative query (Definition 3)."""
        return self._get("hypergraph", "hypergraph", self._query.hypergraph)

    def signature_arity(self) -> int:
        """``ar(sig(phi))``: the maximum relation arity (Theorem 5's ``a``)."""
        return self._get("signature_arity", "signature_arity", self._query.arity)

    def hypergraph_arity(self) -> int:
        """The hypergraph arity (maximum hyperedge size) of ``H(phi)``."""
        return self.hypergraph().arity()

    def treewidth(self) -> int:
        """``tw(H(phi))`` — exact on hypergraphs with at most
        :data:`~repro.decomposition.f_width.EXACT_F_WIDTH_LIMIT` vertices, a
        greedy upper bound beyond."""
        return self._get("treewidth", "treewidth", self._compute_treewidth)[0]

    def treewidth_is_exact(self) -> bool:
        """Whether :meth:`treewidth` is the exact treewidth (as opposed to a
        greedy upper bound); bound checks must not *reject* on upper bounds."""
        return self._get("treewidth", "treewidth", self._compute_treewidth)[1]

    def _compute_treewidth(self) -> Tuple[int, bool]:
        _, width, is_exact = treewidth_decomposition(self.hypergraph())
        return width, is_exact

    def hypertreewidth(self) -> Tuple[float, bool]:
        """``(hw(H(phi)), exact?)`` (generalized hypertreewidth)."""
        return self._get(
            "hypertreewidth",
            "hypertreewidth",
            lambda: generalized_hypertreewidth(self.hypergraph()),
        )

    def fhw_decomposition(self) -> Tuple[TreeDecomposition, float, bool]:
        """The Lemma-43 input: a tree decomposition (approximately) minimising
        fractional hypertreewidth, the achieved fhw, and whether it is exact —
        in the representative query's variable space."""
        return self._get(
            "fhw_decomposition",
            "fhw_decomposition",
            lambda: fractional_hypertreewidth_decomposition(self.hypergraph()),
        )

    def fractional_hypertreewidth(self) -> Tuple[float, bool]:
        """``(fhw(H(phi)), exact?)``."""
        _, width, is_exact = self.fhw_decomposition()
        return width, is_exact

    def adaptive_width_upper(self) -> Optional[float]:
        """The fhw-based upper bound on the adaptive width used by the
        Theorem-13 bound check (``aw <= fhw``, Lemma 12); ``None`` when fhw
        is only a greedy upper bound, mirroring the historical
        ``fptras_count_dcq`` behaviour (a heuristic fhw upper bound proves
        nothing about aw)."""
        fhw, is_exact = self.fractional_hypertreewidth()
        return fhw if is_exact else None

    def adaptive_width_estimate(self, rng: RNGLike = None) -> AdaptiveWidthEstimate:
        """Bracketing estimate of ``aw(H(phi))`` (Definition 33), its upper
        bound the memoised fhw.  Memoised on first use: the sampled lower
        bound of the first caller's ``rng`` is reused by everyone (the upper
        bound — all the algorithms need — is deterministic)."""
        return self._get(
            "adaptive_width_estimate",
            "adaptive_width_estimate",
            lambda: estimate_adaptive_width(
                self.hypergraph(), self.fractional_hypertreewidth()[0], rng=rng
            ),
        )

    def width_profile(self, rng: RNGLike = None) -> WidthProfile:
        """The full :class:`~repro.decomposition.widths.WidthProfile`, built
        from the individually memoised widths (same values as
        :func:`repro.decomposition.widths.width_profile` on ``H(phi)``)."""
        return self._get(
            "width_profile", "width_profile", lambda: self._compute_profile(rng)
        )

    def _compute_profile(self, rng: RNGLike) -> WidthProfile:
        hypergraph = self.hypergraph()
        hypertreewidth, hw_exact = self.hypertreewidth()
        fhw, fhw_exact = self.fractional_hypertreewidth()
        return WidthProfile(
            num_vertices=hypergraph.num_vertices(),
            num_edges=hypergraph.num_edges(),
            arity=hypergraph.arity(),
            treewidth=int(self.treewidth()),
            treewidth_exact=self.treewidth_is_exact(),
            hypertreewidth=float(hypertreewidth),
            hypertreewidth_exact=hw_exact,
            fractional_hypertreewidth=float(fhw),
            fractional_hypertreewidth_exact=fhw_exact,
            adaptive_width=self.adaptive_width_estimate(rng),
        )

    def classification(self, rng: RNGLike = None):
        """The Figure-1 instance report
        (:class:`repro.core.dichotomy.QueryReport`) over the shared width
        profile, memoised."""

        def compute():
            # Imported lazily: repro.core.dichotomy imports this module.
            from repro.core.dichotomy import classify_query

            return classify_query(self._query, profile=self.width_profile(rng))

        return self._get("classification", "classification", compute)

    # ------------------------------------------- caller-variable translations
    def renaming_for(self, query: ConjunctiveQuery) -> Optional[Dict[str, str]]:
        """The map *representative variable -> ``query`` variable* witnessing
        alpha-equivalence, or ``None`` when the names already coincide.

        Raises ``ValueError`` if ``query`` does not share this prepared
        query's canonical form (the two are then not known to be
        alpha-equivalent and no translation exists).
        """
        if query is self._query:
            return None
        other = canonical_variable_renaming(query)
        if canonical_query_key(query, renaming=other) != self._canonical_key:
            raise ValueError(
                "query does not match this prepared query's canonical form"
            )
        if other == self._renaming:
            return None
        inverse = {canonical: variable for variable, canonical in other.items()}
        return {
            variable: inverse[canonical]
            for variable, canonical in self._renaming.items()
        }

    def nice_decomposition(self) -> NiceTreeDecomposition:
        """The nice tree decomposition (Lemma 43) of the fhw-optimal
        decomposition, in the representative query's variable space."""
        return self._get(
            "nice_decomposition",
            "nice_decomposition",
            lambda: make_nice(self.fhw_decomposition()[0], self.hypergraph()),
        )

    def nice_decomposition_for(
        self, query: ConjunctiveQuery
    ) -> NiceTreeDecomposition:
        """The nice decomposition translated into ``query``'s variable names
        (``query`` must be alpha-equivalent); translations are memoised per
        renaming (at most :data:`TRANSLATED_MEMO_LIMIT` stored — beyond that
        they are recomputed per call, a cheap rename), and the identity
        renaming shares the stored object."""
        renaming = self.renaming_for(query)
        if renaming is None:
            return self.nice_decomposition()
        key = ("nice_translated", tuple(sorted(renaming.items())))
        with self._lock:
            counter = self._counters.setdefault(
                "nice_translated", {"computes": 0, "hits": 0}
            )
            if key in self._memo:
                counter["hits"] += 1
                return self._memo[key]
            value = self.nice_decomposition().rename_vertices(renaming)
            counter["computes"] += 1
            stored = sum(
                1
                for memo_key in self._memo
                if isinstance(memo_key, tuple)
                and memo_key
                and memo_key[0] == "nice_translated"
            )
            if stored < TRANSLATED_MEMO_LIMIT:
                self._memo[key] = value
            return value


# ----------------------------------------------------------- process-wide LRU
_PREPARED_CACHE = LRUCache(DEFAULT_PREPARED_CACHE_SIZE)
_PREPARE_LOCK = threading.Lock()


def prepare(query) -> PreparedQuery:
    """Compile ``query`` (or return its cached compilation).

    Idempotent on prepared queries: ``prepare(prepared)`` returns its
    argument.  Alpha-renamed copies of a query share one cache entry — the
    canonical query form is the key — and therefore one artifact set.
    """
    if isinstance(query, PreparedQuery):
        return query
    renaming = canonical_variable_renaming(query)
    key = canonical_query_key(query, renaming=renaming)
    prepared = _PREPARED_CACHE.get(key)
    if prepared is None:
        with _PREPARE_LOCK:
            prepared = _PREPARED_CACHE.peek(key)
            if prepared is None:
                prepared = PreparedQuery(query, canonical_key=key, renaming=renaming)
            _PREPARED_CACHE.put(key, prepared)
    return prepared


def prepared_cache_stats() -> CacheStats:
    """Hit/miss/eviction statistics of the process-wide prepared cache."""
    return _PREPARED_CACHE.stats()


def clear_prepared_cache() -> None:
    """Drop every cached prepared query (tests and benches use this to
    measure cold-start behaviour; statistics are preserved)."""
    _PREPARED_CACHE.clear()
