"""Columnar (struct-of-arrays) relation storage over an interned universe.

This is the data layer behind ``engine="columnar"`` in
:mod:`repro.relational.csp`: relations are stored as one contiguous int32
array per position — the struct-of-arrays idiom — over a per-structure
*interned universe* (a stable value <-> int32 code bijection), so that

* constraint-consistency checks become vectorized row-mask intersections,
* GAC support counting becomes ``np.bincount`` arithmetic, and
* bag joins (:mod:`repro.core.bag_solutions`) and the join–project
  elimination of ``CSPInstance.count_answers`` become sort/merge joins on
  packed int64 row keys (:func:`packed_keys`).

Code assignment is the load-bearing determinism trick: codes are assigned by
position in the **repr-sorted** universe (exactly
:meth:`Structure.canonical_universe` order), so ascending code order over any
subset equals ``sorted(subset, key=repr)`` — the canonical value order the
indexed engine uses.  A columnar search that walks codes in ascending order
therefore reproduces the indexed engine's enumeration order bit for bit.

Everything here degrades gracefully: when NumPy is not installed
(``HAS_NUMPY`` is ``False``) or a universe exceeds the int32 code space, the
builders return ``None`` and callers fall back to the indexed engine.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

try:  # pragma: no cover - exercised via the HAS_NUMPY monkeypatch tests
    import numpy as np

    HAS_NUMPY = True
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]
    HAS_NUMPY = False

Value = Hashable

#: Largest universe representable in int32 codes.  Module-level (rather than
#: inlined) so tests can monkeypatch it down to force the overflow fallback.
_INT32_LIMIT = 2**31 - 1

#: Largest int64 value: the bound :func:`packed_keys` keeps every key under.
_INT64_LIMIT = 2**63 - 1


def columnar_available() -> bool:
    """Whether the columnar engine can run at all (NumPy importable)."""
    return HAS_NUMPY


class UniverseEncoder:
    """A stable value <-> int32 code bijection over an ordered universe.

    ``values`` must already be in canonical (repr-sorted) order; codes are
    positions in that order, so ``code_a < code_b`` iff ``repr(value_a)``
    sorts before ``repr(value_b)`` — see the module docstring.
    """

    __slots__ = ("values", "code_of")

    def __init__(self, values: Sequence[Value]) -> None:
        self.values: Tuple[Value, ...] = tuple(values)
        self.code_of: Dict[Value, int] = {
            value: code for code, value in enumerate(self.values)
        }

    def __len__(self) -> int:
        return len(self.values)

    def decode(self, code: int) -> Value:
        return self.values[code]

    def encode_facts(self, facts: Iterable[Tuple[Value, ...]], arity: int):
        """Encode an iterable of equal-arity tuples into an ``(n, arity)``
        int32 array, or ``None`` if some value is outside the universe."""
        code_of = self.code_of
        flat: List[int] = []
        try:
            for fact in facts:
                for value in fact:
                    flat.append(code_of[value])
        except KeyError:
            return None
        if arity == 0:
            return np.zeros((len(flat), 0), dtype=np.int32)
        array = np.fromiter(flat, dtype=np.int32, count=len(flat))
        return array.reshape(-1, arity)


def build_encoder(ordered_values: Sequence[Value]) -> Optional[UniverseEncoder]:
    """An encoder over ``ordered_values`` (already canonical-ordered), or
    ``None`` when NumPy is missing or the universe exceeds int32 codes."""
    if not HAS_NUMPY:
        return None
    if len(ordered_values) > _INT32_LIMIT:
        return None
    return UniverseEncoder(ordered_values)


class ColumnarRelation:
    """One relation stored column-wise: per position a contiguous int32 code
    array, plus a per-column stable argsort and its sorted codes (the
    group-boundary index — ``rows_matching`` binary-searches the sorted codes
    for a value's contiguous row group)."""

    __slots__ = ("encoder", "arity", "num_rows", "columns", "orders", "sorted_codes")

    def __init__(self, encoder: UniverseEncoder, arity: int, matrix) -> None:
        self.encoder = encoder
        self.arity = arity
        self.num_rows = int(matrix.shape[0])
        self.columns: Tuple = tuple(
            np.ascontiguousarray(matrix[:, position]) for position in range(arity)
        )
        orders = []
        sorted_codes = []
        for column in self.columns:
            order = np.argsort(column, kind="stable")
            orders.append(order)
            sorted_codes.append(column[order])
        self.orders: Tuple = tuple(orders)
        self.sorted_codes: Tuple = tuple(sorted_codes)

    @classmethod
    def from_facts(
        cls,
        facts: Iterable[Tuple[Value, ...]],
        arity: int,
        encoder: UniverseEncoder,
    ) -> Optional["ColumnarRelation"]:
        matrix = encoder.encode_facts(facts, arity)
        if matrix is None:
            return None
        return cls(encoder, arity, matrix)

    def rows_matching(self, position: int, code: int):
        """Row ids (ascending, unique) holding ``code`` at ``position``."""
        sorted_codes = self.sorted_codes[position]
        lo = int(np.searchsorted(sorted_codes, code, side="left"))
        hi = int(np.searchsorted(sorted_codes, code, side="right"))
        return self.orders[position][lo:hi]

    def matrix(self):
        """The ``(num_rows, arity)`` code matrix (a fresh stack)."""
        if self.arity == 0:
            return np.zeros((self.num_rows, 0), dtype=np.int32)
        return np.stack(self.columns, axis=1)


# --------------------------------------------------------------- join kernels
def packed_keys(*matrices):
    """One int64 key per row of each ``(n, s)`` non-negative code matrix:
    equal rows get equal keys, and keys sort like the rows
    (lexicographically), across all the matrices together.

    Column by column the key grows as ``key * base + code``, where ``base``
    bounds the column's codes; a prefix whose next step would overflow
    int64 is first rank-compressed (``np.unique``'s inverse over every
    matrix), which keeps both properties.
    """
    keys = [np.zeros(matrix.shape[0], dtype=np.int64) for matrix in matrices]
    span = 1  # every key so far lies in [0, span)
    for position in range(matrices[0].shape[1]):
        columns = [matrix[:, position] for matrix in matrices]
        base = 1 + max((int(column.max()) for column in columns if column.size), default=0)
        if span > _INT64_LIMIT // base:
            ranks, inverse = np.unique(np.concatenate(keys), return_inverse=True)
            bounds = np.cumsum([key.size for key in keys])[:-1]
            keys = np.split(inverse.reshape(-1).astype(np.int64), bounds)
            span = max(ranks.size, 1)
        for key, column in zip(keys, columns):
            key *= base
            key += column
        span *= base
    return keys


def matching_pairs(left_keys, right_keys, limit: Optional[int] = None):
    """Equi-join two key matrices: return ``(left_rows, right_rows)`` index
    arrays such that ``left_keys[left_rows[i]] == right_keys[right_rows[i]]``
    for every matching pair — left rows ascending, and each left row's
    partners in ascending right-row order.

    Both inputs are ``(n, s)`` int arrays over the same code space.  Each
    row collapses to one :func:`packed_keys` integer, the right keys are
    stably sorted and every left key binary-searches its run — no
    Python-level hashing per row.  The output size is known from the run
    lengths before any pair is materialised: with ``limit`` set, a join of
    more than ``limit`` pairs returns ``None`` instead.
    """
    num_left = left_keys.shape[0]
    num_right = right_keys.shape[0]
    if num_left == 0 or num_right == 0:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty
    left_packed, right_packed = packed_keys(left_keys, right_keys)
    right_order = np.argsort(right_packed, kind="stable")
    right_sorted = right_packed[right_order]
    lo = np.searchsorted(right_sorted, left_packed, side="left")
    hi = np.searchsorted(right_sorted, left_packed, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if limit is not None and total > limit:
        return None
    if total == 0:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty
    left_rows = np.repeat(np.arange(num_left, dtype=np.intp), counts)
    # Pair k of left row i takes right position lo[i] + (k - first pair of i).
    positions = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    positions += np.arange(total, dtype=np.intp)
    return left_rows, right_order[positions]


def cross_pairs(num_left: int, num_right: int):
    """Index arrays realizing the cartesian product of two row sets."""
    left_rows = np.repeat(np.arange(num_left, dtype=np.intp), num_right)
    right_rows = np.tile(np.arange(num_right, dtype=np.intp), num_left)
    return left_rows, right_rows


def distinct_rows(matrix):
    """The distinct rows of a code matrix, in lexicographic order."""
    if matrix.shape[0] == 0 or matrix.shape[1] == 0:
        return matrix[:1] if matrix.shape[1] == 0 and matrix.shape[0] else matrix
    (keys,) = packed_keys(matrix)
    # Rows with equal keys are equal, so an unstable sort picks as good a
    # representative as any.
    order = np.argsort(keys)
    ordered = keys[order]
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return matrix[order[first]]
