"""Random-number-generator plumbing.

All randomised algorithms in this package accept either an integer seed, an
existing :class:`numpy.random.Generator`, or ``None`` (fresh entropy).  This
module centralises the conversion so that every algorithm is reproducible when
given a seed and so that independent sub-algorithms can be handed independent
generators derived from a single seed.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

RNGLike = Union[None, int, np.random.Generator]


def as_generator(rng: RNGLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``rng``.

    ``rng`` may be ``None`` (fresh, non-reproducible entropy), an ``int`` seed,
    or an existing generator (returned unchanged).
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"cannot interpret {rng!r} as a random generator or seed")


def spawn_generators(rng: RNGLike, count: int) -> List[np.random.Generator]:
    """Derive ``count`` statistically independent generators from ``rng``.

    Used when a driver algorithm delegates to several Monte-Carlo
    sub-routines that must not share random streams (e.g. the repetitions in
    the median-amplification step of Lemma 22).
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    generator = as_generator(rng)
    seeds = generator.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(seed)) for seed in seeds]


def derive_seed(master_seed: int, *path: int) -> int:
    """Derive a deterministic child seed from ``master_seed`` and an index
    path, via :class:`numpy.random.SeedSequence`.

    Used by the batch-execution service to hand every task its own
    statistically independent stream while keeping the overall run
    reproducible from one integer: task ``i`` of a batch seeded with ``s``
    always counts with ``derive_seed(s, i)``, whether it runs serially, in a
    thread, or in a worker process — so a direct library call with the same
    derived seed reproduces the service's estimate exactly.
    """
    if not all(isinstance(part, (int, np.integer)) for part in (master_seed, *path)):
        raise TypeError("derive_seed takes integer seeds and indices")
    sequence = np.random.SeedSequence([int(master_seed), *[int(part) for part in path]])
    return int(sequence.generate_state(1, dtype=np.uint64)[0])


def random_subset(items: Iterable, probability: float, rng: RNGLike = None) -> list:
    """Return a random subset of ``items`` keeping each item independently
    with the given probability."""
    generator = as_generator(rng)
    items = list(items)
    if not items:
        return []
    keep = generator.random(len(items)) < probability
    return [item for item, kept in zip(items, keep) if kept]


def random_coin(probability: float, rng: RNGLike = None) -> bool:
    """Flip a biased coin that lands heads with the given probability."""
    return bool(as_generator(rng).random() < probability)


def shuffled(items: Iterable, rng: RNGLike = None) -> list:
    """Return a new list containing ``items`` in uniformly random order."""
    generator = as_generator(rng)
    items = list(items)
    generator.shuffle(items)
    return items


def random_choice(items: Iterable, rng: RNGLike = None):
    """Pick a uniformly random element of ``items`` (which must be non-empty)."""
    items = list(items)
    if not items:
        raise ValueError("cannot choose from an empty collection")
    generator = as_generator(rng)
    return items[int(generator.integers(0, len(items)))]


def choice_cdf(p: Sequence[float]) -> List[float]:
    """The cumulative table ``Generator.choice(len(p), p=p)`` searches.

    Built with exactly NumPy's operations (``cumsum``, then division by the
    last entry), so :func:`draw_index` over it returns the index ``choice``
    would for the same generator state.  Callers that draw repeatedly from
    one distribution build the table once and keep it.  Like ``choice``, it
    rejects negative (or NaN) probabilities.
    """
    p = np.asarray(p, dtype=float)
    if not (p >= 0).all():
        raise ValueError("probabilities must be non-negative")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def draw_index(cdf: Sequence[float], generator: np.random.Generator) -> int:
    """Draw an index from a :func:`choice_cdf` table.

    Consumes one ``generator.random()`` and returns its right insertion
    point in ``cdf`` — the draw ``Generator.choice(n, p=p)`` makes — so the
    index and the generator's stream afterwards match ``choice`` exactly, at
    a fraction of its per-call cost.
    """
    return bisect_right(cdf, generator.random())


def weighted_choice(items: Iterable, weights: Iterable[float], rng: RNGLike = None):
    """Pick an element of ``items`` with probability proportional to ``weights``."""
    items = list(items)
    weights_array = np.asarray(list(weights), dtype=float)
    if len(items) != len(weights_array):
        raise ValueError("items and weights must have the same length")
    if len(items) == 0:
        raise ValueError("cannot choose from an empty collection")
    total = weights_array.sum()
    if total <= 0:
        raise ValueError("weights must have a positive sum")
    generator = as_generator(rng)
    return items[draw_index(choice_cdf(weights_array / total), generator)]
