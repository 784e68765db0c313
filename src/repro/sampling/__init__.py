"""Approximate uniform sampling of query answers (Section 6).

The paper notes that all of its counting problems are self-partitionable, so
approximate counting and approximately uniform sampling are interchangeable
(Jerrum–Valiant–Vazirani).  :func:`sample_answers` implements the standard
self-reducibility sampler on top of the package's counters.
"""

from repro.sampling.jvv import sample_answers

__all__ = ["sample_answers"]
