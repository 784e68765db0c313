"""``repro.stream``: incremental maintenance of counts under live updates.

The paper treats the database as fixed; this subsystem keeps answer counts
*live* while facts are inserted and deleted, instead of recounting from
scratch after every mutation.  It builds on three pieces of earlier
infrastructure: the relational layer's per-relation version counters and
:meth:`~repro.relational.structure.Structure.remove_fact` /
:class:`~repro.relational.changelog.ChangeLog` change capture, the
prepare-once/count-many compilation layer, and the service's
fingerprint-keyed result cache.

* :mod:`repro.stream.delta` — exact delta counting: turn the net fact delta
  between two database states into ``count(new) - count(old)`` by pinning
  delta facts into the CSP/join engine (candidate answers of the pinned
  instances, confirmed by one batched answer search per side).
* :mod:`repro.stream.live` — :class:`~repro.stream.live.CountSubscription` /
  :class:`~repro.stream.live.LiveCount`: the handles
  ``CountingService.subscribe`` returns, with eager / debounced / budget
  refresh policies and staleness metadata on every read.
* :mod:`repro.stream.workload` — randomized interleaved
  insert/delete/query schedules and the replay driver behind
  ``python -m repro stream`` and ``record_perf.py --suite stream``.

See DESIGN.md ("The streaming layer") for the architecture.
"""

from repro.stream.delta import delta_applicable, delta_count_exact
from repro.stream.live import (
    EXACT_SCHEMES,
    REFRESH_POLICIES,
    CountSubscription,
    LiveCount,
)
from repro.stream.workload import (
    DEFAULT_MIX,
    StreamEvent,
    StreamReport,
    run_stream,
    stream_schedule,
)

__all__ = [
    "delta_applicable",
    "delta_count_exact",
    "CountSubscription",
    "LiveCount",
    "REFRESH_POLICIES",
    "EXACT_SCHEMES",
    "StreamEvent",
    "StreamReport",
    "stream_schedule",
    "run_stream",
    "DEFAULT_MIX",
]
