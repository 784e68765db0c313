"""The observed-cost model: turn profile sketches into latency predictions.

PR 7 built the measurement feed — :class:`~repro.obs.profile.ProfileStore`
records a latency sketch per (canonical form, database-size bucket, scheme,
engine) on every execution — and this module is the decision side of that
loop (ROADMAP item 4): a :class:`CostModel` reads the sketches back as
per-scheme **predictions** the planner can compare against a per-request
latency budget.

Design rules, all load-bearing:

* **Predictions are p95-based.**  A plan that fits the budget "on average"
  still blows it one run in three; the p95 of the observed sketch is the
  honest number to admit against a latency budget, and the interpolated
  fixed-bucket estimate is deterministic in the sketch alone.
* **Cold means cold.**  A (form, bucket, scheme, engine) with fewer than
  ``min_observations`` recorded runs yields an explicit
  :attr:`CostPrediction.cold` verdict rather than a guess; the planner falls
  back to the paper's Figure-1 dichotomy for schemes it has not measured.
  Observations from *other* size buckets are never borrowed — the
  exact-vs-approximate tradeoff is precisely what moves across buckets.
* **Prediction is pure.**  ``predict()`` is a deterministic function of the
  profile snapshot and its arguments: same snapshot + same request ⇒ same
  predictions ⇒ same plan.  :attr:`snapshot_token` exposes the store's
  monotone version so plan caches can key on "which snapshot predicted
  this".
* **Predicting never mutates.**  The model only reads the store; recording
  stays the service's job, after real executions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.obs.profile import ProfileStore, fingerprint_class

__all__ = ["CostModel", "CostPrediction", "PREDICTION_BASIS"]

#: The quantile predictions are read at (admitting against a latency budget
#: wants a high quantile, not the mean).
PREDICTION_BASIS = "p95"


@dataclass(frozen=True)
class CostPrediction:
    """One scheme's predicted latency for one (form, size-bucket, engine).

    ``seconds is None`` iff the prediction is **cold** (fewer than the
    model's ``min_observations`` recorded runs) — the planner must then fall
    back to the dichotomy rather than trust a thin sketch.
    """

    scheme: str
    engine: str
    fingerprint_class: int
    #: Predicted seconds (the sketch's p95); ``None`` when cold.
    seconds: Optional[float]
    #: Recorded runs backing the prediction (0 when nothing was observed).
    runs: int

    @property
    def cold(self) -> bool:
        return self.seconds is None


class CostModel:
    """Per-scheme latency predictions over one :class:`ProfileStore`.

    Shared by the planner (scheme selection under a budget) and the standing
    subscriptions (drift detection: rolling predicted-vs-actual error).
    """

    def __init__(self, profiles: ProfileStore, min_observations: int = 3) -> None:
        if min_observations < 1:
            raise ValueError("min_observations must be at least 1")
        self.profiles = profiles
        self.min_observations = int(min_observations)

    @property
    def snapshot_token(self) -> int:
        """The profile store's monotone version — changes whenever any
        sketch changes, so it identifies the snapshot predictions came
        from."""
        return self.profiles.version

    def predict(
        self,
        canonical_key: str,
        database_size: int,
        scheme: str,
        engine: str,
    ) -> CostPrediction:
        """Predict one scheme's latency for this canonical form at this
        database size (cold when under-observed in this exact bucket)."""
        bucket = fingerprint_class(database_size)
        profile = self.profiles.get(canonical_key, database_size, scheme, engine)
        runs = 0 if profile is None else profile.runs
        if profile is None or runs < self.min_observations:
            return CostPrediction(
                scheme=scheme,
                engine=engine,
                fingerprint_class=bucket,
                seconds=None,
                runs=runs,
            )
        return CostPrediction(
            scheme=scheme,
            engine=engine,
            fingerprint_class=bucket,
            seconds=profile.latency.quantile(0.95),
            runs=runs,
        )

    def predict_schemes(
        self,
        canonical_key: str,
        database_size: int,
        schemes: Sequence[str],
        engine: str,
    ) -> Dict[str, CostPrediction]:
        """Predictions for every candidate scheme, in the given order."""
        return {
            scheme: self.predict(canonical_key, database_size, scheme, engine)
            for scheme in schemes
        }
