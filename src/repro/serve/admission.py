"""Admission control: per-tenant API keys with token-bucket quotas.

The server refuses work it cannot absorb *before* spending anything on it:

* **Authentication** — with tenants configured, every endpoint that runs
  service work (count, batch, plan, facts, subscribe) needs a known
  ``X-API-Key`` (401 otherwise); with none, the server is open and
  unmetered (development mode).  Stats, metrics and health are always open.
* **Rate limiting** — each tenant owns a :class:`TokenBucket` refilled at
  ``rate`` tokens/second up to ``burst``; a request costs one token (a batch
  one per entry of its ``requests`` array).  An empty bucket yields HTTP 429
  with a ``Retry-After`` telling the client exactly when a token will exist.
* The server's one admitted path calls :meth:`AdmissionController.admit`
  before its bounded request queue (backpressure) and before any parsing;
  this module is purely per-tenant policy.

Buckets take an injectable clock so tests replay quota decisions
deterministically.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: display name, API key, and quota (tokens/second + burst)."""

    name: str
    api_key: str
    rate: float = 50.0
    burst: float = 100.0

    def __post_init__(self) -> None:
        if not self.api_key:
            raise ValueError("tenant api_key must be non-empty")
        if self.rate <= 0 or self.burst < 1:
            raise ValueError(
                f"tenant {self.name!r} needs rate > 0 and burst >= 1"
            )


def parse_tenants(spec: Any) -> Tuple[TenantSpec, ...]:
    """Parse tenant specs from JSON text or a decoded list of dicts
    (``[{"name": ..., "key": ..., "rate": ..., "burst": ...}, ...]``)."""
    if isinstance(spec, str):
        spec = json.loads(spec)
    if not isinstance(spec, list):
        raise ValueError("tenants must be a JSON list of objects")
    tenants = []
    for entry in spec:
        if not isinstance(entry, dict) or "key" not in entry:
            raise ValueError(f"bad tenant entry {entry!r}; expected a 'key'")
        tenants.append(
            TenantSpec(
                name=str(entry.get("name", entry["key"])),
                api_key=str(entry["key"]),
                rate=float(entry.get("rate", 50.0)),
                burst=float(entry.get("burst", 100.0)),
            )
        )
    return tuple(tenants)


class TokenBucket:
    """A classic token bucket: ``burst`` capacity, ``rate`` tokens/second.

    :meth:`acquire` is all-or-nothing: it returns ``None`` on admission or
    the seconds until the requested tokens will exist (the 429's
    ``Retry-After``).  Thread-safe: every connection thread of the server
    calls it.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = self.burst
        self._updated = clock()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._updated)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._updated = now

    def acquire(self, cost: float = 1.0) -> Optional[float]:
        with self._lock:
            now = self._clock()
            self._refill(now)
            if self._tokens >= cost:
                self._tokens -= cost
                return None
            # Even a cost above burst gets a finite (if hopeless-looking)
            # retry hint rather than a lockout.
            deficit = min(cost, self.burst) - self._tokens
            return deficit / self.rate

    def available(self) -> float:
        with self._lock:
            self._refill(self._clock())
            return self._tokens


@dataclass(frozen=True)
class AdmissionDecision:
    """The verdict on one request: admitted, or an HTTP status + hint."""

    admitted: bool
    tenant: str
    status: int = 200
    reason: str = ""
    retry_after: Optional[float] = None


class AdmissionController:
    """Maps API keys to tenants and meters their token buckets."""

    def __init__(
        self,
        tenants: Sequence[TenantSpec] = (),
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        keys = [tenant.api_key for tenant in tenants]
        if len(set(keys)) != len(keys):
            raise ValueError("tenant api keys must be unique")
        self._tenants: Dict[str, TenantSpec] = {
            tenant.api_key: tenant for tenant in tenants
        }
        self._buckets: Dict[str, TokenBucket] = {
            tenant.api_key: TokenBucket(tenant.rate, tenant.burst, clock=clock)
            for tenant in tenants
        }
        self.admitted = 0
        self.rejected_auth = 0
        self.rejected_quota = 0
        # Guards the three tallies: connection threads admit concurrently.
        self._lock = threading.Lock()

    @property
    def open_access(self) -> bool:
        """True when no tenants are configured (development mode)."""
        return not self._tenants

    def admit(self, api_key: Optional[str], cost: float = 1.0) -> AdmissionDecision:
        with self._lock:
            return self._admit(api_key, cost)

    def _admit(self, api_key: Optional[str], cost: float) -> AdmissionDecision:
        if self.open_access:
            self.admitted += 1
            return AdmissionDecision(admitted=True, tenant="anonymous")
        tenant = self._tenants.get(api_key or "")
        if tenant is None:
            self.rejected_auth += 1
            return AdmissionDecision(
                admitted=False,
                tenant="unknown",
                status=401,
                reason="unknown or missing API key (send X-API-Key)",
            )
        retry_after = self._buckets[tenant.api_key].acquire(cost)
        if retry_after is not None:
            self.rejected_quota += 1
            return AdmissionDecision(
                admitted=False,
                tenant=tenant.name,
                status=429,
                reason=f"quota exhausted for tenant {tenant.name!r}",
                retry_after=retry_after,
            )
        self.admitted += 1
        return AdmissionDecision(admitted=True, tenant=tenant.name)

    def stats(self) -> Dict[str, Any]:
        return {
            "tenants": len(self._tenants),
            "open_access": self.open_access,
            "admitted": self.admitted,
            "rejected_auth": self.rejected_auth,
            "rejected_quota": self.rejected_quota,
            "buckets": {
                tenant.name: round(self._buckets[key].available(), 3)
                for key, tenant in self._tenants.items()
            },
        }
