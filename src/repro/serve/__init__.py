"""repro.serve — the HTTP/JSON front-end over a resident counting service.

The layer stack, bottom to top:

* :mod:`repro.serve.schema` — the versioned (v1) JSON wire schema, the one
  serializer shared by the server, the client and the CLI's ``--json``.
* :mod:`repro.serve.http` — a minimal HTTP/1.1 protocol layer over sockets.
* :mod:`repro.serve.admission` — per-tenant API keys and token-bucket quotas.
* :mod:`repro.serve.coalesce` — identical in-flight requests share one count.
* :mod:`repro.serve.server` — the threaded server binding it all to a
  :class:`~repro.service.service.CountingService`.
* :mod:`repro.serve.client` — the blocking client (CLI, benchmarks, tests).

Quick start::

    from repro.serve import ServeConfig, ServeClient, start_in_thread
    from repro.service import CountingService

    handle = start_in_thread(CountingService(database, seed=7))
    with ServeClient(handle.host, handle.port) as client:
        print(client.count("Answer() :- E(x, y)").estimate)
    handle.stop()
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionDecision,
    TenantSpec,
    TokenBucket,
    parse_tenants,
)
from repro.serve.client import ServeClient, ServeError
from repro.serve.coalesce import Coalescer, coalescing_key
from repro.serve.schema import (
    API_VERSION,
    BatchRequest,
    FactsUpdate,
    WireError,
    decode,
    encode,
    from_json,
    to_json,
)
from repro.serve.server import (
    CountingServer,
    ServeConfig,
    ServerHandle,
    run_server,
    start_in_thread,
)

__all__ = [
    "API_VERSION",
    "AdmissionController",
    "AdmissionDecision",
    "BatchRequest",
    "Coalescer",
    "CountingServer",
    "FactsUpdate",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServerHandle",
    "TenantSpec",
    "TokenBucket",
    "WireError",
    "coalescing_key",
    "decode",
    "encode",
    "from_json",
    "parse_tenants",
    "run_server",
    "start_in_thread",
    "to_json",
]
