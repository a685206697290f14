"""Specialization as a service: a concurrent multi-tenant RTCG server.

The paper's payoff is that a generating extension turns specialization
into a cheap run-time facility; this package turns that facility into a
*service* other processes call into.  It is a thin, long-lived layer
over :class:`repro.rtcg.GeneratingExtension` — all the amortization
machinery (single-flight L1 residual cache, content-addressed L2 image
store, safety analyzer, stage timings) already exists in-process; the
server adds the multi-tenant production pieces:

* a versioned, length-prefixed JSON frame protocol
  (:mod:`repro.serve.protocol`) — typed error frames, never tracebacks;
* one frame transport (:mod:`repro.serve.transport`) under this
  server and the L3 object server: listener, bounded connection pool
  with a ``BUSY`` policy, typed-frame boundary, counters, and the
  reusable client connection;
* a threaded socket server (:mod:`repro.serve.server`) with a
  per-tenant generating-extension registry (cache
  sharding falls out of one-extension-per-tenant), request coalescing
  via the single-flight cache, per-tenant quotas, and graceful
  degradation (typed ``BUSY``/``BUDGET`` responses);
* admission control (:mod:`repro.serve.admission`) — the PR-4 safety
  analyzer, run on the division of the extension the server builds,
  gates untrusted tenants' programs, verdicts cached by program
  digest;
* a blocking client with connection reuse (:mod:`repro.serve.client`);
* a load generator (:mod:`repro.serve.loadgen`) reporting p50/p99
  latency and throughput over the §7 workloads.

CLI: ``python -m repro serve`` / ``python -m repro loadgen``.
Protocol and quota semantics are documented in DESIGN.md §5i.
"""

from repro.serve.admission import AdmissionController
from repro.serve.client import ServiceError, SpecializationClient
from repro.serve.protocol import (
    FrameError,
    PROTOCOL_VERSION,
    decode_frame,
    encode_frame,
)
from repro.serve.server import SpecializationServer, TenantQuota

__all__ = [
    "AdmissionController",
    "FrameError",
    "PROTOCOL_VERSION",
    "ServiceError",
    "SpecializationClient",
    "SpecializationServer",
    "TenantQuota",
    "decode_frame",
    "encode_frame",
]
