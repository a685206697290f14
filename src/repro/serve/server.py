"""A concurrent, multi-tenant specialization server.

The server is a thin service layer over
:class:`repro.rtcg.GeneratingExtension`: every piece of heavy machinery
it relies on — the single-flight L1 residual cache, the content-addressed
L2 image store, the safety analyzer, the per-stage timings — already
exists in-process.  What this module adds is the production envelope:

* **Per-tenant extension registry.**  Each tenant owns its own
  generating extensions (an LRU of at most ``quota.max_programs``),
  keyed by admission digest and budget knobs.  Cache sharding falls out
  of one-extension-per-tenant: tenants never share residual caches, so
  one tenant can neither read another's residuals nor evict them.
* **Request coalescing.**  Concurrent requests for one (program,
  statics) key inside a tenant all funnel into the same extension, whose
  single-flight cache runs the specializer once and hands every waiter
  the same residual (one ``specializer_runs`` increment per key).
* **Admission control.**  Untrusted tenants' programs must pass the
  safety analyzer, run on the new extension's own BTA (``forbid``
  semantics → ``ADMISSION_DENIED``, and the extension is dropped);
  trusted tenants get ``warn`` semantics — findings travel in the
  response and the runtime budgets backstop divergence.
* **Quotas and graceful degradation.**  A per-tenant in-flight cap
  (excess → typed, retryable ``BUSY``) and per-request unfold/size
  budgets clamped to the tenant ceiling (trips → typed
  ``BUDGET_EXCEEDED``).

The connection model — the bounded pool and its ``BUSY`` policy, idle
timeouts, the typed-frame boundary, ``ping``/``stats`` and the server
counters — is :class:`repro.serve.transport.FrameServer`'s.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Iterable

from repro import obs
from repro.analysis import AnalysisReport
from repro.image.codec import residual_digest
from repro.lang.ast import Program
from repro.lang.parser import parse_program
from repro.pe.annprog import parse_signature
from repro.pe.errors import BudgetExceeded, PEError
from repro.rtcg.system import GeneratingExtension
from repro.runtime.errors import SchemeError
from repro.runtime.values import datum_to_value
from repro.serve.admission import (
    AdmissionController,
    program_admission_digest,
)
from repro.serve.protocol import (
    E_ADMISSION_DENIED,
    E_BAD_REQUEST,
    E_BUDGET_EXCEEDED,
    E_BUSY,
    E_PARSE_ERROR,
    E_SPECIALIZATION_ERROR,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    error_frame,
    validate_specialize,
)
from repro.serve.transport import FrameServer, Refusal
from repro.sexp.reader import read


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant resource ceilings.

    ``max_programs`` bounds the tenant's extension registry (LRU — the
    least recently used program's extension, and with it that program's
    residual cache, is dropped first).  ``max_cached_residuals`` sizes
    each extension's L1 residual cache.  ``max_in_flight`` caps the
    tenant's concurrently executing requests (excess gets a retryable
    ``BUSY``).  ``max_unfold_depth``/``max_residual_size`` are ceilings
    for the per-request specialization budgets: a request may ask for
    less, never for more.
    """

    max_programs: int = 8
    max_cached_residuals: int = 64
    max_in_flight: int = 8
    max_unfold_depth: int = 5_000
    max_residual_size: int = 1_000_000


class _Tenant:
    """One tenant's slice of the server: extensions, quota, counters."""

    def __init__(self, name: str, quota: TenantQuota, trusted: bool,
                 store_dir: Path | None):
        self.name = name
        self.quota = quota
        self.trusted = trusted
        self.store_dir = store_dir
        self._lock = threading.Lock()
        # Serializes extension *construction* (BTA + congruence check)
        # per tenant, so concurrent first requests for one program build
        # it once; holders of only ``_lock`` (hits) are not blocked.
        self._build_lock = threading.Lock()
        self._extensions: OrderedDict[tuple, GeneratingExtension] = (
            OrderedDict()
        )
        self._in_flight = 0
        self.requests = 0
        self.denials = 0
        self.busy = 0

    def try_acquire(self) -> bool:
        with self._lock:
            if self._in_flight >= self.quota.max_in_flight:
                self.busy += 1
                return False
            self._in_flight += 1
            self.requests += 1
            return True

    def release(self) -> None:
        with self._lock:
            self._in_flight -= 1

    def lookup_extension(self, key: tuple) -> GeneratingExtension | None:
        """Registry probe for the ``probe`` request path: read-only, no
        LRU promotion — monitoring must not perturb eviction order."""
        with self._lock:
            return self._extensions.get(key)

    def extensions(self) -> list[GeneratingExtension]:
        with self._lock:
            return list(self._extensions.values())

    def get_extension(self, key: tuple, build) -> GeneratingExtension:
        with self._lock:
            ext = self._extensions.get(key)
            if ext is not None:
                self._extensions.move_to_end(key)
                return ext
        with self._build_lock:
            with self._lock:
                ext = self._extensions.get(key)
                if ext is not None:
                    self._extensions.move_to_end(key)
                    return ext
            ext = build()  # may raise Refusal (admission) etc.
            with self._lock:
                self._extensions[key] = ext
                self._extensions.move_to_end(key)
                while len(self._extensions) > self.quota.max_programs:
                    self._extensions.popitem(last=False)
            obs.count("serve.tenant.extension_built")
            return ext

    def stats(self) -> dict[str, Any]:
        with self._lock:
            extensions = list(self._extensions.items())
            snapshot = {
                "trusted": self.trusted,
                "in_flight": self._in_flight,
                "requests": self.requests,
                "denials": self.denials,
                "busy": self.busy,
                "programs": len(extensions),
            }
        # ``cache_stats()`` is a deep-copied snapshot (see
        # ``GeneratingExtension.cache_stats``), safe to take while other
        # threads are specializing through the same extension.
        snapshot["extensions"] = [
            {"digest": key[0][:16], "cache": ext.cache_stats()}
            for key, ext in extensions
        ]
        return snapshot


class SpecializationServer(FrameServer):
    """A threaded socket server speaking :mod:`repro.serve.protocol`.

    ``trusted`` names tenants whose programs get ``warn`` admission
    semantics; everyone else is untrusted (``forbid``).  ``store_dir``
    attaches a per-tenant-sharded L2 image store, so residuals survive
    server restarts.  ``remote_store`` (``"host:port"`` of an
    ``image serve-store`` object server) attaches a shared L3 tier
    behind every tenant's L2, so a fleet of server replicas shares one
    warm cache — replica N's cold start reads replica 1's images
    through the network (and re-verifies them on load).  Use as a
    context manager, or call :meth:`start` / :meth:`stop`.
    """

    OBS_PREFIX = "serve"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int = 64,
        quota: TenantQuota | None = None,
        trusted: Iterable[str] = (),
        store_dir: str | Path | None = None,
        remote_store: str | None = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ):
        super().__init__(host, port, max_connections, max_frame_bytes, {
            "specialize": self._handle_specialize,
            "probe": self._handle_probe,
        })
        self.quota = quota or TenantQuota()
        self.trusted = frozenset(trusted)
        self.store_dir = Path(store_dir) if store_dir is not None else None
        self.remote_store = remote_store
        self.admission = AdmissionController()
        self._tenants: dict[str, _Tenant] = {}
        self._tenants_lock = threading.Lock()

    def stop(self) -> None:
        super().stop()
        # Drain every extension's write-behind queue so images this
        # replica generated reach the shared L3 before the process dies.
        with self._tenants_lock:
            tenants = list(self._tenants.values())
        for tenant in tenants:
            for ext in tenant.extensions():
                ext.close_store(flush=True, timeout=5)

    # -- tenants ---------------------------------------------------------------

    def _tenant(self, name: str) -> _Tenant:
        with self._tenants_lock:
            tenant = self._tenants.get(name)
            if tenant is None:
                store = None
                if self.store_dir is not None:
                    # Shard the L2 store by tenant-name digest: stable
                    # across restarts, safe for arbitrary tenant names.
                    shard = hashlib.sha256(
                        name.encode("utf-8")
                    ).hexdigest()[:16]
                    store = self.store_dir / shard
                tenant = self._tenants[name] = _Tenant(
                    name, self.quota, name in self.trusted, store
                )
                obs.count("serve.tenant.created")
            return tenant

    # -- specialize ------------------------------------------------------------

    def _budgets(self, req: dict[str, Any]) -> tuple[int, int]:
        """Per-request budgets, clamped to the tenant quota ceiling."""
        quota = self.quota
        unfold = req["max_unfold_depth"]
        size = req["max_residual_size"]
        return (
            min(unfold, quota.max_unfold_depth) if unfold is not None
            else quota.max_unfold_depth,
            min(size, quota.max_residual_size) if size is not None
            else quota.max_residual_size,
        )

    def _registry_key(self, req: dict[str, Any]) -> tuple[tuple, str]:
        """The tenant-registry key and the admission digest for a
        request.  Budgets are part of the key: an extension's budgets
        are fixed at construction, so different ceilings mean different
        extensions (and separate residual caches)."""
        digest = program_admission_digest(
            req["program"], req["signature"], req["goal"],
            req["memo_hints"], req["unfold_hints"],
        )
        unfold, size = self._budgets(req)
        return (digest, unfold, size), digest

    def _admit(self, tenant: _Tenant, report: AnalysisReport) -> None:
        """Deny an unsafe program to an untrusted tenant (``forbid``);
        a trusted tenant gets its findings in the response (``warn``)."""
        if report.safe or tenant.trusted:
            return
        tenant.denials += 1
        self.admission.record_denial()
        raise Refusal(
            E_ADMISSION_DENIED,
            f"the specialization-safety analyzer reported"
            f" {len(report.findings)} finding(s); untrusted tenants"
            f" may only specialize provably safe programs",
            findings=[str(f) for f in report.findings],
        )

    def _build_extension(
        self, tenant: _Tenant, req: dict[str, Any], digest: str
    ) -> GeneratingExtension:
        cached = self.admission.lookup(digest)
        if cached is not None:
            self._admit(tenant, cached)
        try:
            program = parse_program(req["program"], goal=req["goal"])
        except ValueError as exc:  # ParseError / ReaderError
            raise Refusal(
                E_PARSE_ERROR, f"program does not parse: {exc}"
            ) from None
        self._check_signature(program, req["signature"])
        unfold, size = self._budgets(req)
        # The extension skips the safety analysis (``analyze="off"``):
        # admission runs it on the extension's own BTA, once per digest.
        # The runtime budgets stay on as the dynamic backstop for
        # warn-mode (trusted) tenants.
        ext = GeneratingExtension(
            program,
            req["signature"],
            memo_hints=req["memo_hints"],
            unfold_hints=req["unfold_hints"],
            analyze="off",
            cache_size=tenant.quota.max_cached_residuals,
            store_dir=tenant.store_dir,
            remote_store=self.remote_store,
            max_unfold_depth=unfold,
            max_residual_size=size,
        )
        if cached is None:
            # A denied extension is dropped unregistered.  It has run
            # nothing, and its store opens no connection or thread
            # before first use, so there is nothing to close.
            self._admit(tenant, self.admission.check(digest, ext.bta))
        return ext

    @staticmethod
    def _check_signature(program: Program, signature: str) -> None:
        """Refuse a signature that is not one S or D per goal parameter."""
        try:
            bts = parse_signature(signature)
        except ValueError as exc:
            raise Refusal(E_BAD_REQUEST, str(exc)) from None
        arity = len(program.goal_def().params)
        if len(bts) != arity:
            raise Refusal(
                E_BAD_REQUEST,
                f"signature {signature!r} has {len(bts)} binding time(s);"
                f" goal {program.goal} takes {arity} parameter(s)",
            )

    @staticmethod
    def _parse_data(items: list[str], what: str) -> list[Any]:
        try:
            return [datum_to_value(read(item)) for item in items]
        except ValueError as exc:
            raise Refusal(
                E_PARSE_ERROR, f"{what} argument does not read: {exc}"
            ) from None

    def _handle_specialize(self, frame: dict[str, Any]) -> dict[str, Any]:
        req = validate_specialize(frame)
        tenant = self._tenant(req["tenant"])
        if not tenant.try_acquire():
            obs.count("serve.busy")
            return error_frame(
                E_BUSY,
                f"tenant {tenant.name!r} is at its in-flight limit"
                f" ({tenant.quota.max_in_flight})",
                retryable=True,
            )
        t0 = time.perf_counter()
        try:
            with obs.span(
                "serve.specialize", tenant=tenant.name,
                backend=req["backend"],
            ):
                return self._specialize(tenant, req, t0)
        finally:
            tenant.release()
            obs.observe("serve.request_seconds", time.perf_counter() - t0)

    def _specialize(
        self, tenant: _Tenant, req: dict[str, Any], t0: float
    ) -> dict[str, Any]:
        statics = self._parse_data(req["statics"], "static")
        dynamics = (
            self._parse_data(req["dynamics"], "dynamic")
            if req["dynamics"] is not None else None
        )
        key, digest = self._registry_key(req)
        ext = tenant.get_extension(
            key, lambda: self._build_extension(tenant, req, digest)
        )
        try:
            if req["backend"] == "source":
                residual = ext.to_source(
                    statics, dif_strategy=req["dif_strategy"]
                )
            else:
                residual = ext.to_object_code(
                    statics, dif_strategy=req["dif_strategy"]
                )
        except BudgetExceeded as exc:
            # The graceful-degradation contract: a diverging (or merely
            # oversized) specialization trips its budget and becomes a
            # typed frame — the worker thread survives, the connection
            # stays usable, nothing hangs.
            obs.count("serve.budget_trip")
            return error_frame(
                E_BUDGET_EXCEEDED, str(exc),
                budget=exc.budget, limit=exc.limit,
                cycle=list(exc.cycle),
            )
        except (PEError, SchemeError) as exc:
            return error_frame(
                E_SPECIALIZATION_ERROR,
                f"specialization failed: {exc}", phase="specialize",
            )
        stats = residual.stats
        if stats.get("cache_hit"):
            provenance = "l1"
        elif stats.get("l3_hit"):
            provenance = "l3"
        elif stats.get("disk_hit"):
            provenance = "l2"
        else:
            provenance = "miss"
        obs.count(f"serve.provenance.{provenance}")
        response: dict[str, Any] = {
            "type": "result",
            "v": PROTOCOL_VERSION,
            "tenant": tenant.name,
            "goal": residual.goal.name,
            "params": [p.name for p in residual.goal_params],
            "backend": req["backend"],
            "provenance": provenance,
            "elapsed_ms": (time.perf_counter() - t0) * 1e3,
            # Cumulative per-span wall clock for this extension
            # (``cache_stats()["stages"]`` — per-extension totals, not
            # per-request figures).
            "stages": obs.stage_totals(ext.metrics.registry),
        }
        report = self.admission.verdict(digest)
        if tenant.trusted:
            # warn semantics: surface cached findings without blocking.
            if report is not None and not report.safe:
                response["admission_warnings"] = [
                    str(f) for f in report.findings
                ]
        if req["want_residual"]:
            response["residual"] = residual.fingerprint()
        response["fingerprint_digest"] = residual_digest(residual)
        if dynamics is not None:
            from repro.lang.prims import write_value

            try:
                response["value"] = write_value(residual.run(dynamics))
            except BudgetExceeded as exc:
                return error_frame(
                    E_BUDGET_EXCEEDED, str(exc),
                    budget=exc.budget, limit=exc.limit, phase="run",
                )
            except (PEError, SchemeError) as exc:
                return error_frame(
                    E_SPECIALIZATION_ERROR,
                    f"running the residual failed: {exc}", phase="run",
                )
        return response

    # -- probe -----------------------------------------------------------------

    def _handle_probe(self, frame: dict[str, Any]) -> dict[str, Any]:
        req = validate_specialize(frame)
        with self._tenants_lock:
            tenant = self._tenants.get(req["tenant"])
        response = {
            "type": "probed",
            "v": PROTOCOL_VERSION,
            "tenant": req["tenant"],
            "extension": False,
            "cached": False,
        }
        if tenant is None:
            return response
        key, _digest = self._registry_key(req)
        ext = tenant.lookup_extension(key)
        if ext is None:
            return response
        response["extension"] = True
        statics = self._parse_data(req["statics"], "static")
        kind = "source" if req["backend"] == "source" else "object"
        # Read-only inspection: ``peek`` neither promotes LRU recency
        # nor counts a hit, so monitoring warmth cannot perturb the
        # tenant's eviction order.
        response["cached"] = ext.peek(
            statics, dif_strategy=req["dif_strategy"], kind=kind
        ) is not None
        return response

    # -- stats -----------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """A deep snapshot of server, admission, and tenant counters."""
        with self._tenants_lock:
            tenants = dict(self._tenants)
        return {
            **super().stats(),
            "admission": self.admission.stats(),
            "quota": asdict(self.quota),
            "tenants": {
                name: tenant.stats() for name, tenant in sorted(
                    tenants.items()
                )
            },
        }
