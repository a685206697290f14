"""A remote L3 object tier for the image store, and the tiering glue.

``ObjectServer`` exposes a :class:`~repro.image.store.LocalStoreBackend`
over TCP using the same length-prefixed JSON frame codec as the
specialization service (:mod:`repro.serve.protocol`), with three new
frame types:

``obj_get``
    By ``digest`` or by index ``key``; answers an ``obj_result`` with
    base64 payload bytes on a hit.  The server re-hashes before serving
    so a corrupt object on the server degrades to a miss, never to
    poisoned bytes (clients re-check and re-verify anyway — remote
    images stay untrusted until verify-on-load passes).
``obj_put``
    Content-addressed upload: the server re-hashes the payload against
    the claimed digest and refuses mismatches, dedups by digest, and
    optionally writes a ``key -> digest`` index ref in the same request.
    A ``data``-less ``obj_put`` writes just the ref (used by sync when
    the object is already present).
``obj_sync``
    The full inventory — object stats plus the ref index — powering
    bulk ``image sync`` (push) and ``image prefetch`` (pull).

``RemoteStoreClient`` speaks this protocol, one method per frame type;
all its failures surface as :class:`RemoteStoreError` (an ``OSError``,
so store code treats transport trouble exactly like disk trouble).  The
client keeps one connection open, resets it on any transport error (a
stream that died mid-frame may hold half a message — reusing it would
desync), and retries idempotent exchanges with bounded exponential
backoff.

``TieredStore`` is the one way an image store reaches L3: it composes L2
(local ``ImageStore``) over L3 (remote):

* **read-through** — an L2 miss probes L3; a hit is decoded, verified,
  counted, and *replicated down* into L2 so the next process on this
  machine pays only the local price;
* **negative cache** — an L3 miss is remembered for ``negative_ttl``
  seconds so cold keys do not hammer the network;
* **circuit breaking** — a transport error marks the remote down for
  ``retry_interval`` seconds; while down, reads skip straight to a miss
  and the specializer proceeds locally;
* **async write-behind** — puts land in L2 synchronously and are pushed
  to L3 by a worker thread through a bounded queue (saturation drops
  the oldest-work-not-yet-queued with a counter, never blocks the
  specializer); the worker doubles as the reconnect probe, so a queued
  backlog drains as soon as the remote comes back.
"""

from __future__ import annotations

import base64
import hashlib
import threading
import time
from pathlib import Path
from queue import Empty, Queue
from typing import Any

from repro import obs
from repro.image.codec import CodecError, decode_residual, encode_residual
from repro.image.store import (
    STORE_COUNTERS,
    ImageStore,
    LocalStoreBackend,
    ObjectStat,
    StoreKey,
    plausible_digest,
    verify_residual,
)
from repro.pe.backend import ResidualProgram
from repro.serve.protocol import (
    E_BAD_REQUEST,
    FrameError,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
)
from repro.serve.transport import FrameClient, FrameServer, Refusal
from repro.vm.verify import VerificationError


class RemoteStoreError(OSError):
    """A remote-store exchange that failed.

    ``retryable`` distinguishes transport trouble (timeouts, resets,
    torn frames — worth retrying once the peer is back) from typed
    refusals (digest mismatch, oversized frame — retrying is useless).
    """

    def __init__(self, message: str, retryable: bool = True):
        super().__init__(message)
        self.retryable = retryable


def parse_endpoint(spec: "str | tuple[str, int]") -> tuple[str, int]:
    """``"host:port"`` (or an already-split tuple) -> ``(host, port)``."""
    if isinstance(spec, tuple):
        host, port = spec
        return str(host), int(port)
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"remote store endpoint must be host:port, got {spec!r}"
        )
    try:
        number = int(port)
    except ValueError:
        raise ValueError(
            f"remote store endpoint has a non-numeric port: {spec!r}"
        ) from None
    if not 0 < number < 65536:
        raise ValueError(
            f"remote store endpoint port out of range: {spec!r}"
        )
    return host, number


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _unb64(text: Any) -> bytes:
    if not isinstance(text, str):
        raise RemoteStoreError(
            f"frame data field must be a base64 string,"
            f" got {type(text).__name__}", retryable=False,
        )
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as exc:
        raise RemoteStoreError(
            f"frame data field is not valid base64: {exc}", retryable=False
        ) from None


# -- the server -------------------------------------------------------------


class ObjectServer(FrameServer):
    """A threaded TCP object server over a local store directory.

    The connection model is the specialization server's
    (:class:`~repro.serve.transport.FrameServer`).  Uploads are
    content-verified before they touch disk; the server never decodes or
    executes images — it is a dumb, durable byte tier, and every
    consumer re-verifies on load.
    """

    OBS_PREFIX = "image.l3.server"
    ACCEPTED = "connections"
    COUNTERS = (
        "get_hits", "get_misses", "puts", "dedups", "ref_writes",
        "corrupt", "digest_mismatch",
    )

    def __init__(
        self,
        store_dir: "str | Path",
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int = 64,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ):
        self.backend = LocalStoreBackend(store_dir)
        super().__init__(host, port, max_connections, max_frame_bytes, {
            "obj_get": self._handle_get,
            "obj_put": self._handle_put,
            "obj_sync": self._handle_sync,
        })

    def _resolve_digest(self, frame: dict[str, Any]) -> "str | None":
        """The object digest a request names — directly, or via a key
        ref.  ``None`` when absent/dangling; malformed input is
        refused."""
        digest = frame.get("digest")
        if digest is not None:
            if not isinstance(digest, str) or not plausible_digest(digest):
                raise Refusal(
                    E_BAD_REQUEST, f"malformed object digest {digest!r}"
                )
            return digest
        key = frame.get("key")
        if key is None:
            raise Refusal(E_BAD_REQUEST, "request needs a digest or a key")
        if not isinstance(key, str) or not plausible_digest(key):
            raise Refusal(E_BAD_REQUEST, f"malformed index key {key!r}")
        try:
            ref = self.backend.read_ref(key)
        except OSError:
            return None
        if not plausible_digest(ref):
            return None  # torn ref on the server: a miss, gc's problem
        return ref

    def _handle_get(self, frame: dict[str, Any]) -> dict[str, Any]:
        miss = {
            "type": "obj_result", "v": PROTOCOL_VERSION,
            "found": False, "digest": None, "data": None,
        }
        digest = self._resolve_digest(frame)
        if digest is None:
            self.metrics.count("get_misses")
            return miss
        try:
            data = self.backend.read_object(digest)
        except OSError:
            self.metrics.count("get_misses")
            return miss
        if hashlib.sha256(data).hexdigest() != digest:
            # Corrupt at rest: serve a miss, leave repair to fsck.
            self.metrics.count("get_misses")
            self.metrics.count("corrupt")
            return miss
        self.backend.touch_object(digest)
        self.metrics.count("get_hits")
        return {
            "type": "obj_result", "v": PROTOCOL_VERSION,
            "found": True, "digest": digest, "data": _b64(data),
        }

    def _handle_put(self, frame: dict[str, Any]) -> dict[str, Any]:
        digest = frame.get("digest")
        if not isinstance(digest, str) or not plausible_digest(digest):
            raise Refusal(
                E_BAD_REQUEST, f"malformed object digest {digest!r}"
            )
        key = frame.get("key")
        if key is not None and (
            not isinstance(key, str) or not plausible_digest(key)
        ):
            raise Refusal(E_BAD_REQUEST, f"malformed index key {key!r}")
        raw = frame.get("data")
        stored = deduped = False
        with self.backend.locked():
            present = self.backend.has_object(digest)
            if raw is None:
                if not present:
                    # A ref-only put for an object we don't hold: tell
                    # the client to upload (sync's ref-only fast path).
                    return {
                        "type": "obj_put_result", "v": PROTOCOL_VERSION,
                        "stored": False, "deduped": False,
                        "indexed": False, "missing": True,
                    }
                deduped = True
            elif present:
                deduped = True
                self.metrics.count("dedups")
            else:
                try:
                    data = _unb64(raw)
                except RemoteStoreError as exc:
                    raise Refusal(E_BAD_REQUEST, str(exc)) from None
                if hashlib.sha256(data).hexdigest() != digest:
                    # The content-address check is the server's whole
                    # trust model: refuse, don't quarantine-later.
                    self.metrics.count("digest_mismatch")
                    raise Refusal(
                        E_BAD_REQUEST,
                        f"payload does not hash to {digest[:12]}...",
                    )
                self.backend.write_object(digest, data)
                stored = True
                self.metrics.count("puts")
                obs.observe("image.l3.server.bytes", len(data))
            indexed = False
            if key is not None:
                self.backend.write_ref(key, digest)
                indexed = True
                self.metrics.count("ref_writes")
        return {
            "type": "obj_put_result", "v": PROTOCOL_VERSION,
            "stored": stored, "deduped": deduped,
            "indexed": indexed, "missing": False,
        }

    def _handle_sync(self, frame: dict[str, Any]) -> dict[str, Any]:
        try:
            objects = self.backend.list_objects()
        except OSError:
            objects = []
        refs: dict[str, str] = {}
        try:
            keys = self.backend.list_ref_keys()
        except OSError:
            keys = []
        for key in keys:
            try:
                ref = self.backend.read_ref(key)
            except OSError:
                continue
            if plausible_digest(ref):
                refs[key] = ref
        return {
            "type": "obj_sync_result", "v": PROTOCOL_VERSION,
            "objects": [
                {"digest": st.digest, "bytes": st.size, "mtime": st.mtime}
                for st in sorted(objects, key=lambda st: st.digest)
            ],
            "refs": refs,
        }

    def stats(self) -> dict[str, Any]:
        return {**super().stats(), "root": self.backend.location()}


# -- the client -------------------------------------------------------------


class RemoteStoreClient(FrameClient):
    """The object-server protocol's client: ``fetch``, ``push`` and
    ``inventory``, one per frame type.

    ``RemoteStoreClient(host, port, timeout=5.0, retries=2,
    backoff=0.05, max_frame_bytes=MAX_FRAME_BYTES)`` — the
    :class:`~repro.serve.transport.FrameClient` constructor.  One
    connection is kept open across exchanges and reset on any
    transport-level failure.  Exchanges are idempotent
    (content-addressed), so they are retried ``retries`` times with
    exponential backoff before :class:`RemoteStoreError` escapes.
    """

    OBS_PREFIX = "image.l3"

    def location(self) -> str:
        return f"{self.host}:{self.port}"

    def _request(self, payload: dict[str, Any]) -> dict[str, Any]:
        """One request/response exchange.  Raises
        :class:`RemoteStoreError`."""
        try:
            data = self.encode(payload)
        except FrameError as exc:
            # Our own payload is over the frame bound: nothing was sent,
            # the connection is untouched, and no retry will fix it.
            raise RemoteStoreError(str(exc), retryable=False) from None
        try:
            response = self.exchange(data)
        except (OSError, FrameError) as exc:
            raise RemoteStoreError(
                f"object server at {self.location()} unreachable after"
                f" {self.retries + 1} attempt(s): {exc}"
            ) from exc
        if response.get("type") == "error":
            # A typed refusal arrives on an in-sync stream; keep it.
            raise RemoteStoreError(
                f"object server refused"
                f" {payload.get('type')}: [{response.get('code')}]"
                f" {response.get('message')}",
                retryable=bool(response.get("retryable", False)),
            )
        return response

    def _expect(
        self, payload: dict[str, Any], response_type: str
    ) -> dict[str, Any]:
        response = self._request(payload)
        if response.get("type") != response_type:
            self.close()  # the peer is confused; start clean
            raise RemoteStoreError(
                f"expected a {response_type} frame,"
                f" got {response.get('type')!r}", retryable=False,
            )
        return response

    # -- protocol verbs -------------------------------------------------------

    def ping(self) -> bool:
        try:
            self._expect(
                {"type": "ping", "v": PROTOCOL_VERSION}, "pong"
            )
            return True
        except RemoteStoreError:
            return False

    def fetch(
        self, key: "str | None" = None, digest: "str | None" = None
    ) -> "tuple[str, bytes] | None":
        """One round trip: ``(digest, payload)`` on a hit, ``None`` on a
        miss.  Raises :class:`RemoteStoreError` on transport failure."""
        frame: dict[str, Any] = {"type": "obj_get", "v": PROTOCOL_VERSION}
        if digest is not None:
            frame["digest"] = digest
        else:
            frame["key"] = key
        response = self._expect(frame, "obj_result")
        if not response.get("found"):
            return None
        got = response.get("digest")
        if not isinstance(got, str) or not plausible_digest(got):
            raise RemoteStoreError(
                f"object server returned a malformed digest {got!r}",
                retryable=False,
            )
        return got, _unb64(response.get("data"))

    def push(
        self, digest: str, data: "bytes | None", key: "str | None" = None
    ) -> dict[str, Any]:
        """Upload (or, with ``data=None``, just index) one object."""
        frame: dict[str, Any] = {
            "type": "obj_put", "v": PROTOCOL_VERSION, "digest": digest,
        }
        if data is not None:
            frame["data"] = _b64(data)
        if key is not None:
            frame["key"] = key
        return self._expect(frame, "obj_put_result")

    def inventory(self) -> "tuple[list[ObjectStat], dict[str, str]]":
        response = self._expect(
            {"type": "obj_sync", "v": PROTOCOL_VERSION}, "obj_sync_result"
        )
        objects = []
        for entry in response.get("objects") or []:
            digest = entry.get("digest")
            if isinstance(digest, str) and plausible_digest(digest):
                objects.append(ObjectStat(
                    digest=digest,
                    size=int(entry.get("bytes") or 0),
                    mtime=float(entry.get("mtime") or 0.0),
                ))
        refs = {
            key: ref
            for key, ref in (response.get("refs") or {}).items()
            if isinstance(key, str) and plausible_digest(key)
            and isinstance(ref, str) and plausible_digest(ref)
        }
        return objects, refs


# -- the tiered store -------------------------------------------------------


#: The counters of :class:`TieredStore` — the keys of its
#: ``stats()["remote"]``, reported to ``obs`` as ``image.l3.<key>``.
TIER_COUNTERS = (
    "remote_hits", "remote_misses", "remote_errors",
    "remote_verify_failures", "negative_hits", "skipped_down",
    "marked_down", "replicated", "write_behind.enqueue",
    "write_behind.flush", "write_behind.dedup", "write_behind.drop",
    "write_behind.retry",
)


class TieredStore:
    """L2 (local) over L3 (remote) with read-through, negative caching,
    circuit breaking, and asynchronous write-behind.

    Stands in for :class:`~repro.image.store.ImageStore` where the
    generating extension is concerned (``get``/``put``/``stats``);
    ``local`` may be ``None`` (remote-only worker: every read is an L3
    probe, every put only write-behind).
    """

    def __init__(
        self,
        local: "ImageStore | None",
        remote: RemoteStoreClient,
        negative_ttl: float = 30.0,
        retry_interval: float = 1.0,
        max_queue: int = 256,
    ):
        self.local = local
        self.remote = remote
        self.negative_ttl = negative_ttl
        self.retry_interval = retry_interval
        self.max_queue = max_queue
        self.metrics = obs.Counters("image.l3", TIER_COUNTERS)
        self._lock = threading.Lock()
        self._negative: dict[str, float] = {}
        self._down_until = 0.0
        self._queue: Queue = Queue()
        self._stop = threading.Event()
        self._worker: threading.Thread | None = None

    # -- plumbing -------------------------------------------------------------

    def _mark_down(self) -> None:
        with self._lock:
            self._down_until = time.monotonic() + self.retry_interval
        self.metrics.count("marked_down")

    def _mark_up(self) -> None:
        with self._lock:
            self._down_until = 0.0

    # -- reads ----------------------------------------------------------------

    def get(self, key: StoreKey) -> "ResidualProgram | None":
        if self.local is not None:
            residual = self.local.get(key)
            if residual is not None:
                return residual
        return self._get_remote(key)

    def _get_remote(self, key: StoreKey) -> "ResidualProgram | None":
        now = time.monotonic()
        skip: str | None = None
        with self._lock:
            expiry = self._negative.get(key.digest)
            if expiry is not None:
                if now < expiry:
                    skip = "negative_hits"
                else:
                    del self._negative[key.digest]
            if skip is None and now < self._down_until:
                skip = "skipped_down"
        if skip is not None:
            self.metrics.count(skip)
            return None
        with obs.span("image.l3.fetch", key=key.digest[:12]) as sp:
            try:
                hit = self.remote.fetch(key=key.digest)
            except RemoteStoreError:
                self._mark_down()
                self.metrics.count("remote_errors")
                return None
            self._mark_up()
            if hit is None:
                with self._lock:
                    self._negative[key.digest] = (
                        time.monotonic() + self.negative_ttl
                    )
                self.metrics.count("remote_misses")
                return None
            digest, data = hit
            try:
                if hashlib.sha256(data).hexdigest() != digest:
                    raise CodecError("remote payload misses its digest")
                residual = decode_residual(data)
                with obs.span("image.verify_on_load"):
                    verify_residual(residual)
            except CodecError:
                self.metrics.count("remote_errors")
                return None
            except VerificationError:
                self.metrics.count("remote_verify_failures")
                return None
            sp.set(hit=True)
        residual.stats["image_digest"] = digest
        residual.stats["l3_hit"] = True
        if self.local is not None and self.local.writable:
            if self.local.adopt(key, digest, data):
                self.metrics.count("replicated")
        self.metrics.count("remote_hits")
        return residual

    # -- writes ---------------------------------------------------------------

    def put(
        self, key: StoreKey, residual: ResidualProgram
    ) -> "str | None":
        written = None if self.local is None else self.local._put(key, residual)
        if written is not None:
            digest, data = written
        else:
            try:
                data = encode_residual(residual)
            except CodecError:
                return None
            digest = hashlib.sha256(data).hexdigest()
        with self._lock:
            self._negative.pop(key.digest, None)
        self._enqueue(key.digest, digest, data)
        return digest

    def _enqueue(self, key_digest: str, digest: str, data: bytes) -> None:
        with self._lock:
            if self._stop.is_set():
                return
            # Saturated: the specializer never blocks on the network.
            # L2 already has the image; sync picks up anything dropped.
            dropped = self._queue.qsize() >= self.max_queue
            if not dropped:
                self._queue.put((key_digest, digest, data))
                if self._worker is None or not self._worker.is_alive():
                    self._worker = threading.Thread(
                        target=self._worker_loop,
                        name="repro-store-write-behind", daemon=True,
                    )
                    self._worker.start()
        self.metrics.count(
            "write_behind.drop" if dropped else "write_behind.enqueue"
        )

    def _worker_loop(self) -> None:
        while True:
            try:
                item = self._queue.get(timeout=0.2)
            except Empty:
                if self._stop.is_set():
                    return
                continue
            try:
                if item is None:
                    return  # shutdown sentinel
                self._push_until_done(*item)
            finally:
                self._queue.task_done()

    def _push_until_done(
        self, key_digest: str, digest: str, data: bytes
    ) -> None:
        """Push one image, waiting out down periods; the worker is the
        reconnect probe, so backlog drains as soon as L3 is back."""
        while not self._stop.is_set():
            with self._lock:
                wait = self._down_until - time.monotonic()
            if wait > 0:
                if self._stop.wait(min(wait, self.retry_interval)):
                    return
                continue
            try:
                with obs.span("image.l3.push", digest=digest[:12]):
                    result = self.remote.push(digest, data, key=key_digest)
            except RemoteStoreError as exc:
                if not exc.retryable:
                    self.metrics.count("write_behind.drop")
                    return
                self._mark_down()
                self.metrics.count("write_behind.retry")
                continue
            self._mark_up()
            if result.get("deduped"):
                self.metrics.count("write_behind.dedup")
            self.metrics.count("write_behind.flush")
            return

    def flush(self, timeout: float = 10.0) -> bool:
        """Block until the write-behind queue drains (or ``timeout``).
        Returns whether it fully drained."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._queue.all_tasks_done:
                if self._queue.unfinished_tasks == 0:
                    return True
            time.sleep(0.01)
        with self._queue.all_tasks_done:
            return self._queue.unfinished_tasks == 0

    def close(self, flush: bool = True, timeout: float = 5.0) -> None:
        if flush:
            self.flush(timeout=timeout)
        self._stop.set()
        self._queue.put(None)
        worker = self._worker
        if worker is not None and worker.is_alive():
            worker.join(timeout=timeout)
        self.remote.close()

    def stats(self) -> dict[str, Any]:
        base: dict[str, Any]
        if self.local is not None:
            base = self.local.stats()
        else:
            base = {**dict.fromkeys(STORE_COUNTERS, 0),
                    "writable": True, "root": None}
        with self._lock:
            down = time.monotonic() < self._down_until
            negative_entries = len(self._negative)
        base["remote"] = {
            "endpoint": self.remote.location(),
            "down": down,
            "queue_depth": self._queue.qsize(),
            "negative_entries": negative_entries,
            **self.metrics.snapshot(),
        }
        return base


# -- bulk sync / prefetch ---------------------------------------------------


def sync_stores(
    local: ImageStore, remote: RemoteStoreClient
) -> dict[str, Any]:
    """Push every local object (and the index) up to the remote tier.

    Dedups against the remote inventory by digest, so repeated syncs
    only move new work.  Raises :class:`RemoteStoreError` when the
    remote is unreachable — bulk movement is an explicit ops action, so
    unlike the read/write paths it does *not* degrade silently.
    """
    with obs.span("image.sync", remote=remote.location()):
        have_objects, have_refs = remote.inventory()
        have = {st.digest for st in have_objects}
        pushed = skipped = refs_written = errors = 0
        try:
            stats = local.backend.list_objects()
        except OSError:
            stats = []
        for st in sorted(stats, key=lambda st: st.digest):
            if not plausible_digest(st.digest):
                continue
            if st.digest in have:
                skipped += 1
                continue
            data = local.read_object(st.digest)
            if data is None:
                errors += 1  # torn local object: fsck's problem
                continue
            remote.push(st.digest, data)
            have.add(st.digest)
            pushed += 1
        try:
            keys = local.backend.list_ref_keys()
        except OSError:
            keys = []
        for key in sorted(keys):
            try:
                digest = local.backend.read_ref(key)
            except OSError:
                continue
            if not plausible_digest(digest) or digest not in have:
                continue
            if have_refs.get(key) == digest:
                continue
            remote.push(digest, None, key=key)
            refs_written += 1
        report = {
            "objects_pushed": pushed,
            "objects_deduped": skipped,
            "refs_written": refs_written,
            "errors": errors,
            "remote": remote.location(),
        }
        obs.count("image.sync.objects", pushed)
        return report


def prefetch_store(
    local: ImageStore, remote: RemoteStoreClient
) -> dict[str, Any]:
    """Pull the remote inventory down into the local store.

    Payloads are content-address-checked before adoption but *not*
    template-verified here — prefetched images stay untrusted until
    verify-on-load passes at first use, same as any disk image.  Raises
    :class:`RemoteStoreError` when the remote is unreachable.
    """
    with obs.span("image.prefetch", remote=remote.location()):
        _objects, refs = remote.inventory()
        fetched = skipped = refs_written = errors = 0
        payloads: dict[str, bool] = {}  # digest -> now-present locally
        for key, digest in sorted(refs.items()):
            present = payloads.get(digest)
            if present is None:
                present = local.backend.has_object(digest)
                if not present:
                    hit = remote.fetch(digest=digest)
                    if (
                        hit is None
                        or hashlib.sha256(hit[1]).hexdigest() != digest
                    ):
                        errors += 1
                        payloads[digest] = False
                        continue
                    present = local.adopt(StoreKey(key), digest, hit[1])
                    if present:
                        fetched += 1
                        refs_written += 1
                        payloads[digest] = True
                        continue
                    errors += 1
                    payloads[digest] = False
                    continue
                payloads[digest] = True
            if not present:
                errors += 1
                continue
            try:
                current = local.backend.read_ref(key)
            except OSError:
                current = None
            if current == digest:
                skipped += 1
                continue
            try:
                with local.backend.locked():
                    local.backend.write_ref(key, digest)
                refs_written += 1
            except OSError:
                errors += 1
        report = {
            "objects_fetched": fetched,
            "refs_written": refs_written,
            "refs_current": skipped,
            "errors": errors,
            "remote": remote.location(),
        }
        obs.count("image.prefetch.objects", fetched)
        return report
