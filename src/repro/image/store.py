"""A content-addressed store for residual-code images.

The process-level residual cache (:mod:`repro.pe.residual_cache`) makes
*re-application* of a generating extension a lookup — but only within one
process.  This store is the L2 tier beneath it: residual programs are
encoded with :mod:`repro.image.codec` and kept on disk, content-addressed
by the SHA-256 of their image bytes, with an index mapping the
specialization key — ``(program digest, frozen statics, dif strategy,
backend kind)`` — to the content address.  A fresh process (or another
process on the same machine) warm-starts by hitting the index instead of
re-running the specializer.

:class:`ImageStore` is the policy — integrity, trust, counters and
eviction — over :class:`LocalStoreBackend`, which moves the bytes of the
content-addressed directory layout.  The L3 object server
(:class:`repro.image.remote.ObjectServer`) serves a store directory
through the same backend class, and
:class:`repro.image.remote.TieredStore` is the one way to put it behind
an ``ImageStore``.

Robustness properties:

* **Atomic, durable writes** — objects and index refs are written to a
  temporary file, flushed and ``fsync``\\ ed, then ``os.replace``\\ d into
  place (with a best-effort directory fsync), so readers never observe a
  half-written image and a crash cannot leave a torn object behind the
  rename.
* **Advisory locking** — writers and the garbage collector take an
  ``fcntl`` lock on ``<root>/.lock`` so concurrent processes do not race
  gc against writes.  Readers rely on atomic replacement and take no lock.
* **Graceful degradation** — an unwritable or missing store directory
  never breaks specialization: writes are counted as errors and skipped,
  reads simply miss, and the extension falls back to generating.  A torn
  or malformed index ref is a miss, never an exception, and
  :meth:`ImageStore.gc` prunes it.
* **Trust boundary** — every image read from disk is *untrusted*; each
  loaded template is re-checked by the bytecode verifier before the
  residual program is returned.
* **Eviction** — :meth:`ImageStore.gc` evicts least-recently-used
  objects until the store fits the budget it is given (``image gc
  --max-bytes``) and drops dangling refs.  Writes never evict.
* **Repair** — :meth:`ImageStore.fsck` scans every object, quarantines
  anything torn (content-address or framing mismatch), and prunes the
  refs that pointed at it.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro import obs
from repro.image.codec import (
    CodecError,
    decode_residual,
    encode_residual,
)
from repro.pe.backend import ResidualProgram
from repro.sexp.datum import Char, Symbol
from repro.vm.verify import VerificationError

try:  # advisory locking is POSIX-only; the store degrades without it
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]


class UnpersistableKey(ValueError):
    """A specialization key that has no stable cross-process identity.

    Frozen statics that embed object identity (specialization-time
    closures, opaque host objects) change meaning between processes;
    persisting under such a key would serve wrong code later.
    """


@dataclass(frozen=True, slots=True)
class StoreKey:
    """A stable, hashed specialization key for the on-disk index."""

    digest: str

    def __str__(self) -> str:
        return self.digest


@dataclass(frozen=True, slots=True)
class ObjectStat:
    """Size and recency of one stored object, keyed by content digest."""

    digest: str
    size: int
    mtime: float


_HEX_DIGITS = frozenset("0123456789abcdef")


def plausible_digest(digest: str) -> bool:
    """Whether ``digest`` is shaped like a SHA-256 hex content address.

    A torn index-ref write can leave an empty or garbage ref behind;
    treating those as addresses would turn a miss into an exception (an
    empty ref names the objects *directory*).
    """
    return len(digest) == 64 and all(c in _HEX_DIGITS for c in digest)


# Freeze tags (repro.pe.values._freeze) that embed ``id()`` and are
# therefore meaningless outside the producing process.
_IDENTITY_TAGS = frozenset({"closure", "opaque"})


def _key_bytes(value: Any, out: bytearray) -> None:
    """Serialize a frozen static value deterministically, or refuse."""
    if isinstance(value, tuple):
        if value and isinstance(value[0], str) and value[0] in _IDENTITY_TAGS:
            raise UnpersistableKey(
                f"frozen static contains an identity-keyed {value[0]!r}"
                " component; it cannot name a cross-process image"
            )
        out += b"(%d:" % len(value)
        for item in value:
            _key_bytes(item, out)
        out += b")"
    elif value is None:
        out += b"n;"
    elif value is True:
        out += b"t;"
    elif value is False:
        out += b"f;"
    elif isinstance(value, int):
        out += b"i%d;" % value
    elif isinstance(value, float):
        out += b"d" + value.hex().encode("ascii") + b";"
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += b"s%d:" % len(raw) + raw + b";"
    elif isinstance(value, bytes):
        out += b"b%d:" % len(value) + value + b";"
    elif isinstance(value, Symbol):
        raw = value.name.encode("utf-8")
        out += b"y%d:" % len(raw) + raw + b";"
    elif isinstance(value, Char):
        out += b"c" + value.value.encode("utf-8") + b";"
    else:
        raise UnpersistableKey(
            f"frozen static contains a {type(value).__name__}, which has"
            " no stable cross-process serialization"
        )


def store_key(
    program_digest: str,
    frozen_statics: tuple,
    dif_strategy: str,
    kind: str,
) -> StoreKey:
    """Hash a specialization key into a stable on-disk index name.

    Raises :class:`UnpersistableKey` when the frozen statics embed
    process-local identity (closures, opaque objects).
    """
    out = bytearray()
    out += b"repro-image-key-v1\x00"
    _key_bytes(
        (program_digest, frozen_statics, dif_strategy, kind), out
    )
    return StoreKey(hashlib.sha256(bytes(out)).hexdigest())


def verify_residual(residual: ResidualProgram) -> None:
    """Bytecode-verify every template of a (disk-loaded, untrusted)
    residual program.  Raises
    :class:`~repro.vm.verify.VerificationError` on the first unsound
    template; residual *source* programs have nothing executable yet and
    pass vacuously."""
    from repro.vm.machine import VmClosure
    from repro.vm.verify import verify_template

    if residual.machine is None:
        return
    for value in residual.machine.globals.values():
        if isinstance(value, VmClosure):
            verify_template(value.template)


class LocalStoreBackend:
    """The content-addressed directory layout beneath an
    :class:`ImageStore` and an L3 object server::

        <root>/objects/<aa>/<digest>   opaque payload (content address)
        <root>/index/<key digest>      text file naming an object digest
        <root>/quarantine/<digest>     objects fsck moved aside
        <root>/.lock                   advisory write/gc lock

    Writes are atomic **and durable**: the temp file is flushed and
    fsynced before ``os.replace``, and the parent directory is fsynced
    after (best-effort), so a crash right after a "successful" write
    cannot resurrect as a zero-length or torn object.

    Every storage failure is an :class:`OSError`; the backend moves
    bytes only and never decodes, hashes or verifies them.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.index_dir = self.root / "index"
        self.quarantine_dir = self.root / "quarantine"
        self._lock_path = self.root / ".lock"
        self.writable = True
        try:
            self.objects_dir.mkdir(parents=True, exist_ok=True)
            self.index_dir.mkdir(parents=True, exist_ok=True)
        except OSError:
            # Missing and uncreatable, or read-only: reads may still work.
            self.writable = False

    def location(self) -> str:
        return str(self.root)

    @contextmanager
    def locked(self) -> Iterator[None]:
        """Exclusive advisory lock spanning a write/gc critical section."""
        if fcntl is None:
            yield
            return
        try:
            fh = open(self._lock_path, "a+b")
        except OSError:
            yield  # unwritable store: nothing to protect
            return
        try:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            yield
        finally:
            try:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
            finally:
                fh.close()

    def _object_path(self, digest: str) -> Path:
        return self.objects_dir / digest[:2] / digest

    def _atomic_write(
        self, path: Path, data: bytes, durable: bool = True
    ) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
                if durable:
                    fh.flush()
                    os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        if durable:
            self._fsync_dir(path.parent)

    @staticmethod
    def _fsync_dir(path: Path) -> None:
        """Persist a rename by fsyncing its directory (best-effort: some
        filesystems refuse to fsync a directory fd)."""
        try:
            dirfd = os.open(path, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(dirfd)
        except OSError:
            pass
        finally:
            os.close(dirfd)

    # -- objects --------------------------------------------------------------

    def read_object(self, digest: str) -> bytes:
        if not plausible_digest(digest):
            raise FileNotFoundError(f"malformed object digest {digest!r}")
        return self._object_path(digest).read_bytes()

    def write_object(
        self, digest: str, data: bytes, durable: bool = True
    ) -> None:
        self._atomic_write(self._object_path(digest), data, durable=durable)

    def has_object(self, digest: str) -> bool:
        return (
            plausible_digest(digest)
            and self._object_path(digest).is_file()
        )

    def stat_object(self, digest: str) -> ObjectStat:
        if not plausible_digest(digest):
            raise FileNotFoundError(f"malformed object digest {digest!r}")
        st = self._object_path(digest).stat()
        return ObjectStat(digest=digest, size=st.st_size, mtime=st.st_mtime)

    def touch_object(self, digest: str) -> None:
        try:
            os.utime(self._object_path(digest))
        except OSError:
            pass

    def delete_object(self, digest: str) -> bool:
        try:
            self._object_path(digest).unlink()
        except OSError:
            return False
        return True

    def quarantine_object(self, digest: str) -> bool:
        src = self._object_path(digest)
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(src, self.quarantine_dir / digest)
            return True
        except OSError:
            return self.delete_object(digest)

    def list_objects(self) -> list[ObjectStat]:
        out: list[ObjectStat] = []
        for shard in self.objects_dir.iterdir():
            if not shard.is_dir():
                continue
            try:
                entries = list(shard.iterdir())
            except OSError:
                continue
            for obj in entries:
                if obj.name.startswith("."):
                    continue
                try:
                    st = obj.stat()
                except OSError:
                    continue
                out.append(
                    ObjectStat(
                        digest=obj.name, size=st.st_size, mtime=st.st_mtime
                    )
                )
        return out

    # -- refs -----------------------------------------------------------------

    def read_ref(self, key: str) -> str:
        return (self.index_dir / key).read_text().strip()

    def write_ref(
        self, key: str, digest: str, durable: bool = True
    ) -> None:
        self._atomic_write(
            self.index_dir / key, (digest + "\n").encode("ascii"),
            durable=durable,
        )

    def delete_ref(self, key: str) -> bool:
        try:
            (self.index_dir / key).unlink()
        except OSError:
            return False
        return True

    def list_ref_keys(self) -> list[str]:
        return sorted(
            ref.name
            for ref in self.index_dir.iterdir()
            if not ref.name.startswith(".")
        )


#: The counters of :class:`ImageStore` — its ``stats()`` keys, reported
#: to ``obs`` as ``image.l2.<key>``.
STORE_COUNTERS = (
    "hits", "misses", "writes", "write_errors", "read_errors",
    "verify_failures", "adopts", "gc_removed_objects", "gc_removed_refs",
    "fsck_corrupt",
)


class ImageStore:
    """A content-addressed store of residual-code images.

    Integrity, trust, counters, and eviction policy live here; byte
    storage is the :class:`LocalStoreBackend` over ``root``.
    """

    def __init__(self, root: str | os.PathLike):
        self.backend = LocalStoreBackend(root)
        self.root = self.backend.root
        self.metrics = obs.Counters("image.l2", STORE_COUNTERS)

    @property
    def writable(self) -> bool:
        return self.backend.writable

    # -- the store API --------------------------------------------------------

    def put(self, key: StoreKey, residual: ResidualProgram) -> str | None:
        """Write ``residual`` through under ``key``.

        Returns the content digest, or ``None`` when the store is
        unwritable or the program is not imageable — persistence
        failures never propagate into specialization.
        """
        written = self._put(key, residual)
        return written[0] if written is not None else None

    def _put(
        self, key: StoreKey, residual: ResidualProgram
    ) -> tuple[str, bytes] | None:
        """:meth:`put`, returning the digest with the bytes written (the
        tiered store pushes the same bytes behind to L3)."""
        with obs.span("image.put", key=key.digest[:12]):
            if not self.writable:
                self.metrics.count("write_errors")
                return None
            try:
                data = encode_residual(residual)
            except CodecError:
                self.metrics.count("write_errors")
                return None
            digest = hashlib.sha256(data).hexdigest()
            if not self._write(key, digest, data, durable=True):
                return None
            self.metrics.count("writes")
            obs.observe("image.l2.bytes", len(data))
            return digest, data

    def adopt(self, key: StoreKey, digest: str, data: bytes) -> bool:
        """Adopt already-encoded image bytes (e.g. replicated down from
        a remote tier) under ``key``.

        The content address is re-checked before anything touches the
        backend; the payload stays untrusted until :meth:`get` verifies
        it on the next load.  Returns ``True`` when stored.

        Adopted bytes are written **non-durably** (no fsync): unlike
        :meth:`put`, a replica is reconstructible from the tier it came
        from, every load re-checks the content address anyway, and the
        fsyncs would otherwise tax the remote *read* path.
        """
        if not self.writable or hashlib.sha256(data).hexdigest() != digest:
            self.metrics.count("write_errors")
            return False
        if not self._write(key, digest, data, durable=False):
            return False
        self.metrics.count("adopts")
        return True

    def _write(
        self, key: StoreKey, digest: str, data: bytes, durable: bool
    ) -> bool:
        """Store ``data`` at ``digest`` and index it under ``key``;
        a storage failure counts a write error and returns ``False``."""
        try:
            with self.backend.locked():
                if not self.backend.has_object(digest):
                    self.backend.write_object(digest, data, durable=durable)
                self.backend.write_ref(key.digest, digest, durable=durable)
        except OSError:
            self.metrics.count("write_errors")
            return False
        return True

    def read_object(self, digest: str) -> bytes | None:
        """Raw framed image bytes for ``digest`` (content-checked), or
        ``None`` — used by :func:`~repro.image.remote.sync_stores`."""
        try:
            data = self.backend.read_object(digest)
        except OSError:
            return None
        if hashlib.sha256(data).hexdigest() != digest:
            return None
        return data

    def get(self, key: StoreKey) -> ResidualProgram | None:
        """Look ``key`` up; decode and verify on a hit.

        Returns ``None`` on a miss *or* on any integrity failure — a
        corrupt image, a torn ref, an image that fails the bytecode
        verifier, or an object gc'd between the index read and the load
        all behave like a miss, and the caller regenerates.
        """
        with obs.span("image.probe", key=key.digest[:12]) as sp:
            try:
                ref = self.backend.read_ref(key.digest)
            except OSError:
                self.metrics.count("misses")
                return None
            try:
                if not plausible_digest(ref):
                    # A torn ref write (gc() prunes it): a read error.
                    raise CodecError(f"torn index ref {ref[:16]!r}")
                residual = self.load(ref)
            except FileNotFoundError:
                self.metrics.count("misses")
                return None
            except (OSError, CodecError):
                self.metrics.count("read_errors")
                self.metrics.count("misses")
                return None
            except VerificationError:
                self.metrics.count("verify_failures")
                self.metrics.count("misses")
                return None
            self.metrics.count("hits")
            sp.set(hit=True)
            return residual

    def load(self, digest: str) -> ResidualProgram:
        """Load an image by content digest.  Raises on any failure:
        :class:`FileNotFoundError`, :class:`CodecError` (corruption,
        staleness, content-address mismatch), or
        :class:`~repro.vm.verify.VerificationError` when the loaded
        object code does not verify."""
        with obs.span("image.load", digest=digest[:12]):
            data = self.backend.read_object(digest)
            actual = hashlib.sha256(data).hexdigest()
            if actual != digest:
                raise CodecError(
                    f"content-address mismatch: object named {digest[:12]}..."
                    f" hashes to {actual[:12]}..."
                )
            residual = decode_residual(data)
            with obs.span("image.verify_on_load"):
                verify_residual(residual)
        residual.stats["image_digest"] = digest
        self.backend.touch_object(digest)  # LRU recency for gc()
        return residual

    def ls(self, strict: bool = False) -> list[dict[str, Any]]:
        """Describe every indexed image: key, object digest, size,
        mtime, and — when decodable — goal name, kind, and parameters.

        By default an unreadable store degrades to an empty listing
        (consistent with reads elsewhere: a broken store behaves like a
        miss).  ``strict=True`` raises :class:`OSError` instead — the
        CLI's ops story wants "this store is broken", not "this store
        is empty"."""
        entries: list[dict[str, Any]] = []
        try:
            keys = self.backend.list_ref_keys()
        except OSError as exc:
            if strict:
                raise OSError(
                    f"cannot read image store at {self.root}: {exc}"
                ) from exc
            return entries
        for key in keys:
            entry: dict[str, Any] = {"key": key}
            try:
                digest = self.backend.read_ref(key)
                entry["object"] = digest
                st = self.backend.stat_object(digest)
                entry["bytes"] = st.size
                entry["mtime"] = st.mtime
                residual = decode_residual(self.backend.read_object(digest))
                entry["goal"] = residual.goal.name
                entry["params"] = [p.name for p in residual.goal_params]
                entry["kind"] = (
                    "object" if residual.machine is not None else "source"
                )
            except (OSError, CodecError) as exc:
                entry["error"] = str(exc)
            entries.append(entry)
        return entries

    def gc(
        self, max_bytes: int | None = None, dry_run: bool = False
    ) -> dict[str, Any]:
        """Evict least-recently-used objects beyond the size budget and
        drop index refs that dangle — refs to missing objects *and*
        torn/malformed refs a crashed writer left behind.

        ``dry_run`` reports what *would* be evicted — the object digests
        and the bytes that would be reclaimed — without unlinking
        anything (the report gains ``would_remove`` and keeps
        ``bytes_after`` at the projected post-gc size).
        """
        with self.backend.locked():
            try:
                objects = sorted(
                    self.backend.list_objects(),
                    key=lambda st: (st.mtime, st.size, st.digest),
                )
            except OSError:
                report: dict[str, Any] = {
                    "removed_objects": 0, "removed_refs": 0,
                    "bytes_before": 0, "bytes_after": 0,
                }
                if dry_run:
                    report["dry_run"] = True
                    report["would_remove"] = []
                return report
            total = sum(st.size for st in objects)
            before = total
            removed = 0
            doomed: set[str] = set()
            would_remove: list[dict[str, Any]] = []
            if max_bytes is not None and total > max_bytes:
                for st in objects:  # oldest first
                    if total <= max_bytes:
                        break
                    if dry_run:
                        would_remove.append(
                            {"object": st.digest, "bytes": st.size}
                        )
                    elif not self.backend.delete_object(st.digest):
                        continue
                    doomed.add(st.digest)
                    total -= st.size
                    removed += 1
            removed_refs = 0
            try:
                keys = self.backend.list_ref_keys()
            except OSError:
                keys = []
            for key in keys:
                try:
                    digest = self.backend.read_ref(key)
                except OSError:
                    continue
                dangling = (
                    not plausible_digest(digest)  # torn/garbage ref
                    or digest in doomed
                    or not self.backend.has_object(digest)
                )
                if dangling:
                    if dry_run:
                        removed_refs += 1
                    elif self.backend.delete_ref(key):
                        removed_refs += 1
            if not dry_run:
                if removed:
                    self.metrics.count("gc_removed_objects", removed)
                if removed_refs:
                    self.metrics.count("gc_removed_refs", removed_refs)
            report = {
                "removed_objects": removed,
                "removed_refs": removed_refs,
                "bytes_before": before,
                "bytes_after": total,
            }
            if dry_run:
                report["dry_run"] = True
                report["would_remove"] = would_remove
            return report

    def fsck(self) -> dict[str, Any]:
        """Scan every object for corruption and repair the store.

        Each object is re-hashed against its content address and
        decoded as a load would decode it (CRC and embedded residual
        digest checked); anything that fails — e.g. a
        zero-length object left by a crash before the durability fix —
        is quarantined (moved aside, or deleted when that fails) and the
        index refs pointing at it are pruned, so later gets miss cleanly
        instead of paying a read error forever.
        """
        with self.backend.locked():
            checked = 0
            corrupt: list[str] = []
            try:
                objects = self.backend.list_objects()
            except OSError:
                objects = []
            for st in objects:
                checked += 1
                try:
                    data = self.backend.read_object(st.digest)
                except OSError:
                    corrupt.append(st.digest)
                    continue
                if hashlib.sha256(data).hexdigest() != st.digest:
                    corrupt.append(st.digest)
                    continue
                try:
                    decode_residual(data)
                except CodecError:
                    corrupt.append(st.digest)
            quarantined = 0
            for digest in corrupt:
                if self.backend.quarantine_object(digest):
                    quarantined += 1
            corrupt_set = set(corrupt)
            removed_refs = 0
            try:
                keys = self.backend.list_ref_keys()
            except OSError:
                keys = []
            for key in keys:
                try:
                    digest = self.backend.read_ref(key)
                except OSError:
                    continue
                if not plausible_digest(digest) or digest in corrupt_set:
                    if self.backend.delete_ref(key):
                        removed_refs += 1
        if corrupt:
            self.metrics.count("fsck_corrupt", len(corrupt))
        return {
            "checked": checked,
            "corrupt": corrupt,
            "quarantined": quarantined,
            "removed_refs": removed_refs,
            "ok": not corrupt,
        }

    def stats(self) -> dict[str, Any]:
        """A snapshot of the store counters."""
        snapshot: dict[str, Any] = self.metrics.snapshot()
        snapshot["writable"] = self.writable
        snapshot["root"] = str(self.root)
        return snapshot
