"""Tests for the content-addressed on-disk image store."""

from __future__ import annotations

import hashlib
import os

import pytest

from repro import obs
from repro.image.codec import CodecError, encode_residual, residual_digest
from repro.image.store import (
    STORE_COUNTERS,
    ImageStore,
    StoreKey,
    UnpersistableKey,
    store_key,
    verify_residual,
)
from repro.pe.backend import ResidualProgram
from repro.pe.values import freeze_static
from repro.rtcg import make_generating_extension, program_digest
from repro.sexp.datum import Char, sym
from tests.helpers import unsound_residual
from tests.routes import dangling_ref, misdigested, torn_ref, truncated

POWER = "(define (power x n) (if (zero? n) 1 (* x (power x (- n 1)))))"


@pytest.fixture
def gen():
    return make_generating_extension(POWER, "DS", goal="power")


def _key(n: int = 1) -> StoreKey:
    return store_key("prog", (n,), "duplicate", "object")


class TestStoreKey:
    def test_deterministic(self):
        frozen = (1, "a", sym("s"), 2.5, Char("x"), (True, None, b"raw"))
        assert store_key("p", frozen, "duplicate", "object") == store_key(
            "p", frozen, "duplicate", "object"
        )

    def test_every_component_matters(self):
        base = store_key("p", (1,), "duplicate", "object")
        assert store_key("q", (1,), "duplicate", "object") != base
        assert store_key("p", (2,), "duplicate", "object") != base
        assert store_key("p", (1,), "join", "object") != base
        assert store_key("p", (1,), "duplicate", "source") != base

    def test_no_injection_across_component_boundaries(self):
        # ("ab", "c") and ("a", "bc") must hash differently.
        assert store_key("p", ("ab", "c"), "d", "k") != store_key(
            "p", ("a", "bc"), "d", "k"
        )

    def test_str_and_symbol_distinct(self):
        assert store_key("p", ("x",), "d", "k") != store_key(
            "p", (sym("x"),), "d", "k"
        )

    def test_bool_and_int_distinct(self):
        assert store_key("p", (True,), "d", "k") != store_key(
            "p", (1,), "d", "k"
        )

    def test_closure_tagged_statics_are_unpersistable(self):
        with pytest.raises(UnpersistableKey):
            store_key("p", (("closure", 140234),), "d", "k")

    def test_opaque_tagged_statics_are_unpersistable(self):
        with pytest.raises(UnpersistableKey):
            store_key("p", ((1, ("opaque", "Thing", 99)),), "d", "k")

    def test_unknown_python_object_is_unpersistable(self):
        with pytest.raises(UnpersistableKey):
            store_key("p", (object(),), "d", "k")

    def test_frozen_interpreter_values_are_persistable(self):
        from repro.runtime.values import datum_to_value
        from repro.sexp import read

        frozen = freeze_static(datum_to_value(read("(1 (a b) 2.5 #\\x)")))
        store_key("p", (frozen,), "d", "k")  # must not raise


class TestPutGet:
    def test_miss(self, tmp_path):
        store = ImageStore(tmp_path / "store")
        assert store.get(_key()) is None
        assert store.stats()["misses"] == 1

    def test_content_addressing_dedupes_objects(self, tmp_path, gen):
        store = ImageStore(tmp_path / "store")
        rp = gen.to_object_code([5])
        d1 = store.put(_key(1), rp)
        d2 = store.put(_key(2), rp)  # same image, second key
        assert d1 == d2
        objects = [
            o
            for shard in (tmp_path / "store" / "objects").iterdir()
            for o in shard.iterdir()
        ]
        assert len(objects) == 1
        assert len(list((tmp_path / "store" / "index").iterdir())) == 2

    def test_version_1_image_is_a_miss(self, tmp_path, gen):
        # Version 1 embedded a digest of the textual fingerprint; this
        # codec no longer reads it, and a stored one must regenerate.
        data = bytearray(encode_residual(gen.to_object_code([5])))
        data[4:6] = (1).to_bytes(2, "big")
        data = bytes(data)
        store = ImageStore(tmp_path / "store")
        assert store.adopt(_key(), hashlib.sha256(data).hexdigest(), data)
        with pytest.raises(CodecError, match="version 1"):
            store.load(hashlib.sha256(data).hexdigest())
        assert store.get(_key()) is None
        assert store.stats()["read_errors"] == 1

    def test_load_rejects_mislabeled_object(self, tmp_path, gen):
        store = ImageStore(tmp_path / "store")
        data = encode_residual(gen.to_object_code([5]))
        fake = "0" * 64
        store.backend._atomic_write(store.backend._object_path(fake), data)
        with pytest.raises(CodecError, match="content-address"):
            store.load(fake)

    def test_load_missing_digest_raises(self, tmp_path):
        store = ImageStore(tmp_path / "store")
        with pytest.raises(FileNotFoundError):
            store.load("ff" * 32)

class TestVerifyOnLoad:
    def test_verify_residual_passes_sound_code(self, gen):
        verify_residual(gen.to_object_code([3]))

    def test_verify_residual_is_vacuous_for_source(self, gen):
        verify_residual(gen.to_source([3]))


class TestGc:
    def test_size_bound_evicts_lru(self, tmp_path, gen):
        store = ImageStore(tmp_path / "store")
        digests = []
        for n in range(4):
            digests.append(store.put(_key(n), gen.to_object_code([n])))
        paths = [store.backend._object_path(d) for d in digests]
        # Age the first two objects, then keep only enough budget for two.
        for i, p in enumerate(paths):
            os.utime(p, (1000 + i, 1000 + i))
        sizes = [p.stat().st_size for p in paths]
        report = store.gc(max_bytes=sizes[2] + sizes[3])
        assert report["removed_objects"] == 2
        assert report["removed_refs"] == 2
        assert not paths[0].exists() and not paths[1].exists()
        assert paths[2].exists() and paths[3].exists()
        assert store.get(_key(0)) is None
        assert store.get(_key(3)) is not None

    def test_load_refreshes_recency(self, tmp_path, gen):
        store = ImageStore(tmp_path / "store")
        d0 = store.put(_key(0), gen.to_object_code([0]))
        d1 = store.put(_key(1), gen.to_object_code([1]))
        p0, p1 = store.backend._object_path(d0), store.backend._object_path(d1)
        os.utime(p0, (1000, 1000))
        os.utime(p1, (2000, 2000))
        store.load(d0)  # touch: now most recent
        store.gc(max_bytes=p0.stat().st_size)
        assert p0.exists() and not p1.exists()

    def test_gc_drops_dangling_refs(self, tmp_path, gen):
        store = ImageStore(tmp_path / "store")
        store.put(_key(), gen.to_object_code([5]))
        dangling_ref(store)
        report = store.gc()
        assert report["removed_refs"] == 1
        assert store.ls() == []


class TestLs:
    def test_ls_describes_images(self, tmp_path, gen):
        store = ImageStore(tmp_path / "store")
        store.put(_key(), gen.to_object_code([5]))
        (entry,) = store.ls()
        assert entry["key"] == _key().digest
        assert entry["goal"].startswith("power")  # residual names are gensym'd
        assert entry["kind"] == "object"
        assert entry["bytes"] > 0

    def test_ls_reports_corrupt_entries(self, tmp_path, gen):
        store = ImageStore(tmp_path / "store")
        store.put(_key(), gen.to_object_code([5]))
        truncated(store)
        (entry,) = store.ls()
        assert "error" in entry

    def test_ls_reports_a_wrong_embedded_digest(self, tmp_path, gen):
        store = ImageStore(tmp_path / "store")
        data = misdigested(encode_residual(gen.to_object_code([5])))
        assert store.adopt(_key(), hashlib.sha256(data).hexdigest(), data)
        (entry,) = store.ls()
        assert "digest mismatch" in entry["error"]
        assert "goal" not in entry

    def test_ls_empty(self, tmp_path):
        assert ImageStore(tmp_path / "store").ls() == []


class TestExtensionIntegration:
    def test_residual_digest_recorded_before_publication(self, tmp_path):
        # Write-through (and an L2 load) record the digest on the cached
        # program, so every L1 hit answers it without encoding again.
        gen = make_generating_extension(
            POWER, "DS", goal="power", store_dir=tmp_path / "store"
        )
        written = gen.to_object_code([5])
        hit = gen.to_object_code([5])
        assert hit.stats["cache_hit"] is True
        expected = residual_digest(ResidualProgram(
            written.goal, written.goal_params, machine=written.machine
        ))
        assert written.stats["residual_digest"] == expected
        assert hit.stats["residual_digest"] == expected
        gen.cache_clear()
        loaded = gen.to_object_code([5])
        assert loaded.stats["disk_hit"] is True
        assert loaded.stats["residual_digest"] == expected

    def test_identity_keyed_statics_skip_persistence(self, tmp_path):
        # An unhashable host object freezes to an ("opaque", type, id)
        # tag — meaningless in another process, so the image must not be
        # persisted (while in-process specialization still works).
        gen = make_generating_extension(
            "(define (f s d) (+ d 1))",
            "SD",
            goal="f",
            store_dir=tmp_path / "store",
        )
        opaque = type("Opaque", (), {"__hash__": None})()
        rp = gen.to_object_code([opaque])
        assert rp.run([41]) == 42
        assert "image_digest" not in rp.stats
        stats = gen.cache_stats()
        assert stats["store"]["writes"] == 0
        assert stats["store"]["misses"] == 0  # L2 never even probed

    def test_program_digest_separates_programs(self, tmp_path):
        from repro.lang import parse_program

        p1 = parse_program(POWER, goal="power")
        p2 = parse_program(
            "(define (power x n) (if (zero? n) 2 (* x (power x (- n 1)))))",
            goal="power",
        )
        assert program_digest(p1, "DS") != program_digest(p2, "DS")
        assert program_digest(p1, "DS") != program_digest(p1, "SD")
        assert program_digest(p1, "DS") == program_digest(p1, "DS")

    def test_cross_program_isolation_in_one_store(self, tmp_path):
        """Two different programs sharing one store directory never serve
        each other's images."""
        store_dir = tmp_path / "store"
        gen_a = make_generating_extension(
            POWER, "DS", goal="power", store_dir=store_dir
        )
        gen_b = make_generating_extension(
            "(define (power x n) (if (zero? n) 0 (* x (power x (- n 1)))))",
            "DS",
            goal="power",
            store_dir=store_dir,
        )
        assert gen_a.to_object_code([3]).run([2]) == 8
        assert gen_b.to_object_code([3]).run([2]) == 0
        gen_a.cache_clear()
        assert gen_a.to_object_code([3]).run([2]) == 8


class TestDurability:
    """The fsync-before-rename fix and the fsck repair path."""

    def test_put_fsyncs_before_rename(self, tmp_path, gen, monkeypatch):
        """Regression: `_atomic_write` must flush+fsync the temp file
        BEFORE `os.replace`, else a crash after a "successful" put can
        leave a zero-length object under the final name."""
        events: list[str] = []
        real_fsync, real_replace = os.fsync, os.replace

        def spy_fsync(fd):
            events.append("fsync")
            return real_fsync(fd)

        def spy_replace(src, dst):
            events.append("replace")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        store = ImageStore(tmp_path / "store")
        assert store.put(_key(), gen.to_object_code([5])) is not None
        # every rename (object AND index ref) is preceded by an fsync
        first_replace = events.index("replace")
        assert "fsync" in events[:first_replace]
        for i, ev in enumerate(events):
            if ev == "replace":
                assert "fsync" in events[:i]

    def test_fsck_quarantines_truncated_object(self, tmp_path, gen):
        store = ImageStore(tmp_path / "store")
        digest = store.put(_key(), gen.to_object_code([5]))
        truncated(store)  # a torn write
        report = store.fsck()
        assert report["checked"] == 1
        assert report["corrupt"] == [digest]
        assert report["quarantined"] == 1
        assert report["removed_refs"] == 1
        assert not report["ok"]
        assert store.stats()["fsck_corrupt"] == 1
        # the torn object is quarantined aside, not silently served
        assert not store.backend._object_path(digest).exists()
        assert (store.backend.quarantine_dir / digest).exists()
        # later gets miss cleanly
        assert store.get(_key()) is None
        # and a second fsck is clean
        assert store.fsck()["ok"]

    def test_fsck_quarantines_object_with_wrong_embedded_digest(
        self, tmp_path, gen
    ):
        # Every get of such an object fails its decode and counts a
        # read error, so fsck sets it aside like any other corruption.
        store = ImageStore(tmp_path / "store")
        data = misdigested(encode_residual(gen.to_object_code([5])))
        digest = hashlib.sha256(data).hexdigest()
        assert store.adopt(_key(), digest, data)
        report = store.fsck()
        assert report["corrupt"] == [digest]
        assert report["quarantined"] == 1
        assert report["removed_refs"] == 1
        assert not report["ok"]
        assert store.get(_key()) is None
        assert store.stats()["read_errors"] == 0

    def test_fsck_clean_store(self, tmp_path, gen):
        store = ImageStore(tmp_path / "store")
        store.put(_key(), gen.to_object_code([5]))
        report = store.fsck()
        assert report == {
            "checked": 1, "corrupt": [], "quarantined": 0,
            "removed_refs": 0, "ok": True,
        }


class TestTornRefs:
    """Regression: a torn/empty index ref (crashed writer) used to make
    `get()` raise and survived `gc()` forever."""

    def _torn_ref(self, store: ImageStore, name: str = "deadbeef") -> None:
        (store.backend.index_dir / name).write_text("")

    def test_gc_prunes_torn_refs(self, tmp_path, gen):
        store = ImageStore(tmp_path / "store")
        store.put(_key(), gen.to_object_code([5]))
        self._torn_ref(store, "torn-empty")
        (store.backend.index_dir / "torn-garbage").write_text("not a digest\n")
        report = store.gc()  # no size pressure: pure ref hygiene
        assert report["removed_objects"] == 0
        assert report["removed_refs"] == 2
        assert store.stats()["gc_removed_refs"] == 2
        # the healthy ref survived
        assert store.get(_key()) is not None


class TestConcurrentGetVsGc:
    """A gc (this process or another) may delete an object between
    `get()`'s index read and its object load: that is a miss, never an
    exception."""

    def test_deletion_between_index_read_and_load(
        self, tmp_path, gen, monkeypatch
    ):
        store = ImageStore(tmp_path / "store")
        digest = store.put(_key(), gen.to_object_code([5]))
        real_read = store.backend.read_object

        def racing_read(d):
            # the "concurrent gc" wins the race just before the load
            path = store.backend._object_path(d)
            if path.exists():
                path.unlink()
            return real_read(d)

        monkeypatch.setattr(store.backend, "read_object", racing_read)
        assert store.get(_key()) is None
        stats = store.stats()
        assert stats["misses"] == 1
        assert store.backend._object_path(digest).exists() is False

    def test_threaded_get_vs_gc_hammer(self, tmp_path, gen):
        import threading

        store = ImageStore(tmp_path / "store")
        rp = gen.to_object_code([5])
        keys = [_key(n) for n in range(4)]
        for k in keys:
            store.put(k, rp)
        errors: list[BaseException] = []
        stop = threading.Event()

        def getter():
            while not stop.is_set():
                for k in keys:
                    try:
                        store.get(k)
                    except BaseException as exc:  # noqa: B036
                        errors.append(exc)
                        stop.set()
                        return

        def collector():
            while not stop.is_set():
                try:
                    store.gc(max_bytes=1)  # evict-happy
                    store.put(keys[0], rp)
                except BaseException as exc:  # noqa: B036
                    errors.append(exc)
                    stop.set()
                    return

        threads = [threading.Thread(target=getter) for _ in range(3)]
        threads.append(threading.Thread(target=collector))
        for t in threads:
            t.start()
        stop.wait(timeout=1.5)
        stop.set()
        for t in threads:
            t.join(timeout=5)
        assert errors == []


def _unwritable(tmp_path) -> ImageStore:
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    return ImageStore(blocker / "store")


def _stored(tmp_path, gen) -> tuple[ImageStore, str]:
    store = ImageStore(tmp_path / "store")
    return store, store.put(_key(), gen.to_object_code([5]))


def _image(gen) -> tuple[str, bytes]:
    data = encode_residual(gen.to_object_code([5]))
    return hashlib.sha256(data).hexdigest(), data


def _case_put(tmp_path, gen):
    store, rp = ImageStore(tmp_path / "store"), gen.to_object_code([5])
    return store, lambda: store.put(_key(), rp)


def _case_adopt(tmp_path, gen):
    store, (digest, data) = ImageStore(tmp_path / "store"), _image(gen)
    return store, lambda: store.adopt(_key(), digest, data)


def _case_hit(tmp_path, gen):
    store, _digest = _stored(tmp_path, gen)
    return store, lambda: store.get(_key())


def _case_miss(tmp_path, gen):
    store = ImageStore(tmp_path / "store")
    return store, lambda: store.get(_key())


def _case_torn_ref(tmp_path, gen):
    store, _digest = _stored(tmp_path, gen)
    torn_ref(store)
    return store, lambda: store.get(_key())


def _case_read_error(tmp_path, gen):
    store, _digest = _stored(tmp_path, gen)
    truncated(store)
    return store, lambda: store.get(_key())


def _case_verify_failure(tmp_path, gen):
    store = ImageStore(tmp_path / "store")
    store.put(_key(), unsound_residual(gen))
    return store, lambda: store.get(_key())


def _case_unwritable_put(tmp_path, gen):
    store, rp = _unwritable(tmp_path), gen.to_object_code([5])
    return store, lambda: store.put(_key(), rp)


def _case_unwritable_adopt(tmp_path, gen):
    store, (digest, data) = _unwritable(tmp_path), _image(gen)
    return store, lambda: store.adopt(_key(), digest, data)


def _case_gc(tmp_path, gen):
    store, digest = _stored(tmp_path, gen)
    return store, lambda: store.gc(max_bytes=0)


def _case_fsck(tmp_path, gen):
    store, _digest = _stored(tmp_path, gen)
    truncated(store)
    return store, store.fsck


@pytest.mark.parametrize("case, key", [
    (_case_put, "writes"),
    (_case_adopt, "adopts"),
    (_case_hit, "hits"),
    (_case_miss, "misses"),
    (_case_torn_ref, "read_errors"),
    (_case_read_error, "read_errors"),
    (_case_verify_failure, "verify_failures"),
    (_case_unwritable_put, "write_errors"),
    (_case_unwritable_adopt, "write_errors"),
    (_case_gc, "gc_removed_objects"),
    (_case_fsck, "fsck_corrupt"),
], ids=lambda v: v.__name__[6:] if callable(v) else v)
def test_each_event_counts_once_in_stats_and_obs(tmp_path, gen, case, key):
    """Every store event moves its stats key and the installed ``obs``
    counter ``image.l2.<key>`` by the same amount, and no other."""
    store, action = case(tmp_path, gen)
    before = store.stats()
    with obs.tracing() as (_tracer, metrics):
        action()
    after = store.stats()
    moved = {k: after[k] - before[k] for k in STORE_COUNTERS}
    assert moved[key] >= 1
    assert moved == {
        k: metrics.counter_value(f"image.l2.{k}") for k in STORE_COUNTERS
    }
