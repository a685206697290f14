"""The remote L3 object tier: protocol, client, and TieredStore.

Covers the obj_get/obj_put/obj_sync frames end to end over a
real socket, the client's retry/refusal split, and the TieredStore
semantics the ISSUE pins: read-through with replicate-down, TTL'd
negative caching, graceful degradation when L3 is unreachable, the
write-behind queue (drain-on-reconnect and bounded-drop), and the trust
story — a poisoned image on the wire never reaches the machine.
"""

from __future__ import annotations

import hashlib
import socket
import time

import pytest

from repro import obs
from repro.image.codec import encode_residual
from repro.image.remote import (
    TIER_COUNTERS,
    ObjectServer,
    RemoteStoreClient,
    RemoteStoreError,
    TieredStore,
    parse_endpoint,
    prefetch_store,
    sync_stores,
)
from repro.image.store import STORE_COUNTERS, ImageStore, StoreKey, store_key
from repro.rtcg import make_generating_extension
from tests.helpers import unsound_residual

POWER = "(define (power x n) (if (zero? n) 1 (* x (power x (- n 1)))))"


@pytest.fixture
def gen():
    return make_generating_extension(POWER, "DS", goal="power")


@pytest.fixture
def server(tmp_path):
    with ObjectServer(tmp_path / "l3", port=0) as srv:
        yield srv


@pytest.fixture
def client(server):
    c = RemoteStoreClient("127.0.0.1", server.port, timeout=5.0)
    yield c
    c.close()


def _key(n: int = 1) -> StoreKey:
    return store_key("prog", (n,), "duplicate", "object")


def _image_bytes(gen, static: int = 5) -> tuple[str, bytes]:
    data = encode_residual(gen.to_object_code([static]))
    return hashlib.sha256(data).hexdigest(), data


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestParseEndpoint:
    def test_host_port(self):
        assert parse_endpoint("example.com:7459") == ("example.com", 7459)

    def test_tuple_passthrough(self):
        assert parse_endpoint(("h", 1)) == ("h", 1)

    def test_rejects_garbage(self):
        for bad in ("", "justhost", "h:", "h:notaport", "h:-1", "h:70000"):
            with pytest.raises(ValueError):
                parse_endpoint(bad)


class TestProtocol:
    def test_ping(self, client):
        assert client.ping()

    def test_push_fetch_by_digest(self, gen, client):
        digest, data = _image_bytes(gen)
        result = client.push(digest, data)
        assert result.get("stored")
        hit = client.fetch(digest=digest)
        assert hit == (digest, data)

    def test_push_fetch_by_key(self, gen, client):
        digest, data = _image_bytes(gen)
        client.push(digest, data, key=_key().digest)
        hit = client.fetch(key=_key().digest)
        assert hit == (digest, data)

    def test_fetch_miss_is_none(self, client):
        assert client.fetch(key=_key().digest) is None
        assert client.fetch(digest="ab" * 32) is None

    def test_push_digest_mismatch_refused(self, gen, client, server):
        _, data = _image_bytes(gen)
        lie = "ab" * 32
        with pytest.raises(RemoteStoreError) as exc:
            client.push(lie, data)
        assert not exc.value.retryable
        # the refused payload never landed
        assert client.fetch(digest=lie) is None
        assert server.stats()["counters"]["bad_requests"] == 1

    def test_push_dedups_by_digest(self, gen, client, server):
        digest, data = _image_bytes(gen)
        assert client.push(digest, data).get("stored")
        assert client.push(digest, data).get("deduped")
        assert server.stats()["counters"]["dedups"] == 1

    def test_dataless_push_indexes_existing_object(self, gen, client):
        digest, data = _image_bytes(gen)
        client.push(digest, data)
        # a second worker can write a ref without re-uploading bytes
        result = client.push(digest, None, key=_key(2).digest)
        assert not result.get("missing")
        assert client.fetch(key=_key(2).digest) == (digest, data)

    def test_dataless_push_of_absent_object_reports_missing(self, client):
        assert client.push("cd" * 32, None).get("missing")

    def test_inventory(self, gen, client):
        digest, data = _image_bytes(gen)
        client.push(digest, data, key=_key().digest)
        objects, refs = client.inventory()
        assert [st.digest for st in objects] == [digest]
        assert refs == {_key().digest: digest}

    def test_corrupt_at_rest_served_as_miss(self, gen, client, server):
        digest, data = _image_bytes(gen)
        client.push(digest, data)
        server.backend._object_path(digest).write_bytes(b"torn")
        assert client.fetch(digest=digest) is None


class TestClientRetry:
    def test_unreachable_raises_retryable(self):
        c = RemoteStoreClient(
            "127.0.0.1", _free_port(), timeout=0.2, retries=1, backoff=0.01
        )
        with pytest.raises(RemoteStoreError) as exc:
            c.fetch(digest="ab" * 32)
        assert exc.value.retryable
        assert not c.ping()
        c.close()

    def test_reconnects_after_server_restart(self, tmp_path, gen):
        port = _free_port()
        digest, data = _image_bytes(gen)
        with ObjectServer(tmp_path / "l3", port=port) as srv:
            c = RemoteStoreClient("127.0.0.1", port, timeout=5.0)
            c.push(digest, data)
            srv.stop()
            with ObjectServer(tmp_path / "l3", port=port):
                # the pooled connection died with the old server; the
                # retry loop transparently reconnects
                assert c.fetch(digest=digest) == (digest, data)
            c.close()


class TestTieredStore:
    def _tiered(self, tmp_path, server, **kwargs) -> TieredStore:
        local = ImageStore(tmp_path / "l2")
        remote = RemoteStoreClient("127.0.0.1", server.port, timeout=5.0)
        return TieredStore(local, remote, **kwargs)

    def test_read_through_replicates_down(self, tmp_path, server, gen):
        digest, data = _image_bytes(gen)
        RemoteStoreClient("127.0.0.1", server.port).push(
            digest, data, key=_key().digest
        )
        ts = self._tiered(tmp_path, server)
        out = ts.get(_key())
        assert out is not None and out.run([2]) == 32
        assert out.stats["l3_hit"]
        rs = ts.stats()["remote"]
        assert rs["remote_hits"] == 1 and rs["replicated"] == 1
        # second get is served by L2 without touching the wire
        again = ts.get(_key())
        assert again is not None and not again.stats.get("l3_hit")
        assert ts.stats()["remote"]["remote_hits"] == 1
        ts.close(flush=False)

    def test_negative_cache_bounds_remote_probes(self, tmp_path, server):
        ts = self._tiered(tmp_path, server, negative_ttl=60.0)
        assert ts.get(_key()) is None
        assert ts.get(_key()) is None
        rs = ts.stats()["remote"]
        assert rs["remote_misses"] == 1  # only the first get probed L3
        assert rs["negative_hits"] == 1
        ts.close(flush=False)

    def test_put_clears_negative_entry(self, tmp_path, server, gen):
        ts = self._tiered(tmp_path, server, negative_ttl=60.0)
        assert ts.get(_key()) is None
        ts.put(_key(), gen.to_object_code([5]))
        assert ts.flush()
        # a fresh worker sharing the L3 sees it immediately; this
        # tier serves it from L2 (the put wrote locally first)
        assert ts.get(_key()) is not None
        assert ts.stats()["remote"]["negative_entries"] == 0
        ts.close(flush=False)

    def test_degrades_to_local_when_remote_down(self, tmp_path):
        local = ImageStore(tmp_path / "l2")
        remote = RemoteStoreClient(
            "127.0.0.1", _free_port(), timeout=0.2, retries=0
        )
        ts = TieredStore(local, remote, retry_interval=30.0)
        assert ts.get(_key()) is None
        rs = ts.stats()["remote"]
        assert rs["remote_errors"] == 1 and rs["down"]
        # while down, later gets skip the wire entirely
        assert ts.get(_key(2)) is None
        assert ts.stats()["remote"]["skipped_down"] == 1
        ts.close(flush=False)

    def test_extension_specializes_locally_when_remote_down(self, tmp_path):
        gen = make_generating_extension(
            POWER, "DS", goal="power",
            store_dir=tmp_path / "l2",
            remote_store=RemoteStoreClient(
                "127.0.0.1", _free_port(), timeout=0.2, retries=0
            ),
        )
        assert gen.to_object_code([5]).run([2]) == 32
        assert gen.cache_stats()["specializer_runs"] == 1
        assert gen.cache_stats()["store"]["remote"]["remote_errors"] >= 1
        gen.close_store(flush=False)

    def test_write_behind_drains_on_reconnect(self, tmp_path, gen):
        port = _free_port()
        local = ImageStore(tmp_path / "l2")
        remote = RemoteStoreClient(
            "127.0.0.1", port, timeout=1.0, retries=0
        )
        ts = TieredStore(local, remote, retry_interval=0.05)
        digest = ts.put(_key(), gen.to_object_code([5]))
        assert digest is not None
        # nobody is listening yet: the put queues, the worker retries
        deadline = time.monotonic() + 5
        while ts.stats()["remote"]["write_behind.retry"] == 0:
            assert time.monotonic() < deadline, "worker never probed"
            time.sleep(0.01)
        with ObjectServer(tmp_path / "l3", port=port):
            assert ts.flush(timeout=10.0)
            rs = ts.stats()["remote"]
            assert rs["write_behind.flush"] == 1 and rs["write_behind.drop"] == 0
            c = RemoteStoreClient("127.0.0.1", port)
            assert c.fetch(key=_key().digest) == (
                digest, local.read_object(digest)
            )
            c.close()
        ts.close(flush=False)

    def test_put_pushes_the_bytes_it_wrote_to_l2(
        self, tmp_path, gen, monkeypatch
    ):
        # The write-behind payload comes from the L2 write itself: no
        # read-back of the object just written.
        def no_read_back(self, digest):
            raise AssertionError("put read its own L2 object back")

        monkeypatch.setattr(ImageStore, "read_object", no_read_back)
        local = ImageStore(tmp_path / "l2")
        remote = RemoteStoreClient(
            "127.0.0.1", _free_port(), timeout=0.2, retries=0
        )
        ts = TieredStore(local, remote, retry_interval=30.0)
        enqueued = []
        monkeypatch.setattr(
            ts, "_enqueue", lambda *item: enqueued.append(item)
        )
        digest = ts.put(_key(), gen.to_object_code([5]))
        assert digest is not None
        assert local.stats()["writes"] == 1
        assert enqueued == [(
            _key().digest, digest, local.backend.read_object(digest)
        )]
        ts.close(flush=False)

    def test_write_behind_drops_when_saturated(self, tmp_path, gen):
        local = ImageStore(tmp_path / "l2")
        remote = RemoteStoreClient(
            "127.0.0.1", _free_port(), timeout=0.2, retries=0
        )
        ts = TieredStore(local, remote, retry_interval=30.0, max_queue=1)
        for n in (3, 4, 5):
            ts.put(_key(n), gen.to_object_code([n]))
        rs = ts.stats()["remote"]
        # the specializer never blocked: beyond the bound, writes drop
        assert rs["write_behind.drop"] >= 1
        assert rs["write_behind.enqueue"] + rs["write_behind.drop"] == 3
        # L2 kept every image regardless
        assert all(local.get(_key(n)) is not None for n in (3, 4, 5))
        ts.close(flush=False)


class TestSecondMachine:
    """The fig11 story: machine 2, cold local store, warm shared L3."""

    def test_specializer_never_runs_on_machine_two(self, tmp_path, server):
        gen1 = make_generating_extension(
            POWER, "DS", goal="power",
            store_dir=tmp_path / "m1",
            remote_store=("127.0.0.1", server.port),
        )
        assert gen1.to_object_code([5]).run([2]) == 32
        assert gen1.flush_store()
        gen1.close_store()

        gen2 = make_generating_extension(
            POWER, "DS", goal="power",
            store_dir=tmp_path / "m2",  # cold: never saw this program
            remote_store=("127.0.0.1", server.port),
        )
        rp = gen2.to_object_code([5])
        assert rp.run([2]) == 32
        stats = gen2.cache_stats()
        assert stats["specializer_runs"] == 0
        assert stats["store"]["remote"]["remote_hits"] == 1
        # the image replicated into machine 2's L2 on the way through
        assert stats["store"]["adopts"] == 1
        gen2.close_store()

    def test_poisoned_remote_image_never_reaches_the_machine(
        self, tmp_path, server, gen
    ):
        """L3 is untrusted: a well-framed image whose bytecode is
        unsound (wire tampering, hostile peer) must be rejected by
        verify-on-load — the worker re-specializes instead."""
        gen1 = make_generating_extension(
            POWER, "DS", goal="power", store_dir=tmp_path / "m1",
            remote_store=("127.0.0.1", server.port),
        )
        rp = gen1.to_object_code([5])
        key_digest = rp.stats["image_key"]
        assert gen1.flush_store()
        gen1.close_store()

        # forge an unsound image and overwrite the shared ref with it
        poison = encode_residual(unsound_residual(gen))
        poison_digest = hashlib.sha256(poison).hexdigest()
        c = RemoteStoreClient("127.0.0.1", server.port)
        c.push(poison_digest, poison, key=key_digest)
        c.close()

        gen2 = make_generating_extension(
            POWER, "DS", goal="power", store_dir=tmp_path / "m2",
            remote_store=("127.0.0.1", server.port),
        )
        out = gen2.to_object_code([5])
        assert out.run([2]) == 32  # correct answer, locally generated
        stats = gen2.cache_stats()
        assert stats["specializer_runs"] == 1
        assert stats["store"]["remote"]["remote_verify_failures"] == 1
        # the poison was never adopted into L2
        assert stats["store"]["adopts"] == 0
        gen2.close_store()


class TestBulkMovement:
    def test_sync_then_prefetch_round_trip(self, tmp_path, server, gen):
        a = ImageStore(tmp_path / "a")
        for n in (3, 4):
            a.put(_key(n), gen.to_object_code([n]))
        c = RemoteStoreClient("127.0.0.1", server.port)
        report = sync_stores(a, c)
        assert report["objects_pushed"] == 2 and report["errors"] == 0
        # second sync is a no-op: everything dedups
        report = sync_stores(a, c)
        assert report["objects_pushed"] == 0
        assert report["objects_deduped"] == 2

        b = ImageStore(tmp_path / "b")
        report = prefetch_store(b, c)
        assert report["objects_fetched"] == 2 and report["errors"] == 0
        for n in (3, 4):
            out = b.get(_key(n))
            assert out is not None and out.run([2]) == 2 ** n
        # prefetch again: refs already current
        assert prefetch_store(b, c)["objects_fetched"] == 0
        c.close()

    def test_sync_raises_when_unreachable(self, tmp_path):
        a = ImageStore(tmp_path / "a")
        c = RemoteStoreClient(
            "127.0.0.1", _free_port(), timeout=0.2, retries=0
        )
        with pytest.raises(RemoteStoreError):
            sync_stores(a, c)
        c.close()


def _push(server, gen, key: StoreKey, rp=None) -> None:
    data = encode_residual(rp if rp is not None else gen.to_object_code([5]))
    c = RemoteStoreClient("127.0.0.1", server.port)
    c.push(hashlib.sha256(data).hexdigest(), data, key=key.digest)
    c.close()


def _tier(tmp_path, port: int, **kwargs) -> TieredStore:
    remote = RemoteStoreClient("127.0.0.1", port, timeout=0.5, retries=0)
    return TieredStore(ImageStore(tmp_path / "l2"), remote, **kwargs)


def _wait_for(ts: TieredStore, key: str) -> None:
    deadline = time.monotonic() + 5
    while ts.stats()["remote"][key] == 0:
        assert time.monotonic() < deadline, f"{key} never counted"
        time.sleep(0.01)


def _case_hit(tmp_path, server, gen):
    _push(server, gen, _key())
    ts = _tier(tmp_path, server.port)
    return ts, lambda: ts.get(_key())


def _case_miss(tmp_path, server, gen):
    ts = _tier(tmp_path, server.port)
    return ts, lambda: ts.get(_key())


def _case_negative_hit(tmp_path, server, gen):
    ts = _tier(tmp_path, server.port, negative_ttl=60.0)
    ts.get(_key())
    return ts, lambda: ts.get(_key())


def _case_down(tmp_path, server, gen):
    ts = _tier(tmp_path, _free_port(), retry_interval=30.0)
    return ts, lambda: ts.get(_key())


def _case_skipped_down(tmp_path, server, gen):
    ts = _tier(tmp_path, _free_port(), retry_interval=30.0)
    ts.get(_key())
    return ts, lambda: ts.get(_key(2))


def _case_verify_failure(tmp_path, server, gen):
    _push(server, gen, _key(), unsound_residual(gen))
    ts = _tier(tmp_path, server.port)
    return ts, lambda: ts.get(_key())


def _case_flush(tmp_path, server, gen):
    ts, rp = _tier(tmp_path, server.port), gen.to_object_code([5])
    return ts, lambda: (ts.put(_key(), rp), ts.flush())


def _case_dedup(tmp_path, server, gen):
    _push(server, gen, _key())
    ts, rp = _tier(tmp_path, server.port), gen.to_object_code([5])
    return ts, lambda: (ts.put(_key(2), rp), ts.flush())


def _case_drop(tmp_path, server, gen):
    ts, rp = _tier(tmp_path, server.port, max_queue=0), gen.to_object_code([5])
    return ts, lambda: ts.put(_key(), rp)


def _case_retry(tmp_path, server, gen):
    ts = _tier(tmp_path, _free_port(), retry_interval=0.05)
    rp = gen.to_object_code([5])
    return ts, lambda: (ts.put(_key(), rp), _wait_for(ts, "write_behind.retry"))


@pytest.mark.parametrize("case, key", [
    (_case_hit, "remote_hits"),
    (_case_hit, "replicated"),
    (_case_miss, "remote_misses"),
    (_case_negative_hit, "negative_hits"),
    (_case_down, "remote_errors"),
    (_case_down, "marked_down"),
    (_case_skipped_down, "skipped_down"),
    (_case_verify_failure, "remote_verify_failures"),
    (_case_flush, "write_behind.enqueue"),
    (_case_flush, "write_behind.flush"),
    (_case_dedup, "write_behind.dedup"),
    (_case_drop, "write_behind.drop"),
    (_case_retry, "write_behind.retry"),
], ids=lambda v: v.__name__[6:] if callable(v) else v)
def test_each_event_counts_once_in_stats_and_obs(
    tmp_path, server, gen, case, key
):
    """Every tier event moves its stats key and the installed ``obs``
    counter ``image.l3.<key>`` (``image.l2.<key>`` for the local tier)
    by the same amount, and no other."""
    ts, action = case(tmp_path, server, gen)
    before = ts.stats()
    with obs.tracing() as (_tracer, metrics):
        action()
        ts.close(flush=False)  # the worker has stopped counting
    after = ts.stats()
    moved = {f"image.l2.{k}": after[k] - before[k] for k in STORE_COUNTERS}
    moved.update(
        (f"image.l3.{k}", after["remote"][k] - before["remote"][k])
        for k in TIER_COUNTERS
    )
    assert moved[f"image.l3.{key}"] >= 1
    assert moved == {name: metrics.counter_value(name) for name in moved}
