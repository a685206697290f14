"""End-to-end tests for the specialization service.

Every test here runs a real :class:`SpecializationServer` on an
ephemeral port and talks to it over real sockets — the full path a
production tenant takes: frame codec, dispatcher, admission control,
per-tenant extension registry, residual caches, typed error frames.

The load-bearing properties:

* correct residual results over the wire (the service computes what
  the in-process pipeline computes),
* tenant isolation — two tenants asking for the same specialization
  get separate extensions and separate caches,
* request coalescing — 8 clients stampeding one cold key cause exactly
  one specializer run (single-flight),
* forbid-mode admission — an untrusted tenant submitting a known
  diverging program gets a typed ``ADMISSION_DENIED`` frame, while a
  trusted tenant is let through to hit the runtime budget backstop,
* graceful degradation — quota exhaustion and garbage bytes produce
  typed, retryable-annotated error frames, never a hung connection or
  a traceback on the wire.
"""

import socket
import sys
import threading

import pytest

from repro.serve import SpecializationServer, TenantQuota
from repro.serve.client import ServiceError, SpecializationClient
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    encode_frame,
    recv_frame,
    specialize_request,
)

POWER = "(define (power n x) (if (= n 0) 1 (* x (power (- n 1) x))))"

# The "count-up" diverging program from the analyzer corpus: the static
# counter grows at every memoized call, so specialization enumerates
# one residual variant per natural number.
COUNT_UP = "(define (f s d) (if (null? d) s (f (+ s 1) (cdr d))))"


@pytest.fixture()
def server(tmp_path):
    with SpecializationServer(
        port=0, store_dir=tmp_path / "store", trusted=frozenset({"insider"})
    ) as s:
        yield s


def client_for(server, **kwargs):
    return SpecializationClient("127.0.0.1", server.port, **kwargs)


class TestRoundTrip:
    def test_specialize_returns_correct_value_and_provenance(self, server):
        with client_for(server) as c:
            r1 = c.specialize(
                POWER, "SD", ["10"], dynamics=["2"], tenant="t1",
                want_residual=True,
            )
            assert r1["type"] == "result"
            assert r1["v"] == PROTOCOL_VERSION
            assert r1["value"] == "1024"
            assert r1["provenance"] == "miss"
            assert "power" in r1["residual"]
            assert r1["stages"]  # per-stage timings travel with the result
            r2 = c.specialize(POWER, "SD", ["10"], dynamics=["3"], tenant="t1")
            assert r2["value"] == "59049"
            assert r2["provenance"] == "l1"

    def test_source_backend_over_the_wire(self, server):
        with client_for(server) as c:
            r = c.specialize(
                POWER, "SD", ["3"], tenant="t1", backend="source",
                want_residual=True, dynamics=["5"],
            )
            assert r["value"] == "125"
            assert "(define" in r["residual"]

    def test_connection_reuse_many_requests(self, server):
        with client_for(server) as c:
            for n in range(2, 8):
                r = c.specialize(POWER, "SD", [str(n)], dynamics=["2"])
                assert r["value"] == str(2 ** n)

    def test_ping_and_stats(self, server):
        with client_for(server) as c:
            assert c.ping()
            c.specialize(POWER, "SD", ["4"], tenant="t1")
            stats = c.stats()
            assert stats["port"] == server.port
            assert stats["counters"]["requests"] >= 2
            assert "t1" in stats["tenants"]

    def test_probe_reports_warmth_without_generating(self, server):
        with client_for(server) as c:
            cold = c.probe(POWER, "SD", ["6"], tenant="t1")
            assert cold == {
                "type": "probed", "v": PROTOCOL_VERSION, "tenant": "t1",
                "extension": False, "cached": False,
            }
            c.specialize(POWER, "SD", ["6"], tenant="t1")
            warm = c.probe(POWER, "SD", ["6"], tenant="t1")
            assert warm["extension"] is True
            assert warm["cached"] is True
            # probing never built anything: one specializer run total
            runs = server.stats()["tenants"]["t1"]["extensions"]
            assert sum(e["cache"]["specializer_runs"] for e in runs) == 1

    def test_legacy_optimize_field_is_ignored(self, server):
        # Older clients still send ``"optimize": true``: it is ignored
        # like any unknown field, so it generates the same residual and
        # lands on the same cache key as a request without it.
        legacy = specialize_request(POWER, "SD", ["5"], dynamics=["2"])
        legacy["optimize"] = True
        with client_for(server) as c:
            old = c.request(dict(legacy, tenant="t1"))
            new = c.specialize(POWER, "SD", ["5"], dynamics=["2"], tenant="t2")
            again = c.specialize(POWER, "SD", ["5"], dynamics=["2"], tenant="t1")
        assert old["value"] == new["value"] == "32"
        assert old["provenance"] == new["provenance"] == "miss"
        assert old["fingerprint_digest"] == new["fingerprint_digest"]
        assert again["provenance"] == "l1"

    def test_legacy_verify_false_cannot_skip_load_verification(
        self, tmp_path
    ):
        # An untrusted tenant's L2 holds an unsound image (a branch past
        # the end of its code) under both cache-kind strings older
        # versions used, "object" and "object-unverified".  A frame that
        # still carries ``"verify": false`` must not get it run: the
        # load verifies, fails, counts as a miss, and the program is
        # specialized again.
        import hashlib

        from repro.image.store import ImageStore, store_key
        from repro.pe.values import freeze_static
        from repro.rtcg import GeneratingExtension
        from repro.rtcg.system import program_digest
        from tests.helpers import unsound_residual

        gen = GeneratingExtension(POWER, "SD")
        shard = hashlib.sha256(b"mallory").hexdigest()[:16]
        store = ImageStore(tmp_path / "store" / shard)
        digest = program_digest(gen.program, "SD")
        for kind in ("object", "object-unverified"):
            key = store_key(digest, (freeze_static(5),), "duplicate", kind)
            assert store.put(key, unsound_residual(gen)) is not None
        legacy = specialize_request(
            POWER, "SD", ["5"], tenant="mallory", dynamics=["2"]
        )
        legacy["verify"] = False
        with SpecializationServer(
            port=0, store_dir=tmp_path / "store"
        ) as server:
            with client_for(server) as c:
                reply = c.request(legacy)
            tenant = server.stats()["tenants"]["mallory"]
        assert not tenant["trusted"]
        assert reply["type"] == "result", reply
        assert reply["value"] == "32"
        assert reply["provenance"] == "miss"
        (ext,) = tenant["extensions"]
        assert ext["cache"]["store"]["verify_failures"] == 1
        assert ext["cache"]["specializer_runs"] == 1


class TestTenantIsolationAndCoalescing:
    def test_eight_clients_two_tenants(self, server):
        """8 concurrent clients, 2 tenants, one cold key per tenant:
        every client gets the right answer, each tenant's cache is its
        own (one specializer run *per tenant*, not one total and not
        eight)."""
        results: list[tuple[str, str, str]] = []
        errors: list[Exception] = []
        barrier = threading.Barrier(8)

        def worker(i: int) -> None:
            tenant = "alpha" if i % 2 == 0 else "beta"
            try:
                with client_for(server, timeout=120) as c:
                    barrier.wait(timeout=60)
                    r = c.specialize(
                        POWER, "SD", ["10"], dynamics=["2"], tenant=tenant
                    )
                    results.append((tenant, r["value"], r["provenance"]))
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        assert len(results) == 8
        assert all(value == "1024" for _, value, _ in results)

        stats = server.stats()["tenants"]
        assert set(stats) == {"alpha", "beta"}
        for tenant in ("alpha", "beta"):
            runs = sum(
                e["cache"]["specializer_runs"]
                for e in stats[tenant]["extensions"]
            )
            # Coalesced: 4 clients stampeded this tenant's cold key and
            # exactly one ran the specializer (isolation: one run per
            # tenant means the tenants did NOT share a cache either).
            assert runs == 1, f"{tenant}: {runs} specializer runs"

    def test_tenant_stores_are_sharded_on_disk(self, server, tmp_path):
        with client_for(server) as c:
            c.specialize(POWER, "SD", ["9"], tenant="alpha")
            c.specialize(POWER, "SD", ["9"], tenant="beta")
        shards = [p for p in (tmp_path / "store").iterdir() if p.is_dir()]
        assert len(shards) == 2  # one L2 store per tenant, not shared


class TestAdmission:
    def test_untrusted_diverger_gets_typed_denial(self, server):
        with client_for(server) as c:
            with pytest.raises(ServiceError) as exc_info:
                c.specialize(COUNT_UP, "SD", ["0"], tenant="outsider")
            err = exc_info.value
            assert err.code == "ADMISSION_DENIED"
            assert not err.retryable
            assert err.details["findings"]
            assert any(
                "infinite-specialization" in f for f in err.details["findings"]
            )
            # the connection survives a denial
            assert c.ping()

    def test_denial_verdicts_are_cached_by_digest(self, server):
        with client_for(server) as c:
            for _ in range(3):
                with pytest.raises(ServiceError):
                    c.specialize(COUNT_UP, "SD", ["0"], tenant="outsider")
            admission = c.stats()["admission"]
            assert admission["denied"] == 3
            assert admission["analyzed"] == 1  # analyzed once, cached after

    def test_each_admitted_program_runs_one_bta(self, server, monkeypatch):
        # Admission analyzes the division of the extension the server
        # builds, so a first request costs one BTA; a cached unsafe
        # verdict denies an untrusted tenant before anything is built.
        from repro.pe.bta import analyze

        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs.get("bta", "poly"))
            return analyze(*args, **kwargs)

        # Every module-level name bound to the BTA entry point, whatever
        # it is imported as, counts.
        for name, module in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                for attr, value in list(vars(module).items()):
                    if value is analyze:
                        monkeypatch.setattr(module, attr, counting)
        with client_for(server) as c:
            c.specialize(POWER, "SD", ["4"], dynamics=["3"], tenant="t1")
            assert calls == ["poly"]
            with pytest.raises(ServiceError):
                c.specialize(COUNT_UP, "SD", ["0"], tenant="outsider")
            assert len(calls) == 2
            for _ in range(3):
                with pytest.raises(ServiceError) as exc_info:
                    c.specialize(COUNT_UP, "SD", ["0"], tenant="outsider")
                assert exc_info.value.code == "ADMISSION_DENIED"
            assert len(calls) == 2
        # a denied program is never registered, so never specialized
        outsider = server.stats()["tenants"]["outsider"]
        assert outsider["programs"] == 0
        assert outsider["denials"] == 4

    def test_trusted_tenant_reaches_the_runtime_backstop(self, server):
        with client_for(server) as c:
            with pytest.raises(ServiceError) as exc_info:
                c.specialize(
                    COUNT_UP, "SD", ["0"], tenant="insider",
                    max_unfold_depth=64,
                )
            err = exc_info.value
            assert err.code == "BUDGET_EXCEEDED"
            assert not err.retryable
            # which budget trips first depends on the divergence shape
            # (count-up exhausts the residual-def budget before the
            # unfold depth); what matters is that it is typed and named
            assert err.details["budget"].startswith("max_")
            assert err.details["limit"] >= 1

    def test_trusted_tenant_succeeds_on_safe_programs(self, server):
        with client_for(server) as c:
            r = c.specialize(
                POWER, "SD", ["4"], dynamics=["3"], tenant="insider"
            )
            assert r["value"] == "81"
            assert "admission_warnings" not in r or not r["admission_warnings"]


class TestGracefulDegradation:
    def test_garbage_bytes_get_a_bad_frame_error(self, server):
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.sendall(b"GET / HTTP/1.1\r\n\r\n" + b"\x00" * 16)
            response = recv_frame(sock)
            assert response["type"] == "error"
            assert response["code"] == "BAD_FRAME"

    def test_bad_request_fields_get_typed_errors(self, server):
        with client_for(server) as c:
            with pytest.raises(ServiceError) as exc_info:
                c.request({"type": "specialize", "v": PROTOCOL_VERSION})
            assert exc_info.value.code == "BAD_REQUEST"
            with pytest.raises(ServiceError) as exc_info:
                c.request({"type": "no-such-thing", "v": PROTOCOL_VERSION})
            assert exc_info.value.code == "BAD_REQUEST"

    @pytest.mark.parametrize("signature", ["SDS", "DX"])
    def test_bad_signature_is_a_bad_request(self, server, signature):
        with client_for(server) as c:
            with pytest.raises(ServiceError) as exc_info:
                c.specialize(POWER, signature, ["1"])
            assert exc_info.value.code == "BAD_REQUEST"
            assert not exc_info.value.retryable
            assert c.stats()["counters"]["internal_errors"] == 0

    def test_parse_error_is_typed_not_a_traceback(self, server):
        with client_for(server) as c:
            with pytest.raises(ServiceError) as exc_info:
                c.specialize("(define (f s d) (((", "SD", ["1"])
            assert exc_info.value.code == "PARSE_ERROR"

    def test_in_flight_quota_returns_retryable_busy(self, tmp_path):
        quota = TenantQuota(max_in_flight=0)
        with SpecializationServer(port=0, quota=quota) as server:
            with client_for(server) as c:
                with pytest.raises(ServiceError) as exc_info:
                    c.specialize(POWER, "SD", ["2"], tenant="t")
                assert exc_info.value.code == "BUSY"
                assert exc_info.value.retryable

    def test_connection_pool_overflow_returns_retryable_busy(self):
        with SpecializationServer(port=0, max_connections=1) as server:
            with client_for(server) as c1:
                assert c1.ping()  # occupies the single slot
                with client_for(server) as c2:
                    with pytest.raises((ServiceError, ConnectionError)) as ei:
                        c2.ping()
                    if isinstance(ei.value, ServiceError):
                        assert ei.value.code == "BUSY"
                        assert ei.value.retryable

    def test_oversized_frame_does_not_hang_the_connection(self):
        with SpecializationServer(port=0, max_frame_bytes=1024) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port)
            ) as sock:
                frame = encode_frame(
                    specialize_request("(define (f d) d)" * 200, "D")
                )
                assert len(frame) > 1024
                try:
                    sock.sendall(frame)
                    response = recv_frame(sock)
                except (ConnectionError, BrokenPipeError):
                    return  # server hung up mid-send: also not a hang
                assert response is None or response["code"] == "BAD_FRAME"


class TestServerLifecycle:
    def test_stop_is_idempotent_and_releases_the_port(self):
        server = SpecializationServer(port=0)
        server.start()
        port = server.port
        server.stop()
        server.stop()
        # the port is free again (REUSEADDR skips TIME_WAIT remnants of
        # the server's own accepted connections)
        with socket.socket() as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(("127.0.0.1", port))

    def test_stats_before_any_request(self, server):
        stats = server.stats()
        assert stats["counters"]["requests"] == 0
        assert stats["tenants"] == {}
