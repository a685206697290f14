"""The frame transport shared by both socket services.

:mod:`repro.serve.transport` carries the specialization server and the
L3 object server alike, so its policies hold on both: a full connection
pool answers a typed, retryable ``BUSY`` frame; the dispatch boundary
turns handler exceptions into typed ``INTERNAL`` frames; every counter
lives in one registry mirrored to ``obs``; a client encodes before any
I/O; and ``wait_for_server`` works against either server.
"""

from __future__ import annotations

import hashlib
import socket

import pytest

from repro import obs
from repro.image.remote import ObjectServer, RemoteStoreClient, RemoteStoreError
from repro.serve import SpecializationServer
from repro.serve.protocol import recv_frame
from repro.serve.transport import FrameServer, wait_for_server


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestBusyPolicy:
    def test_object_server_pool_overflow_answers_retryable_busy(
        self, tmp_path
    ):
        with ObjectServer(tmp_path / "l3", max_connections=1) as server:
            first = RemoteStoreClient("127.0.0.1", server.port)
            assert first.ping()  # occupies the single slot
            with socket.create_connection(("127.0.0.1", server.port)) as raw:
                frame = recv_frame(raw)
            assert frame is not None
            assert frame["code"] == "BUSY" and frame["retryable"] is True
            second = RemoteStoreClient("127.0.0.1", server.port, retries=0)
            with pytest.raises(RemoteStoreError) as exc:
                second.fetch(digest="ab" * 32)
            assert exc.value.retryable
            second.close()
            first.close()
            assert server.stats()["counters"]["connections_rejected_busy"] == 2


class TestOversizedRequest:
    def test_push_over_the_frame_limit_is_refused_without_io(self, tmp_path):
        with ObjectServer(tmp_path / "l3") as server:
            client = RemoteStoreClient(
                "127.0.0.1", server.port, max_frame_bytes=4096
            )
            assert client.ping()
            sock = client._sock
            data = b"x" * 8192
            with pytest.raises(RemoteStoreError) as exc:
                client.push(hashlib.sha256(data).hexdigest(), data)
            assert not exc.value.retryable
            assert client._sock is sock  # the healthy connection is kept
            assert client.ping()
            client.close()
            assert server.stats()["counters"]["puts"] == 0


class _Faulty(FrameServer):
    OBS_PREFIX = "test.faulty"

    def __init__(self):
        super().__init__("127.0.0.1", 0, 4, 1 << 20, {
            "disk": self._disk, "bug": self._bug,
        })

    def _disk(self, frame):
        raise OSError("disk full")

    def _bug(self, frame):
        raise KeyError("oops")


class TestDispatchBoundary:
    def test_exceptions_become_typed_internal_frames(self):
        server = _Faulty()
        with obs.tracing() as (_tracer, metrics):
            disk = server._dispatch({"type": "disk"})
            bug = server._dispatch({"type": "bug"})
            unknown = server._dispatch({"type": ["not", "a", "name"]})
        assert disk["code"] == "INTERNAL" and disk["retryable"] is True
        assert bug["code"] == "INTERNAL" and bug["retryable"] is False
        assert "Traceback" not in bug["message"]
        assert unknown["code"] == "BAD_REQUEST"
        counters = server.stats()["counters"]
        assert counters["internal_errors"] == 2
        assert counters["bad_requests"] == 1
        assert counters["responses_error"] == 3
        # one call per event: the registry and its obs mirror agree
        assert metrics.counter_value("test.faulty.internal_errors") == 2
        assert metrics.counter_value("test.faulty.requests") == 3


class TestCounters:
    def test_both_servers_start_every_counter_at_zero(self, tmp_path):
        with SpecializationServer() as serve, \
                ObjectServer(tmp_path / "l3") as store:
            serve_counters = serve.stats()["counters"]
            store_counters = store.stats()["counters"]
        for key in ("requests", "frame_errors", "bad_requests",
                    "connections_rejected_busy", "internal_errors"):
            assert serve_counters[key] == 0
            assert store_counters[key] == 0
        assert serve_counters["connections_accepted"] == 0
        assert store_counters["connections"] == 0
        assert store_counters["dedups"] == 0

    def test_object_server_frame_error_is_counted_and_mirrored(
        self, tmp_path
    ):
        with obs.tracing() as (_tracer, metrics):
            with ObjectServer(tmp_path / "l3") as server:
                with socket.create_connection(
                    ("127.0.0.1", server.port)
                ) as raw:
                    raw.sendall(b"GET / HTTP/1.1\r\n\r\n")
                    frame = recv_frame(raw)
                assert frame is not None and frame["code"] == "BAD_FRAME"
                assert server.stats()["counters"]["frame_errors"] == 1
        assert metrics.counter_value("image.l3.server.frame_errors") == 1


class TestWaitForServer:
    def test_waits_for_either_server(self, tmp_path):
        with SpecializationServer() as serve, \
                ObjectServer(tmp_path / "l3") as store:
            wait_for_server("127.0.0.1", serve.port, timeout=5)
            wait_for_server("127.0.0.1", store.port, timeout=5)

    def test_gives_up_at_the_deadline(self):
        with pytest.raises(ConnectionError):
            wait_for_server("127.0.0.1", _free_port(), timeout=0.3)

    def test_client_module_import_path_still_works(self):
        from repro.serve.client import wait_for_server as old_path

        assert old_path is wait_for_server
