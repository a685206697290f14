"""The frame transport under both socket services.

The specialization server (:mod:`repro.serve.server`) and the L3 object
server (:mod:`repro.image.remote`) speak the frame protocol of
:mod:`repro.serve.protocol` over one connection model, written here once.

:class:`FrameServer` owns the listener, start/stop, the accept loop, the
bounded connection pool and its ``BUSY`` policy, the per-connection
recv→dispatch→send loop, the typed-frame boundary, the built-in
``ping``/``stats`` frames and one :class:`~repro.obs.Counters` registry
of transport and request counters; a concrete server is a handler table
(frame type → method) plus its domain state.  :class:`FrameClient` owns
one reusable connection, the exchange and retry with backoff.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Callable, TypeVar

from repro import obs
from repro.serve.protocol import (
    E_BAD_FRAME,
    E_BAD_REQUEST,
    E_BUSY,
    E_INTERNAL,
    FrameError,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    RequestValidationError,
    encode_frame,
    error_frame,
    recv_frame,
    send_frame,
)

#: Seconds a connection may sit idle between frames before the server
#: drops it.
IDLE_TIMEOUT = 300.0

#: Counters every server keeps besides its admitted-connection counter.
TRANSPORT_COUNTERS = (
    "connections_rejected_busy", "requests", "responses_ok",
    "responses_error", "bad_requests", "internal_errors", "frame_errors",
)

Handler = Callable[[dict[str, Any]], dict[str, Any]]
_S = TypeVar("_S", bound="FrameServer")
_C = TypeVar("_C", bound="FrameClient")


class Refusal(Exception):
    """A request answered with a typed error frame.  Raise it anywhere
    under a handler; :meth:`FrameServer._dispatch` sends its frame."""

    def __init__(
        self, code: str, message: str, retryable: bool = False, **details: Any
    ):
        super().__init__(message)
        self.frame = error_frame(code, message, retryable=retryable, **details)


def _shut(sock: socket.socket) -> None:
    """``shutdown`` then ``close``, each best-effort.  ``shutdown`` wakes
    a thread blocked in ``accept``/``recv``; ``close`` alone leaves it
    blocked, and a listener's port in LISTEN, so a restart on the same
    port would fail with EADDRINUSE."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class FrameServer:
    """A threaded frame server: one accept thread plus one handler
    thread per live connection, at most ``max_connections`` of them.  A
    connection carries any number of sequential exchanges.

    A subclass passes its handler table to ``__init__`` and names
    ``OBS_PREFIX`` (the ``obs`` namespace of its counters), ``COUNTERS``
    (its domain counters, shown from zero) and, if it differs,
    ``ACCEPTED`` (its admitted-connection counter).
    """

    OBS_PREFIX = "server"
    COUNTERS: tuple[str, ...] = ()
    ACCEPTED = "connections_accepted"

    def __init__(
        self,
        host: str,
        port: int,
        max_connections: int,
        max_frame_bytes: int,
        handlers: dict[str, Handler],
    ):
        self.host = host
        self._requested_port = port
        self.port: int | None = None
        self.max_connections = max_connections
        self.max_frame_bytes = max_frame_bytes
        self._handlers: dict[str, Handler] = {
            "ping": self._handle_ping, "stats": self._handle_stats, **handlers,
        }
        self.metrics = obs.Counters(
            self.OBS_PREFIX, (self.ACCEPTED, *TRANSPORT_COUNTERS, *self.COUNTERS)
        )
        self._lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._threads: set[threading.Thread] = set()
        self._connections: set[socket.socket] = set()
        self._closing = threading.Event()

    # -- lifecycle ------------------------------------------------------------

    def start(self: _S) -> _S:
        listener = socket.create_server(
            (self.host, self._requested_port), reuse_port=False
        )
        listener.listen(128)
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True,
            name=f"{type(self).__name__}-accept",
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, unblock every live connection, join threads."""
        self._closing.set()
        if self._listener is not None:
            _shut(self._listener)
        with self._lock:
            connections = list(self._connections)
            threads = list(self._threads)
        for conn in connections:
            _shut(conn)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        for thread in threads:
            thread.join(timeout=5)

    def __enter__(self: _S) -> _S:
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -- connections ----------------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._closing.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                break  # listener shut down by stop()
            with self._lock:
                admitted = len(self._connections) < self.max_connections
                if admitted:
                    self._connections.add(conn)
            if not admitted:
                # Graceful degradation at the pool boundary: a typed,
                # retryable BUSY frame, then close — never a socket
                # that neither answers nor disconnects.
                self.metrics.count("connections_rejected_busy")
                self._send_quietly(conn, error_frame(
                    E_BUSY,
                    f"server connection pool is full"
                    f" ({self.max_connections} connections)",
                    retryable=True,
                ))
                _shut(conn)
                continue
            self.metrics.count(self.ACCEPTED)
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True,
                name=f"{type(self).__name__}-conn",
            )
            with self._lock:
                self._threads.add(thread)
            thread.start()

    def _send_quietly(self, conn: socket.socket, frame: dict[str, Any]) -> bool:
        """Send to a peer that may be gone; False if sending failed."""
        try:
            send_frame(conn, frame, max_bytes=self.max_frame_bytes)
        except OSError:
            return False
        return True

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            conn.settimeout(IDLE_TIMEOUT)
            while not self._closing.is_set():
                try:
                    frame = recv_frame(conn, max_bytes=self.max_frame_bytes)
                except FrameError as exc:
                    # A peer speaking garbage: answer once, typed, and
                    # drop the connection (framing is unrecoverable).
                    self.metrics.count("frame_errors")
                    self._send_quietly(conn, error_frame(E_BAD_FRAME, str(exc)))
                    return
                except OSError:
                    return  # idle timeout or peer reset
                if frame is None:
                    return  # clean EOF
                response = self._dispatch(frame)
                try:
                    send_frame(conn, response, max_bytes=self.max_frame_bytes)
                except FrameError:
                    # The response itself does not fit a frame (e.g. a
                    # huge residual): degrade to a typed error.
                    if not self._send_quietly(conn, error_frame(
                        E_INTERNAL, "response exceeded the frame size limit"
                    )):
                        return
                except OSError:
                    return
        finally:
            with self._lock:
                self._connections.discard(conn)
                self._threads.discard(threading.current_thread())
            _shut(conn)

    # -- dispatch -------------------------------------------------------------

    def _dispatch(self, frame: dict[str, Any]) -> dict[str, Any]:
        """Answer one decoded request frame: the typed-frame boundary."""
        self.metrics.count("requests")
        kind = frame.get("type")
        handler = self._handlers.get(kind) if isinstance(kind, str) else None
        try:
            if handler is None:
                raise Refusal(E_BAD_REQUEST, f"unknown request type {kind!r}")
            response = handler(frame)
        except Refusal as exc:
            response = exc.frame
        except RequestValidationError as exc:
            response = error_frame(E_BAD_REQUEST, str(exc))
        except Exception as exc:  # noqa: BLE001 - the typed-frame boundary
            # A traceback never crosses the wire.  A bug becomes a
            # non-retryable INTERNAL frame instead of killing the
            # connection thread; an OSError (disk or network trouble on
            # the server) is worth a retry.
            self.metrics.count("internal_errors")
            response = error_frame(
                E_INTERNAL, f"{type(exc).__name__}: {exc}",
                retryable=isinstance(exc, OSError),
            )
        if response.get("type") != "error":
            self.metrics.count("responses_ok")
        else:
            self.metrics.count("responses_error")
            if response.get("code") == E_BAD_REQUEST:
                self.metrics.count("bad_requests")
        return response

    def _handle_ping(self, frame: dict[str, Any]) -> dict[str, Any]:
        return {"type": "pong", "v": PROTOCOL_VERSION}

    def _handle_stats(self, frame: dict[str, Any]) -> dict[str, Any]:
        return {"type": "stats_result", "v": PROTOCOL_VERSION,
                "stats": self.stats()}

    def stats(self) -> dict[str, Any]:
        """The endpoint, the pool and every counter, zeros included."""
        with self._lock:
            active = len(self._connections)
        return {
            "host": self.host,
            "port": self.port,
            "max_connections": self.max_connections,
            "active_connections": active,
            "counters": self.metrics.snapshot(),
        }


class FrameClient:
    """One reusable connection to a frame server, opened on first use.

    A failed exchange is retried ``retries`` times on a fresh connection
    after ``backoff``, ``2 * backoff``, ... seconds; the defaults are
    those of the L3 object-store client, whose exchanges are idempotent.
    Thread-safe: one exchange at a time holds the connection.
    """

    #: The ``obs`` namespace of the ``retry`` counter.
    OBS_PREFIX = "client"

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 5.0,
        retries: int = 2,
        backoff: float = 0.05,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.max_frame_bytes = max_frame_bytes
        self._sock: socket.socket | None = None
        self._io_lock = threading.Lock()

    def _connect_locked(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        return self._sock

    def close(self) -> None:
        with self._io_lock:
            self._close_locked()

    def _close_locked(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self: _C) -> _C:
        with self._io_lock:
            self._connect_locked()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def encode(self, frame: dict[str, Any]) -> bytes:
        """The wire bytes of ``frame``.  A frame that cannot be sent (not
        an object, over the size limit) raises :class:`FrameError` here,
        before any I/O, so the connection stays as it was."""
        return encode_frame(frame, max_bytes=self.max_frame_bytes)

    def exchange(self, data: bytes) -> dict[str, Any]:
        """Send one encoded frame; return the response frame, typed
        ``error`` frames included.

        Any transport failure — a timeout or reset, a torn frame, a
        hang-up before the response — first closes the connection: the
        stream may hold half a frame, and reusing it would desync every
        later exchange.  After the last retry the failure propagates as
        :class:`OSError` or :class:`FrameError`.
        """
        attempt = 0
        while True:
            with self._io_lock:
                try:
                    sock = self._connect_locked()
                    sock.sendall(data)
                    response = recv_frame(sock, max_bytes=self.max_frame_bytes)
                    if response is None:
                        raise ConnectionError(
                            "server closed the connection without a response"
                        )
                    return response
                except (OSError, FrameError):
                    self._close_locked()
                    if attempt >= self.retries:
                        raise
            attempt += 1
            time.sleep(self.backoff * 2 ** (attempt - 1))
            obs.count(f"{self.OBS_PREFIX}.retry")


def wait_for_server(
    host: str, port: int, timeout: float = 10.0, interval: float = 0.05
) -> None:
    """Block until a frame server (``python -m repro serve`` or ``image
    serve-store``) answers ``ping`` at (host, port), so a script that
    starts one as a separate process does not race its bind/listen.
    Raises :class:`ConnectionError` when the deadline passes.
    """
    ping = encode_frame({"type": "ping", "v": PROTOCOL_VERSION})
    deadline = time.monotonic() + timeout
    last: Exception | None = None
    while time.monotonic() < deadline:
        try:
            with FrameClient(
                host, port, timeout=interval * 10, retries=0
            ) as client:
                if client.exchange(ping).get("type") == "pong":
                    return
        except (OSError, FrameError) as exc:
            last = exc
        time.sleep(interval)
    raise ConnectionError(
        f"no server answered at {host}:{port} within {timeout}s"
        + (f" (last error: {last})" if last else "")
    )
