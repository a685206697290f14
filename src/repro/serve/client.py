"""A blocking client for the specialization service.

One :class:`SpecializationClient` owns one TCP connection and reuses it
for any number of request/response exchanges (the protocol is
self-delimiting, so there is no per-request connection cost).  Typed
``error`` frames from the server surface as :class:`ServiceError` with
the error ``code`` preserved; transport-level failures surface as
:class:`ConnectionError`/:class:`FrameError`.  The connection handling
is :class:`repro.serve.transport.FrameClient`'s.

    with SpecializationClient("127.0.0.1", port) as client:
        result = client.specialize(POWER, "DS", statics=["10"],
                                   dynamics=["2"])
        assert result["value"] == "1024"
"""

from __future__ import annotations

from typing import Any

from repro.serve.protocol import MAX_FRAME_BYTES, specialize_request
from repro.serve.transport import FrameClient, wait_for_server

__all__ = ["ServiceError", "SpecializationClient", "wait_for_server"]


class ServiceError(Exception):
    """A typed error frame from the server.

    ``code`` is one of :data:`repro.serve.protocol.ERROR_CODES`;
    ``retryable`` says whether backing off and retrying can help
    (``BUSY``) or not (``ADMISSION_DENIED``, ``BUDGET_EXCEEDED``);
    ``details`` carries any extra fields of the frame (e.g. the
    analyzer ``findings`` of an admission denial).
    """

    def __init__(self, frame: dict[str, Any]):
        self.code = frame.get("code", "INTERNAL")
        self.retryable = bool(frame.get("retryable", False))
        self.details = {
            k: v for k, v in frame.items()
            if k not in ("type", "v", "code", "message", "retryable")
        }
        super().__init__(f"{self.code}: {frame.get('message', '')}")


class SpecializationClient(FrameClient):
    """A blocking protocol client with connection reuse (no retries)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 60.0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ):
        super().__init__(
            host, port, timeout, retries=0, max_frame_bytes=max_frame_bytes
        )

    def request(self, frame: dict[str, Any]) -> dict[str, Any]:
        """Send one frame, return the response frame.

        Raises :class:`ServiceError` for typed ``error`` responses and
        :class:`ConnectionError` when the server hangs up (e.g. after a
        ``BAD_FRAME``, or a pool-full ``BUSY`` at accept time — that
        one arrives as a :class:`ServiceError` first).

        Any *transport-level* failure mid-exchange — a ``socket.timeout``
        or peer reset, or a torn frame (:class:`FrameError`) — closes and
        resets the connection before the exception propagates (see
        :meth:`FrameClient.exchange`); the next :meth:`request`
        transparently reconnects.  A :class:`ServiceError` arrives on an
        in-sync stream and keeps the connection open, and a frame too
        large to send raises :class:`FrameError` before any I/O.
        """
        response = self.exchange(self.encode(frame))
        if response.get("type") == "error":
            raise ServiceError(response)
        return response

    # -- convenience wrappers ----------------------------------------------------

    def specialize(
        self,
        program: str,
        signature: str,
        statics: list[str] | tuple[str, ...] = (),
        **knobs: Any,
    ) -> dict[str, Any]:
        """Specialize ``program`` to ``statics``; the ``result`` frame.

        ``knobs`` are the keyword fields of
        :func:`repro.serve.protocol.specialize_request` (``tenant``,
        ``goal``, ``dynamics``, ``backend``, budgets, ...).
        """
        return self.request(
            specialize_request(program, signature, statics, **knobs)
        )

    def probe(
        self,
        program: str,
        signature: str,
        statics: list[str] | tuple[str, ...] = (),
        **knobs: Any,
    ) -> dict[str, Any]:
        """Is this residual already cached?  Never generates anything
        and never perturbs the tenant's cache recency."""
        return self.request(
            specialize_request(program, signature, statics, probe=True,
                               **knobs)
        )

    def ping(self) -> bool:
        return self.request({"type": "ping"}).get("type") == "pong"

    def stats(self) -> dict[str, Any]:
        """The server's stats snapshot (server/admission/tenant counters)."""
        return self.request({"type": "stats"})["stats"]
