"""The wire protocol of the specialization service.

One *frame* is an 8-byte header followed by a UTF-8 JSON object::

    +----+----+---------+-------------------+----------------------+
    | 'R'| 'P'| version | length (uint32 BE)| JSON payload (bytes) |
    +----+----+---------+-------------------+----------------------+
      magic      1 byte        4 bytes         exactly `length`

(the byte after the version is reserved padding and must be zero).
Frames are self-delimiting, so one connection carries any number of
request/response exchanges; the payload is always a JSON *object* with
a ``"type"`` discriminator.

Request types the server understands:

``specialize``
    ``program`` (Scheme source text), ``signature`` (e.g. ``"SD"``),
    ``statics`` (list of Scheme datum strings, one per static
    parameter), plus knobs: ``tenant``, ``goal``, ``dif_strategy``,
    ``backend`` (``"object"``/``"source"``), ``verify``, ``optimize``,
    ``memo_hints``/``unfold_hints``, per-request budgets
    ``max_unfold_depth``/``max_residual_size`` (clamped to the tenant
    quota), ``dynamics`` (datum strings — run the residual server-side
    and return the printed value), and ``want_residual`` (include the
    residual program text in the response).
``probe``
    Same shape; answers whether the residual is already cached without
    generating anything (and without perturbing LRU recency — the
    lookup goes through :meth:`repro.pe.residual_cache.ResidualCache.peek`).
``stats``
    A snapshot of server/tenant counters.
``ping``
    Liveness.

Responses are ``result`` / ``probed`` / ``stats_result`` / ``pong``
frames, or a typed ``error`` frame — the server never writes a
traceback onto the wire::

    {"type": "error", "v": 1, "code": "ADMISSION_DENIED",
     "message": "...", "retryable": false, ...details}

Framing failures (bad magic, wrong version, oversized or truncated
frames, non-object JSON) raise :class:`FrameError` locally and are
answered with a ``BAD_FRAME`` error before the connection is closed.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any

PROTOCOL_VERSION = 1

#: Hard ceiling on one frame's JSON payload.  Programs and residual
#: texts are small (kilobytes); anything near this bound is garbage or
#: abuse, and rejecting it early keeps a malicious peer from making the
#: server buffer arbitrary data.
MAX_FRAME_BYTES = 4 * 1024 * 1024

_MAGIC = b"RP"
_HEADER = struct.Struct(">2sBxI")

# Typed error codes (the closed set; clients may switch on these).
E_BAD_FRAME = "BAD_FRAME"            # unparseable frame; connection closes
E_BAD_REQUEST = "BAD_REQUEST"        # well-framed but malformed request
E_PARSE_ERROR = "PARSE_ERROR"        # program/static/dynamic text unreadable
E_ADMISSION_DENIED = "ADMISSION_DENIED"  # safety analyzer refused the program
E_BUDGET_EXCEEDED = "BUDGET_EXCEEDED"    # unfold/size budget tripped
E_BUSY = "BUSY"                      # pool or in-flight quota saturated
E_QUOTA_EXCEEDED = "QUOTA_EXCEEDED"  # a hard per-tenant quota refused work
E_SPECIALIZATION_ERROR = "SPECIALIZATION_ERROR"  # PE/run-time failure
E_INTERNAL = "INTERNAL"              # server-side bug (message, no traceback)

ERROR_CODES = frozenset({
    E_BAD_FRAME, E_BAD_REQUEST, E_PARSE_ERROR, E_ADMISSION_DENIED,
    E_BUDGET_EXCEEDED, E_BUSY, E_QUOTA_EXCEEDED, E_SPECIALIZATION_ERROR,
    E_INTERNAL,
})


class FrameError(ValueError):
    """A frame that cannot be decoded: bad magic, unsupported version,
    oversized length, truncated payload, or a non-object JSON body."""


def encode_frame(
    payload: dict[str, Any], max_bytes: int = MAX_FRAME_BYTES
) -> bytes:
    """Serialize one payload object into its wire frame."""
    if not isinstance(payload, dict):
        raise FrameError(
            f"frame payload must be a JSON object, got {type(payload).__name__}"
        )
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > max_bytes:
        raise FrameError(
            f"frame payload is {len(body)} bytes, over the"
            f" {max_bytes}-byte limit"
        )
    return _HEADER.pack(_MAGIC, PROTOCOL_VERSION, len(body)) + body


def decode_frame(
    data: bytes, max_bytes: int = MAX_FRAME_BYTES
) -> dict[str, Any]:
    """Decode exactly one complete frame; the inverse of
    :func:`encode_frame`.  Rejects truncated frames and trailing bytes."""
    if len(data) < _HEADER.size:
        raise FrameError(
            f"truncated frame: {len(data)} bytes, header needs"
            f" {_HEADER.size}"
        )
    length = _payload_length(data, max_bytes)
    body = data[_HEADER.size:]
    if len(body) < length:
        raise FrameError(
            f"truncated frame: payload has {len(body)} of {length} bytes"
        )
    if len(body) > length:
        raise FrameError(
            f"{len(body) - length} trailing byte(s) after the frame"
        )
    return _parse_body(body)


def _payload_length(header: bytes, max_bytes: int) -> int:
    """Check a frame header; the payload length it announces."""
    magic, version, length = _HEADER.unpack_from(header)
    if magic != _MAGIC:
        raise FrameError(f"bad magic {magic!r} (expected {_MAGIC!r})")
    if version != PROTOCOL_VERSION:
        raise FrameError(
            f"unsupported protocol version {version}"
            f" (this side speaks {PROTOCOL_VERSION})"
        )
    if length > max_bytes:
        raise FrameError(
            f"frame payload of {length} bytes is over the"
            f" {max_bytes}-byte limit"
        )
    return length


def _parse_body(body: bytes) -> dict[str, Any]:
    try:
        payload = json.loads(body)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"frame payload is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise FrameError(
            f"frame payload must be a JSON object,"
            f" got {type(payload).__name__}"
        )
    return payload


# -- socket-level framing ---------------------------------------------------


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes.  ``None`` on clean EOF *before* the
    first byte; :class:`FrameError` on EOF mid-read (a truncated frame)."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            if got == 0:
                return None
            raise FrameError(
                f"connection closed mid-frame ({got} of {n} bytes)"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def send_frame(
    sock: socket.socket,
    payload: dict[str, Any],
    max_bytes: int = MAX_FRAME_BYTES,
) -> None:
    """Write one frame to a connected socket."""
    sock.sendall(encode_frame(payload, max_bytes=max_bytes))


def recv_frame(
    sock: socket.socket, max_bytes: int = MAX_FRAME_BYTES
) -> dict[str, Any] | None:
    """Read one frame from a connected socket.

    Returns ``None`` on clean EOF at a frame boundary; raises
    :class:`FrameError` on garbage, truncation, or an oversized length.
    """
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    body = _recv_exact(sock, _payload_length(header, max_bytes))
    if body is None:
        raise FrameError("connection closed between header and payload")
    return _parse_body(body)


# -- frame builders ---------------------------------------------------------


def error_frame(
    code: str, message: str, retryable: bool = False, **details: Any
) -> dict[str, Any]:
    """A typed error response.  ``details`` must be JSON-serializable."""
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    frame = {
        "type": "error",
        "v": PROTOCOL_VERSION,
        "code": code,
        "message": message,
        "retryable": retryable,
    }
    frame.update(details)
    return frame


def specialize_request(
    program: str,
    signature: str,
    statics: list[str] | tuple[str, ...] = (),
    *,
    tenant: str = "public",
    goal: str | None = None,
    dynamics: list[str] | tuple[str, ...] | None = None,
    dif_strategy: str = "duplicate",
    backend: str = "object",
    verify: bool = True,
    optimize: bool = False,
    memo_hints: list[str] | tuple[str, ...] = (),
    unfold_hints: list[str] | tuple[str, ...] = (),
    max_unfold_depth: int | None = None,
    max_residual_size: int | None = None,
    want_residual: bool = False,
    probe: bool = False,
) -> dict[str, Any]:
    """Build a ``specialize`` (or, with ``probe=True``, a ``probe``)
    request frame.  Statics and dynamics travel as Scheme datum text."""
    frame: dict[str, Any] = {
        "type": "probe" if probe else "specialize",
        "v": PROTOCOL_VERSION,
        "tenant": tenant,
        "program": program,
        "signature": signature,
        "statics": list(statics),
        "dif_strategy": dif_strategy,
        "backend": backend,
        "verify": verify,
        "optimize": optimize,
        "want_residual": want_residual,
    }
    if goal is not None:
        frame["goal"] = goal
    if dynamics is not None:
        frame["dynamics"] = list(dynamics)
    if memo_hints:
        frame["memo_hints"] = list(memo_hints)
    if unfold_hints:
        frame["unfold_hints"] = list(unfold_hints)
    if max_unfold_depth is not None:
        frame["max_unfold_depth"] = max_unfold_depth
    if max_residual_size is not None:
        frame["max_residual_size"] = max_residual_size
    return frame


class RequestValidationError(ValueError):
    """A well-framed request with missing or ill-typed fields."""


def _expect(frame: dict, field: str, types, default=None, required=False):
    value = frame.get(field, default)
    if value is default and not required:
        return value
    if required and field not in frame:
        raise RequestValidationError(f"missing required field {field!r}")
    if not isinstance(value, types):
        names = (
            types.__name__ if isinstance(types, type)
            else "/".join(t.__name__ for t in types)
        )
        raise RequestValidationError(
            f"field {field!r} must be {names},"
            f" got {type(value).__name__}"
        )
    return value


def _expect_str_list(frame: dict, field: str, default=()) -> list[str]:
    value = frame.get(field, None)
    if value is None:
        return list(default)
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise RequestValidationError(
            f"field {field!r} must be a list of strings"
        )
    return value


def validate_specialize(frame: dict[str, Any]) -> dict[str, Any]:
    """Check and normalize a ``specialize``/``probe`` request.

    Returns a plain dict with every knob defaulted; raises
    :class:`RequestValidationError` (mapped to a ``BAD_REQUEST`` error
    frame by the server) on any missing or ill-typed field.
    """
    out: dict[str, Any] = {
        "program": _expect(frame, "program", str, required=True),
        "signature": _expect(frame, "signature", str, required=True),
        "tenant": _expect(frame, "tenant", str, default="public"),
        "goal": _expect(frame, "goal", str),
        "statics": _expect_str_list(frame, "statics"),
        "dynamics": (
            _expect_str_list(frame, "dynamics")
            if frame.get("dynamics") is not None else None
        ),
        "dif_strategy": _expect(
            frame, "dif_strategy", str, default="duplicate"
        ),
        "backend": _expect(frame, "backend", str, default="object"),
        "verify": _expect(frame, "verify", bool, default=True),
        "optimize": _expect(frame, "optimize", bool, default=False),
        "memo_hints": _expect_str_list(frame, "memo_hints"),
        "unfold_hints": _expect_str_list(frame, "unfold_hints"),
        "max_unfold_depth": _expect(frame, "max_unfold_depth", int),
        "max_residual_size": _expect(frame, "max_residual_size", int),
        "want_residual": _expect(frame, "want_residual", bool, default=False),
    }
    if out["dif_strategy"] not in ("duplicate", "join"):
        raise RequestValidationError(
            f"unknown dif_strategy {out['dif_strategy']!r}"
        )
    if out["backend"] not in ("object", "source"):
        raise RequestValidationError(f"unknown backend {out['backend']!r}")
    for budget in ("max_unfold_depth", "max_residual_size"):
        value = out[budget]
        if value is not None and value < 1:
            raise RequestValidationError(f"{budget} must be >= 1, got {value}")
    if not out["tenant"]:
        raise RequestValidationError("tenant name must be non-empty")
    return out
