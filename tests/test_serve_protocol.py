"""The service wire protocol: framing, validation, and round-trips.

The frame codec is the trust boundary of the specialization service —
every byte a tenant sends passes through :func:`decode_frame` before
anything else looks at it.  The hypothesis property pins the round-trip
identity over arbitrary JSON-object payloads; the rejection tests pin
that malformed input (bad magic, version skew, truncation, trailing
bytes, oversized frames) raises :class:`FrameError` instead of
reaching the dispatcher.
"""

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.protocol import (
    ERROR_CODES,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameError,
    RequestValidationError,
    decode_frame,
    encode_frame,
    error_frame,
    specialize_request,
    validate_specialize,
)

# JSON-representable values: whatever ``json.dumps`` can produce and
# ``json.loads`` gives back unchanged (no NaN/Infinity — the codec uses
# strict JSON, and NaN != NaN would break the identity anyway).
json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**53), max_value=2**53),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=40),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
    ),
    max_leaves=20,
)

json_objects = st.dictionaries(st.text(max_size=10), json_values, max_size=8)


class TestFrameCodec:
    @settings(max_examples=200, deadline=None)
    @given(json_objects)
    def test_round_trip_identity(self, payload):
        assert decode_frame(encode_frame(payload)) == payload

    def test_frame_layout_is_versioned_and_length_prefixed(self):
        data = encode_frame({"type": "ping"})
        magic, version, length = struct.unpack(">2sBxI", data[:8])
        assert magic == b"RP"
        assert version == PROTOCOL_VERSION
        assert length == len(data) - 8
        assert json.loads(data[8:]) == {"type": "ping"}

    def test_rejects_non_dict_payload(self):
        with pytest.raises(FrameError):
            encode_frame(["not", "an", "object"])

    def test_rejects_oversized_payload_on_encode(self):
        with pytest.raises(FrameError, match="over the"):
            encode_frame({"x": "a" * 64}, max_bytes=32)

    def test_rejects_short_header(self):
        with pytest.raises(FrameError, match="truncated"):
            decode_frame(b"RP\x01\x00")

    def test_rejects_bad_magic(self):
        data = bytearray(encode_frame({"type": "ping"}))
        data[0:2] = b"XX"
        with pytest.raises(FrameError, match="magic"):
            decode_frame(bytes(data))

    def test_rejects_version_skew(self):
        data = bytearray(encode_frame({"type": "ping"}))
        data[2] = PROTOCOL_VERSION + 1
        with pytest.raises(FrameError, match="version"):
            decode_frame(bytes(data))

    def test_rejects_truncated_body(self):
        data = encode_frame({"type": "ping"})
        with pytest.raises(FrameError, match="truncated"):
            decode_frame(data[:-1])

    def test_rejects_trailing_bytes(self):
        data = encode_frame({"type": "ping"})
        with pytest.raises(FrameError, match="trailing"):
            decode_frame(data + b"!")

    def test_rejects_oversized_frame_on_decode(self):
        data = encode_frame({"x": "a" * 64})
        with pytest.raises(FrameError, match="over the"):
            decode_frame(data, max_bytes=32)

    def test_rejects_non_object_json_body(self):
        body = json.dumps([1, 2, 3]).encode()
        header = struct.pack(">2sBxI", b"RP", PROTOCOL_VERSION, len(body))
        with pytest.raises(FrameError, match="object"):
            decode_frame(header + body)

    def test_rejects_garbage_body(self):
        body = b"\xff\xfe not json"
        header = struct.pack(">2sBxI", b"RP", PROTOCOL_VERSION, len(body))
        with pytest.raises(FrameError):
            decode_frame(header + body)

    def test_default_limit_is_4mib(self):
        assert MAX_FRAME_BYTES == 4 * 1024 * 1024


class TestRequestValidation:
    def test_specialize_request_round_trips_through_validation(self):
        frame = specialize_request(
            "(define (f s d) s)", "SD", ["1"], tenant="t",
            dynamics=["2"], dif_strategy="join", backend="source",
            max_unfold_depth=10, max_residual_size=100,
        )
        req = validate_specialize(decode_frame(encode_frame(frame)))
        assert req["program"] == "(define (f s d) s)"
        assert req["signature"] == "SD"
        assert req["statics"] == ["1"]
        assert req["dynamics"] == ["2"]
        assert req["tenant"] == "t"
        assert req["dif_strategy"] == "join"
        assert req["backend"] == "source"
        assert req["max_unfold_depth"] == 10
        assert req["max_residual_size"] == 100

    def test_defaults_are_filled_in(self):
        req = validate_specialize(specialize_request("(define (f d) d)", "D"))
        assert req["tenant"] == "public"
        assert req["dif_strategy"] == "duplicate"
        assert req["backend"] == "object"
        assert req["dynamics"] is None
        assert "optimize" not in req
        assert "verify" not in req

    def test_legacy_optimize_field_validates_and_is_dropped(self):
        frame = specialize_request("(define (f d) d)", "D")
        assert "optimize" not in frame
        frame["optimize"] = True
        req = validate_specialize(decode_frame(encode_frame(frame)))
        assert req == validate_specialize(
            specialize_request("(define (f d) d)", "D")
        )

    @pytest.mark.parametrize("value", [False, True, "not a bool"])
    def test_legacy_verify_field_validates_and_is_dropped(self, value):
        frame = specialize_request("(define (f d) d)", "D")
        assert "verify" not in frame
        frame["verify"] = value
        req = validate_specialize(decode_frame(encode_frame(frame)))
        assert req == validate_specialize(
            specialize_request("(define (f d) d)", "D")
        )

    @pytest.mark.parametrize(
        "mutation",
        [
            {"program": 7},
            {"signature": None},
            {"statics": "not-a-list"},
            {"statics": [1]},
            {"dif_strategy": "clone"},
            {"backend": "llvm"},
            {"max_unfold_depth": 0},
            {"max_residual_size": -5},
            {"tenant": ""},
            {"tenant": 3},
        ],
    )
    def test_bad_fields_are_rejected(self, mutation):
        frame = specialize_request("(define (f d) d)", "D")
        frame.update(mutation)
        with pytest.raises(RequestValidationError):
            validate_specialize(frame)


class TestErrorFrames:
    def test_error_frame_shape(self):
        frame = error_frame("BUSY", "try later", retryable=True, queue=3)
        assert frame["type"] == "error"
        assert frame["code"] == "BUSY"
        assert frame["retryable"] is True
        assert frame["queue"] == 3
        assert frame["code"] in ERROR_CODES

    def test_unknown_code_is_a_bug(self):
        with pytest.raises(ValueError):
            error_frame("NO_SUCH_CODE", "nope")
