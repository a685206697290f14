"""A versioned binary codec for residual object code.

Encodes :class:`~repro.vm.template.Template` trees (code vectors,
literal frames with nested templates, prim specs, symbols) and whole
:class:`~repro.pe.backend.ResidualProgram`s into a self-describing byte
image, and decodes them back.  Deliberately **pickle-free**: the wire
format is a closed set of tags over a closed set of value types, so a
malformed, truncated, or stale file fails loudly with
:class:`CodecError` instead of executing arbitrary reducers.

Image layout::

    +-------+---------+-------------+-----------+-----------+
    | magic | version | payload len | CRC32     | payload   |
    | 4 B   | u16 BE  | u32 BE      | u32 BE    | ...       |
    +-------+---------+-------------+-----------+-----------+

The CRC is computed over the payload and checked *before* any decoding,
so a corrupted byte is rejected before any value — let alone any VM
code — is materialized.  Integers are LEB128 varints (zigzag for signed
operands), floats are IEEE-754 doubles, strings are UTF-8 with a length
prefix.  Primitives are encoded by *name* and re-resolved against the
running system's primitive table on decode: an image referring to a
primitive this build does not define is stale and is rejected.

Residual-program images additionally carry the SHA-256 of their
encoded code (:func:`residual_digest`); the decoder re-encodes what it
decoded and compares, so tampering that recomputes the CRC, or any drift
between encoder and decoder, surfaces as a :class:`CodecError`, not as
silently different code.  (Version 1 images embedded the digest of the
textual fingerprint instead; this build rejects them as stale.)
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from typing import Any

from repro.lang.prims import PRIMITIVES, PrimSpec
from repro.pe.backend import ResidualProgram
from repro.runtime.values import NIL, UNSPECIFIED, Pair, Unspecified
from repro.sexp.datum import Char, Symbol, sym
from repro.vm.instructions import OP_NAMES
from repro.vm.machine import Machine, VmClosure
from repro.vm.template import Template, intern_code

MAGIC = b"RPOI"  # RePro Object Image
CODEC_VERSION = 2

_HEADER = struct.Struct(">4sHII")  # magic, version, payload length, CRC32
_DOUBLE = struct.Struct(">d")


class CodecError(ValueError):
    """A malformed, truncated, corrupted, or stale image."""


# -- value tags ---------------------------------------------------------------

_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_SYMBOL = 0x06
_T_CHAR = 0x07
_T_NIL = 0x08
_T_UNSPECIFIED = 0x09
_T_LIST = 0x0A           # pair spine: count, cars..., tail value
_T_PRIM = 0x0B           # by name, re-resolved on decode
_T_TEMPLATE = 0x0C       # nested template

# Residual-program artifact kinds.
_K_OBJECT = 0x4F         # 'O': a Machine of templates
_K_SOURCE = 0x53         # 'S': residual source, stored as program text


class _Encoder:
    """Append-only byte sink with the primitive wire encodings."""

    __slots__ = ("buf",)

    def __init__(self) -> None:
        self.buf = bytearray()

    def uvarint(self, n: int) -> None:
        if n < 0:
            raise CodecError(f"uvarint cannot encode negative {n}")
        while True:
            byte = n & 0x7F
            n >>= 7
            if n:
                self.buf.append(byte | 0x80)
            else:
                self.buf.append(byte)
                return

    def svarint(self, n: int) -> None:
        # Zigzag: interleave negatives so small magnitudes stay short.
        self.uvarint(n << 1 if n >= 0 else ((-n) << 1) - 1)

    def string(self, s: str) -> None:
        data = s.encode("utf-8")
        self.uvarint(len(data))
        self.buf += data

    def double(self, x: float) -> None:
        self.buf += _DOUBLE.pack(x)

    def tag(self, t: int) -> None:
        self.buf.append(t)


class _Decoder:
    """Bounds-checked reader over an image payload."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def _need(self, n: int) -> None:
        if self.pos + n > len(self.data):
            raise CodecError(
                f"truncated payload: need {n} byte(s) at offset {self.pos},"
                f" have {len(self.data) - self.pos}"
            )

    def byte(self) -> int:
        self._need(1)
        b = self.data[self.pos]
        self.pos += 1
        return b

    def uvarint(self) -> int:
        result = 0
        shift = 0
        while True:
            b = self.byte()
            result |= (b & 0x7F) << shift
            if not b & 0x80:
                return result
            shift += 7
            if shift > 10_000:  # a varint this long is garbage, not a number
                raise CodecError("runaway varint")

    def svarint(self) -> int:
        z = self.uvarint()
        return (z >> 1) if not z & 1 else -((z + 1) >> 1)

    def count(self, what: str) -> int:
        """A collection count, sanity-bounded by the remaining payload."""
        n = self.uvarint()
        if n > len(self.data) - self.pos:
            raise CodecError(
                f"implausible {what} count {n} with"
                f" {len(self.data) - self.pos} payload byte(s) left"
            )
        return n

    def string(self) -> str:
        n = self.count("string byte")
        self._need(n)
        raw = self.data[self.pos:self.pos + n]
        self.pos += n
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"invalid UTF-8 in string: {exc}") from None

    def double(self) -> float:
        self._need(8)
        (x,) = _DOUBLE.unpack_from(self.data, self.pos)
        self.pos += 8
        return x

    def done(self) -> None:
        if self.pos != len(self.data):
            raise CodecError(
                f"{len(self.data) - self.pos} trailing byte(s) after payload"
            )


# -- values -------------------------------------------------------------------


def _encode_value(enc: _Encoder, value: Any) -> None:
    # bool before int: True/False are ints in Python.
    if value is True:
        enc.tag(_T_TRUE)
    elif value is False:
        enc.tag(_T_FALSE)
    elif isinstance(value, int):
        enc.tag(_T_INT)
        enc.svarint(value)
    elif isinstance(value, float):
        enc.tag(_T_FLOAT)
        enc.double(value)
    elif isinstance(value, str):
        enc.tag(_T_STR)
        enc.string(value)
    elif isinstance(value, Symbol):
        enc.tag(_T_SYMBOL)
        enc.string(value.name)
    elif isinstance(value, Char):
        enc.tag(_T_CHAR)
        enc.string(value.value)
    elif value is NIL:
        enc.tag(_T_NIL)
    elif isinstance(value, Unspecified):
        enc.tag(_T_UNSPECIFIED)
    elif isinstance(value, Pair):
        # Encode the spine iteratively so deep lists cannot overflow the
        # Python stack; the tail closes improper lists.
        cars = []
        node: Any = value
        while isinstance(node, Pair):
            cars.append(node.car)
            node = node.cdr
        enc.tag(_T_LIST)
        enc.uvarint(len(cars))
        for car in cars:
            _encode_value(enc, car)
        _encode_value(enc, node)
    elif isinstance(value, PrimSpec):
        enc.tag(_T_PRIM)
        enc.string(value.name.name)
    elif isinstance(value, Template):
        enc.tag(_T_TEMPLATE)
        _encode_template_body(enc, value)
    else:
        raise CodecError(
            f"cannot encode a {type(value).__name__} literal: {value!r}"
        )


def _decode_value(dec: _Decoder) -> Any:
    tag = dec.byte()
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_INT:
        return dec.svarint()
    if tag == _T_FLOAT:
        return dec.double()
    if tag == _T_STR:
        return dec.string()
    if tag == _T_SYMBOL:
        return sym(dec.string())
    if tag == _T_CHAR:
        text = dec.string()
        if len(text) != 1:
            raise CodecError(f"char payload {text!r} is not a single character")
        return Char(text)
    if tag == _T_NIL:
        return NIL
    if tag == _T_UNSPECIFIED:
        return UNSPECIFIED
    if tag == _T_LIST:
        n = dec.count("list element")
        cars = [_decode_value(dec) for _ in range(n)]
        result = _decode_value(dec)
        for car in reversed(cars):
            result = Pair(car, result)
        return result
    if tag == _T_PRIM:
        name = dec.string()
        spec = PRIMITIVES.get(sym(name))
        if spec is None:
            raise CodecError(
                f"stale image: primitive {name!r} is not defined"
                " in this build"
            )
        return spec
    if tag == _T_TEMPLATE:
        return _decode_template_body(dec)
    raise CodecError(f"unknown value tag 0x{tag:02x}")


# -- templates ----------------------------------------------------------------


def _encode_template_body(enc: _Encoder, template: Template) -> None:
    enc.string(template.name)
    enc.uvarint(template.arity)
    enc.uvarint(template.nlocals)
    enc.uvarint(len(template.code))
    for instr in template.code:
        enc.uvarint(int(instr[0]))
        enc.uvarint(len(instr) - 1)
        for operand in instr[1:]:
            enc.svarint(operand)
    enc.uvarint(len(template.literals))
    for lit in template.literals:
        _encode_value(enc, lit)


def _decode_template_body(dec: _Decoder) -> Template:
    name = dec.string()
    arity = dec.uvarint()
    nlocals = dec.uvarint()
    if nlocals < arity:
        raise CodecError(f"template {name}: nlocals {nlocals} < arity {arity}")
    ninstrs = dec.count("instruction")
    code = []
    for _ in range(ninstrs):
        op = dec.uvarint()
        if op not in OP_NAMES:
            raise CodecError(f"template {name}: unknown opcode {op}")
        noperands = dec.count("operand")
        code.append((op, *(dec.svarint() for _ in range(noperands))))
    nliterals = dec.count("literal")
    literals = tuple(_decode_value(dec) for _ in range(nliterals))
    return Template(
        code=intern_code(code),
        literals=literals,
        arity=arity,
        nlocals=nlocals,
        name=name,
    )


def _frame(payload: bytes) -> bytes:
    return _HEADER.pack(
        MAGIC, CODEC_VERSION, len(payload), zlib.crc32(payload)
    ) + payload


def _unframe(data: bytes) -> bytes:
    if len(data) < _HEADER.size:
        raise CodecError(
            f"image too short for a header ({len(data)} byte(s))"
        )
    magic, version, length, crc = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CodecError(f"bad magic {magic!r} (want {MAGIC!r}): not an image")
    if version != CODEC_VERSION:
        raise CodecError(
            f"unsupported image version {version} (this build reads"
            f" version {CODEC_VERSION})"
        )
    payload = data[_HEADER.size:]
    if len(payload) != length:
        raise CodecError(
            f"payload length mismatch: header says {length},"
            f" file has {len(payload)}"
        )
    actual = zlib.crc32(payload)
    if actual != crc:
        raise CodecError(
            f"CRC mismatch: header 0x{crc:08x}, payload 0x{actual:08x}"
            " — the image is corrupted"
        )
    return payload


def encode_template(template: Template) -> bytes:
    """Encode one template tree as a framed image."""
    enc = _Encoder()
    enc.tag(_T_TEMPLATE)
    _encode_template_body(enc, template)
    return _frame(bytes(enc.buf))


def decode_template(data: bytes) -> Template:
    """Decode a framed single-template image."""
    dec = _Decoder(_unframe(data))
    if dec.byte() != _T_TEMPLATE:
        raise CodecError("image payload is not a template")
    template = _decode_template_body(dec)
    dec.done()
    return template


# -- residual programs --------------------------------------------------------


def _encode_body(residual: ResidualProgram) -> bytes:
    """The canonical encoding of a residual program's code: its kind
    byte, then its templates (object code) or its program text."""
    enc = _Encoder()
    if residual.machine is not None:
        enc.tag(_K_OBJECT)
        entries = sorted(
            residual.machine.globals.items(), key=lambda kv: kv[0].name
        )
        enc.uvarint(len(entries))
        for name, value in entries:
            if not isinstance(value, VmClosure) or value.env:
                raise CodecError(
                    f"global {name} is not a top-level closure"
                    f" ({value!r}); only pure object code is imageable"
                )
            enc.string(name.name)
            _encode_template_body(enc, value.template)
    elif residual.program is not None:
        from repro.lang.unparse import unparse_program
        from repro.sexp.writer import write

        enc.tag(_K_SOURCE)
        enc.string("\n".join(write(d) for d in unparse_program(residual.program)))
    else:
        raise CodecError("residual program has neither machine nor program")
    return bytes(enc.buf)


def residual_digest(residual: ResidualProgram) -> str:
    """SHA-256 of the residual program's canonical encoded code.

    :func:`encode_residual` and :func:`decode_residual` record it in
    ``stats["residual_digest"]``; on the generation path both run before
    the program is published, so a cached program — and every view of
    it — answers from there without hashing.
    """
    digest = residual.stats.get("residual_digest")
    if digest is None:
        digest = hashlib.sha256(_encode_body(residual)).hexdigest()
    return digest


def encode_residual(residual: ResidualProgram) -> bytes:
    """Encode a whole residual program as a framed image.

    Object-code programs store their machine's global templates; source
    programs store the unparsed program text (the system's existing
    canonical serialization for syntax).  Both embed the digest of that
    encoded body (:func:`residual_digest`), which the decoder re-checks.
    """
    body = _encode_body(residual)
    digest = hashlib.sha256(body).hexdigest()
    residual.stats["residual_digest"] = digest
    enc = _Encoder()
    enc.string(residual.goal.name)
    enc.uvarint(len(residual.goal_params))
    for p in residual.goal_params:
        enc.string(p.name)
    enc.string(digest)
    return _frame(bytes(enc.buf) + body)


def decode_residual(data: bytes) -> ResidualProgram:
    """Decode a framed residual-program image.

    The decoded program is re-encoded and the digest of that encoding
    compared against the digest the encoder embedded; a mismatch means
    the image does not reproduce the original code byte-for-byte
    (tampering under a recomputed CRC, or encoder/decoder drift) and is
    rejected.

    The decoded program is **untrusted**: nothing here runs the verifier
    — callers (the store, the CLI) do that before execution.
    """
    dec = _Decoder(_unframe(data))
    goal = sym(dec.string())
    nparams = dec.count("goal parameter")
    goal_params = tuple(sym(dec.string()) for _ in range(nparams))
    digest = dec.string()
    kind = dec.byte()
    if kind == _K_OBJECT:
        nglobals = dec.count("global")
        machine = Machine()
        for _ in range(nglobals):
            name = sym(dec.string())
            machine.define(name, VmClosure(_decode_template_body(dec), ()))
        residual = ResidualProgram(
            goal=goal, goal_params=goal_params, machine=machine
        )
    elif kind == _K_SOURCE:
        from repro.lang.parser import parse_program

        text = dec.string()
        program = parse_program(text, goal=goal.name)
        residual = ResidualProgram(
            goal=goal, goal_params=goal_params, program=program
        )
    else:
        raise CodecError(f"unknown residual kind byte 0x{kind:02x}")
    dec.done()
    residual.stats["loaded_from_image"] = True
    if hashlib.sha256(_encode_body(residual)).hexdigest() != digest:
        raise CodecError(
            "digest mismatch: the decoded program does not reproduce"
            " the encoded code byte-for-byte"
        )
    residual.stats["residual_digest"] = digest
    return residual


# -- file helpers -------------------------------------------------------------


def save_image(residual: ResidualProgram, path: Any) -> str:
    """Write ``residual`` to ``path`` as an image file; returns the
    content digest (SHA-256 of the image bytes)."""
    import os

    data = encode_residual(residual)
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)
    return hashlib.sha256(data).hexdigest()


def load_image(path: Any) -> ResidualProgram:
    """Read an image file back into a residual program (unverified)."""
    with open(path, "rb") as fh:
        data = fh.read()
    return decode_residual(data)
