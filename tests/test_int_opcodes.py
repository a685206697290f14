"""Template code carries plain-int opcodes end to end.

Every producer of ``Template.code`` — the assembler, the optimizer and
the image decoder — emits ``int`` opcodes; ``Op`` stays the vocabulary
of compilers, tables and disassembly.  The representation is invisible from outside: content digests and encoded
image bytes are pinned to their values from when opcodes were ``Op``
members.
"""

from __future__ import annotations

import hashlib

from repro.compiler import compile_program
from repro.image.codec import decode_template, encode_template
from repro.lang import parse_program
from repro.lang.prims import PRIMITIVES
from repro.sexp.datum import sym
from repro.vm import (
    Lit,
    Op,
    Template,
    assemble,
    attach_label,
    instruction,
    instruction_using_label,
    make_label,
    sequentially,
)
from repro.vm.opt import optimize_template

POWER = "(define (power x n) (if (zero? n) 1 (* x (power x (- n 1)))))"

# Values for _pinned_template() computed when template code held ``Op``
# members; a change here breaks every persisted digest or image.  The
# image hash was re-taken at codec version 2, whose header is the only
# byte that differs from version 1 (the payload's SHA-256 is unchanged:
# adfb56fae0f3556b6fe9c3eb1a1f173609bdd0fe421667c8683735103fc4cd78).
PINNED_DIGEST = "0fac801bb8437ab9c00295c2d794f13dbd064480cb22ebcf88954aca7de18a21"
PINNED_IMAGE_SHA256 = (
    "58353ea799f90c6ae71cb13391668c7cde0cbb74f420bdc8ee9c8b954d3d9943"
)


def _pinned_template() -> Template:
    """A hand-assembled template touching every base opcode."""
    adder = assemble(
        sequentially(
            instruction(Op.CLOSED, 0),
            instruction(Op.PUSH),
            instruction(Op.LOCAL, 0),
            instruction(Op.PUSH),
            instruction(Op.PRIM, Lit(PRIMITIVES[sym("+")]), 2),
            instruction(Op.RETURN),
        ),
        arity=1, nlocals=1, name="adder",
    )
    other = make_label("other")
    return assemble(
        sequentially(
            instruction(Op.LOCAL, 0),
            instruction_using_label(Op.JUMP_IF_FALSE, other),
            instruction(Op.LOCAL, 0),
            instruction(Op.PUSH),
            instruction(Op.MAKE_CLOSURE, Lit(adder), 1),
            instruction(Op.SETLOC, 1),
            instruction(Op.LOCAL, 1),
            instruction(Op.PUSH),
            instruction(Op.CONST, Lit(-7)),
            instruction(Op.PUSH),
            instruction(Op.TAIL_CALL, 1),
            attach_label(other, instruction(Op.GLOBAL, Lit(sym("fallback")))),
            instruction(Op.PUSH),
            instruction(Op.CALL, 0),
            instruction(Op.RETURN),
        ),
        arity=1, nlocals=2, name="pinned",
    )


def _power_template() -> Template:
    program = parse_program(POWER)
    return compile_program(program, optimize=False).templates[program.goal]


def _opcodes(template: Template) -> list:
    """Opcodes of ``template`` and every nested template."""
    found = [instr[0] for instr in template.code]
    for lit in template.literals:
        if isinstance(lit, Template):
            found.extend(_opcodes(lit))
    return found


def _all_int(template: Template) -> bool:
    return all(type(op) is int for op in _opcodes(template))


class TestProducersEmitInts:
    def test_assembler(self):
        assert _all_int(_pinned_template())
        assert _all_int(_power_template())

    def test_optimizer(self):
        optimized = optimize_template(_power_template())
        assert _all_int(optimized)
        assert _all_int(optimize_template(_pinned_template()))

    def test_codec_decode(self):
        decoded = decode_template(encode_template(_pinned_template()))
        assert _all_int(decoded)


class TestRepresentationIsInvisible:
    def test_content_digest_is_pinned(self):
        assert _pinned_template().content_digest() == PINNED_DIGEST

    def test_digest_ignores_int_or_enum_spelling(self):
        template = _pinned_template()
        spelled = Template(
            code=tuple((Op(i[0]), *i[1:]) for i in template.code),
            literals=template.literals,
            arity=template.arity,
            nlocals=template.nlocals,
            name=template.name,
        )
        assert spelled.content_digest() == template.content_digest()

    def test_image_bytes_are_pinned(self):
        data = encode_template(_pinned_template())
        assert hashlib.sha256(data).hexdigest() == PINNED_IMAGE_SHA256
