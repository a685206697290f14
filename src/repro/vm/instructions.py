"""The VM instruction set.

A register ``val`` holds the current value; each frame has an operand stack
for arguments under construction and a vector of local slots (parameters
first, then ``let``-allocated temporaries — the compiler's ``depth``
parameter tracks the next free slot, as in the Scheme 48 compiler).
"""

from __future__ import annotations

from enum import IntEnum, auto


class Op(IntEnum):
    """Opcodes.  Operand meanings are given per opcode."""

    CONST = auto()            # k       : val <- literals[k]
    LOCAL = auto()            # i       : val <- locals[i]
    CLOSED = auto()           # i       : val <- closure.env[i]
    GLOBAL = auto()           # k       : val <- globals[literals[k]]
    PUSH = auto()             #         : push val onto the operand stack
    SETLOC = auto()           # i       : locals[i] <- val
    PRIM = auto()             # k n     : pop n args; val <- literals[k](args)
    MAKE_CLOSURE = auto()     # k n     : pop n values; val <- closure(literals[k], values)
    JUMP = auto()             # t       : pc <- t
    JUMP_IF_FALSE = auto()    # t       : if val is #f then pc <- t
    CALL = auto()             # n       : pop n args + operator; push return continuation
    TAIL_CALL = auto()        # n       : pop n args + operator; reuse the frame
    RETURN = auto()           #         : pop continuation (or halt with val)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.name


#: Base opcode value -> name.  Template code carries plain ``int``
#: opcodes, not ``Op`` members (DESIGN §5h): an int compares against an
#: int constant without the enum attribute load, and an instruction
#: tuple of ints is untracked by the garbage collector.  ``Op`` stays
#: the vocabulary of compilers, tables and disassembly.
OP_NAMES: dict[int, str] = {op.value: op.name for op in Op}


def opcode_name(op: int) -> str:
    """Human-readable name for an opcode value, in the ISA or not."""
    return OP_NAMES.get(op) or f"OP_{int(op)}"


# Plain-int opcode constants for the readers' hot paths.
CONST = Op.CONST.value
LOCAL = Op.LOCAL.value
CLOSED = Op.CLOSED.value
GLOBAL = Op.GLOBAL.value
PUSH = Op.PUSH.value
SETLOC = Op.SETLOC.value
PRIM = Op.PRIM.value
MAKE_CLOSURE = Op.MAKE_CLOSURE.value
JUMP = Op.JUMP.value
JUMP_IF_FALSE = Op.JUMP_IF_FALSE.value
CALL = Op.CALL.value
TAIL_CALL = Op.TAIL_CALL.value
RETURN = Op.RETURN.value

#: Operand slots per (plain-int) opcode: an instruction is the tuple
#: ``(op, operand, ...)`` of this many operands after the opcode.
OPERAND_COUNTS: dict[int, int] = {
    CONST: 1,
    LOCAL: 1,
    CLOSED: 1,
    GLOBAL: 1,
    PUSH: 0,
    SETLOC: 1,
    PRIM: 2,
    MAKE_CLOSURE: 2,
    JUMP: 1,
    JUMP_IF_FALSE: 1,
    CALL: 1,
    TAIL_CALL: 1,
    RETURN: 0,
}

# Opcodes whose single operand is a literal-frame index.
LITERAL_OPERAND_OPS = frozenset({CONST, GLOBAL})

# Opcodes whose first operand is a literal-frame index and second is a count.
LITERAL_COUNT_OPS = frozenset({PRIM, MAKE_CLOSURE})

# Opcodes whose operand is a jump target.
BRANCH_OPS = frozenset({JUMP, JUMP_IF_FALSE})
