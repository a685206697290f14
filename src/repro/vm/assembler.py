"""Relocation: abstract fragments → executable templates.

This is the analogue of Scheme 48's internal relocation step: "Scheme 48
internally relocates the representation, resolves labels, and generates the
actual byte code" (§6.1).  Label resolution uses backpatching; literals are
interned into the literal frame with sharing for hashable values.
"""

from __future__ import annotations

from typing import Any

from repro.obs import traced
from repro.vm.fragments import Fragment, Label, Lit, iter_instructions
from repro.vm.instructions import BRANCH_OPS
from repro.vm.template import Template


class AssemblyError(ValueError):
    """A malformed fragment: unresolved labels, bad operands."""


@traced("vm.assemble")
def assemble(
    fragment: Fragment,
    arity: int,
    nlocals: int,
    name: str = "anonymous",
) -> Template:
    """Linearize ``fragment``, resolve labels, intern literals."""
    code: list[list] = []
    literals: list[Any] = []
    literal_index: dict[Any, int] = {}
    label_positions: dict[int, int] = {}
    patches: list[tuple[int, int, Label]] = []  # (instr idx, operand idx, label)

    def intern(value: Any) -> int:
        # The key includes the type: Python's bool/int/float cross-type
        # equality (False == 0, 1 == 1.0) must not merge distinct Scheme
        # literals.
        key = (type(value), value)
        try:
            existing = literal_index.get(key)
        except TypeError:
            existing = None  # unhashable literal: no sharing
        if existing is not None:
            return existing
        literals.append(value)
        idx = len(literals) - 1
        try:
            literal_index[key] = idx
        except TypeError:
            pass
        return idx

    for labels, instr in iter_instructions(fragment):
        position = len(code)
        for label in labels:
            if id(label) in label_positions:
                raise AssemblyError(f"label attached twice: {label!r}")
            label_positions[id(label)] = position
        # Template code carries plain-int opcodes (DESIGN §5h).
        op = int(instr.op)
        encoded: list = [op]
        for operand_idx, operand in enumerate(instr.operands):
            if isinstance(operand, Label):
                if op not in BRANCH_OPS:
                    raise AssemblyError(
                        f"label operand on non-branch {instr.op!r}"
                    )
                patches.append((position, operand_idx + 1, operand))
                encoded.append(-1)
            elif isinstance(operand, Lit):
                encoded.append(intern(operand.value))
            elif isinstance(operand, int) and not isinstance(operand, bool):
                encoded.append(operand)
            else:
                raise AssemblyError(f"bad operand {operand!r} for {instr.op!r}")
        code.append(encoded)

    end = len(code)
    for instr_idx, operand_idx, label in patches:
        target = label_positions.get(id(label), end if _is_end_label(label) else None)
        if target is None:
            raise AssemblyError(f"unresolved label {label!r}")
        code[instr_idx][operand_idx] = target

    if nlocals < arity:
        raise AssemblyError(f"nlocals {nlocals} < arity {arity}")

    return Template(
        code=tuple(tuple(i) for i in code),
        literals=tuple(literals),
        arity=arity,
        nlocals=nlocals,
        name=name,
    )


def _is_end_label(label: Label) -> bool:
    # Labels are always attached somewhere in well-formed fragments; a jump
    # to the very end would fall off the template, which RETURN-terminated
    # code never does.
    return False
