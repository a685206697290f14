"""A disassembler for templates, for debugging, diagnostics, and tests."""

from __future__ import annotations

from repro.lang.prims import PrimSpec
from repro.vm.instructions import (
    BRANCH_OPS,
    LITERAL_COUNT_OPS,
    LITERAL_OPERAND_OPS,
    OP_NAMES,
    opcode_name,
)
from repro.vm.template import Template


def jump_labels(template: Template) -> dict[int, str]:
    """Block labels (``L0``, ``L1``, ...) for every branch target, in
    address order — the labels the assembler resolved away."""
    targets = sorted(
        {
            instr[1]
            for instr in template.code
            if isinstance(instr, tuple)
            and len(instr) > 1
            and instr[0] in BRANCH_OPS
            and isinstance(instr[1], int)
        }
    )
    return {t: f"L{i}" for i, t in enumerate(targets)}


def render_instruction(
    template: Template, pc: int, labels: dict[int, str] | None = None
) -> str:
    """One instruction as text, with jump targets shown as block labels."""
    if labels is None:
        labels = jump_labels(template)
    instr = template.code[pc]
    op = instr[0]
    name = OP_NAMES.get(op)
    if name is None:
        # Not in the ISA: render the raw opcode and operands.
        return " ".join([opcode_name(op), *(str(x) for x in instr[1:])])
    rendered = [name]
    if op in LITERAL_OPERAND_OPS:
        rendered.append(_literal(template.literals[instr[1]]))
    elif op in LITERAL_COUNT_OPS:
        rendered.append(_literal(template.literals[instr[1]]))
        rendered.append(str(instr[2]))
    elif op in BRANCH_OPS:
        target = instr[1]
        label = labels.get(target)
        rendered.append(f"-> {label} ({target})" if label else f"-> {target}")
    else:
        rendered.extend(str(x) for x in instr[1:])
    return " ".join(rendered)


def disassemble(template: Template, indent: str = "") -> str:
    """Render ``template`` (and nested templates) as readable text.

    Branch targets begin a labelled block: the target instruction is
    preceded by a ``L<n>:`` line and branches render as ``-> L<n>``.
    """
    labels = jump_labels(template)
    lines = [
        f"{indent}template {template.name}/{template.arity}"
        f" nlocals={template.nlocals}"
    ]
    for pc in range(len(template.code)):
        label = labels.get(pc)
        if label is not None:
            lines.append(f"{indent}{label}:")
        lines.append(f"{indent}  {pc:4} {render_instruction(template, pc, labels)}")
    for lit in template.literals:
        if isinstance(lit, Template):
            lines.append(disassemble(lit, indent + "    "))
    return "\n".join(lines)


def _literal(value) -> str:
    if isinstance(value, Template):
        return f"<template {value.name}>"
    if isinstance(value, PrimSpec):
        return f"<prim {value.name}>"
    return repr(value)
