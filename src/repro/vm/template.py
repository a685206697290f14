"""Executable templates: the unit of object code.

A template is what Scheme 48 calls a template: a flat code vector plus a
literal frame.  ``MAKE_CLOSURE`` instructions reference nested templates
through the literal frame.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Iterable, Sequence, Tuple

from repro.vm.instructions import OP_NAMES

#: Most distinct instructions the process-wide table below holds.
INTERN_CAP = 1 << 14

# Instruction tuple -> the one shared object equal to it.  Add-only and
# capped; entries are immutable tuples of ints that no code tells apart
# from an equal tuple (DESIGN §5d).
_INTERNED: dict[tuple, tuple] = {}


def intern_code(rows: Iterable[Sequence[int]]) -> Tuple[tuple, ...]:
    """A code vector of ``rows`` in which equal instructions are one object.

    Residuals repeat a few hundred distinct instructions many thousand
    times, so cached code holds one tuple per distinct instruction
    instead of one per occurrence.  Only rows of plain ints are shared
    (``True == 1`` and ``Op.CONST == 0``, but the verifier tells them
    apart); once the table holds :data:`INTERN_CAP` rows, new ones are
    kept as built.
    """
    table = _INTERNED
    code = []
    for row in rows:
        row = tuple(row)
        for x in row:
            if type(x) is not int:
                break
        else:
            shared = table.get(row)
            if shared is None:
                if len(table) < INTERN_CAP:
                    row = table.setdefault(row, row)
            else:
                row = shared
        code.append(row)
    return tuple(code)


@dataclass(frozen=True, slots=True)
class Template:
    """Assembled, executable object code for one procedure body."""

    code: Tuple[tuple, ...]       # (int opcode, operand, ...), targets resolved
    literals: Tuple[Any, ...]     # constants, symbols, prim specs, templates
    arity: int                    # number of parameters
    nlocals: int                  # total local slots (params + temporaries)
    name: str = "anonymous"       # for diagnostics

    def __post_init__(self) -> None:
        # Parameters live in the first ``arity`` local slots, so a frame
        # with fewer slots than parameters cannot exist: the VM would
        # compute ``[None] * (nlocals - arity)`` with a negative count
        # and silently build a short locals frame.  ValueError rather
        # than VMError — the VM module imports this one.
        if self.nlocals < self.arity:
            raise ValueError(
                f"template {self.name}: nlocals {self.nlocals}"
                f" < arity {self.arity}"
            )
        if self.arity < 0:
            raise ValueError(
                f"template {self.name}: negative arity {self.arity}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"#<template {self.name}/{self.arity}"
            f" {len(self.code)} instrs, {len(self.literals)} literals>"
        )

    def content_digest(self) -> str:
        """A stable hex digest of the template's *content*.

        Covers name, arity, nlocals, the code vector, and the literal
        frame (nested templates recursively by their own digest; prim
        specs by name).  Two structurally identical templates — for
        example an original and its re-assembled twin — share a digest
        even when they are distinct objects, which is what profile
        attribution and recursive instruction counting key on.
        Literals outside the codec's closed set fall back to ``repr``,
        so exotic host objects may weaken the cross-process stability
        (never the in-process correctness) of the digest.
        """
        return _content_digest(self, {})

    def instruction_count(self, recursive: bool = True) -> int:
        """Number of instructions, optionally including nested templates.

        A nested template that appears several times — whether as the
        *same object* in several literal slots or as several
        structurally identical copies — is counted once: dedup is by
        structure (the content :meth:`content_digest` hashes), not
        object identity, so the count does not depend on whether equal
        subtemplates are shared.  The fig7 before/after comparison
        depends on both sides being counted under this same rule.
        """
        if not recursive:
            return len(self.code)
        classes: dict[tuple, int] = {}
        _structure_class(self, classes, {})
        return sum(len(code) for _, _, _, code, _ in classes)


def _structure_class(
    template: Template, classes: dict[tuple, int], memo: dict[int, int]
) -> int:
    """The index of ``template``'s structural equivalence class.

    The key holds the content :func:`_content_digest` hashes (name,
    arity, frame size, code and literals), with each nested template
    replaced by its class index, so each key is hashed once and no
    digest is computed.
    """
    found = memo.get(id(template))
    if found is not None:
        return found
    from repro.lang.prims import PrimSpec

    literals = tuple(
        _structure_class(lit, classes, memo) if isinstance(lit, Template)
        else (PrimSpec, lit.name) if isinstance(lit, PrimSpec)
        else (type(lit).__name__, repr(lit))
        for lit in template.literals
    )
    key = (
        template.name, template.arity, template.nlocals, template.code,
        literals,
    )
    index = classes.setdefault(key, len(classes))
    memo[id(template)] = index
    return index


def _content_digest(template: Template, memo: dict[int, str]) -> str:
    """Recursive content digest with an id-keyed memo for shared subtrees."""
    found = memo.get(id(template))
    if found is not None:
        return found
    # Late import: prims does not depend on this module, but keeping it
    # out of the top level keeps template.py's imports inside the VM package.
    from repro.lang.prims import PrimSpec

    hasher = hashlib.sha256()
    hasher.update(
        f"template\x00{template.name}\x00{template.arity}"
        f"\x00{template.nlocals}\x00".encode()
    )
    for instr in template.code:
        # Base opcodes are spelled by name, as ``repr`` of an ``Op``
        # member spells them, so the digest does not depend on whether
        # the code holds ints or enum members; operands are ints.
        name = OP_NAMES.get(instr[0])
        if name is None:
            text = repr(tuple(instr))
        elif len(instr) == 1:
            text = f"({name},)"
        else:
            text = f"({name}, {', '.join(map(repr, instr[1:]))})"
        hasher.update(text.encode())
        hasher.update(b"\x00")
    for lit in template.literals:
        if isinstance(lit, Template):
            hasher.update(b"T\x00" + _content_digest(lit, memo).encode())
        elif isinstance(lit, PrimSpec):
            hasher.update(f"P\x00{lit.name}".encode())
        else:
            hasher.update(f"L\x00{type(lit).__name__}\x00{lit!r}".encode())
        hasher.update(b"\x00")
    digest = hasher.hexdigest()
    memo[id(template)] = digest
    return digest
