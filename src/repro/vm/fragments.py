"""Abstract object-code fragments and their constructors.

These are the code constructors the paper's compilators use (§6.1):

* :func:`sequentially` — arrange fragments in sequence;
* :func:`make_label`, :func:`instruction_using_label`,
  :func:`attach_label` — the jump machinery for conditionals;
* :func:`instruction` — a single instruction.

A fragment is a tree (:class:`Seq` over :class:`Instr`/labels) holding
*abstract* operands: literal values are wrapped in :class:`Lit` and jump
targets are :class:`Label` objects.  The assembler later relocates the tree
into a flat :class:`~repro.vm.template.Template` — the counterpart of
Scheme 48's internal relocation step, which Fig. 6's measurements include.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Tuple, Union

from repro.vm.instructions import Op


class Label:
    """A fresh assembly-time label."""

    __slots__ = ("hint",)
    _counter = 0

    def __init__(self, hint: str = "L"):
        self.hint = hint

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<label {self.hint}@{id(self):x}>"


@dataclass(frozen=True, slots=True)
class Lit:
    """An operand to be interned into the template's literal frame."""

    value: Any


Operand = Union[int, Lit, Label]


@dataclass(frozen=True, slots=True)
class Instr:
    """One abstract instruction."""

    op: Op
    operands: Tuple[Operand, ...] = ()


@dataclass(frozen=True, slots=True)
class Seq:
    """A sequence of fragments."""

    parts: Tuple["Fragment", ...]


@dataclass(frozen=True, slots=True)
class Attach:
    """A fragment whose first instruction carries a label."""

    label: Label
    fragment: "Fragment"


Fragment = Union[Instr, Seq, Attach]

EMPTY: Fragment = Seq(())


def instruction(op: Op, *operands: Operand) -> Fragment:
    """A single-instruction fragment."""
    return Instr(op, operands)


def sequentially(*fragments: Fragment) -> Fragment:
    """Arrange ``fragments`` in execution order."""
    return Seq(tuple(fragments))


def make_label(hint: str = "L") -> Label:
    """Create a fresh label."""
    return Label(hint)


def instruction_using_label(op: Op, label: Label, *operands: Operand) -> Fragment:
    """An instruction whose (last) operand is a jump target."""
    return Instr(op, operands + (label,))


def attach_label(label: Label, fragment: Fragment) -> Fragment:
    """Attach ``label`` to the entry point of ``fragment``."""
    return Attach(label, fragment)


_DONE: Any = object()  # end-of-parts sentinel for iter_instructions


def iter_instructions(
    fragment: Fragment,
) -> Iterator[tuple[tuple[Label, ...], Instr]]:
    """Yield ``(labels, instruction)`` pairs in linear order.

    ``labels`` are the labels attached to this instruction's position.
    Trailing labels (attached to an empty fragment at the very end) are
    reported with a sentinel ``None`` instruction by the assembler, which
    handles that case itself.
    """
    # An explicit stack of part iterators, not a recursive generator:
    # no ``yield from`` chain per nesting level, and no self-referencing
    # closure for the cyclic garbage collector to reclaim.
    pending: list[Label] = []
    stack: list[Iterator[Fragment]] = [iter((fragment,))]
    while stack:
        frag = next(stack[-1], _DONE)
        if frag is _DONE:
            stack.pop()
        elif isinstance(frag, Instr):
            labels = tuple(pending)
            pending = []
            yield labels, frag
        elif isinstance(frag, Seq):
            stack.append(iter(frag.parts))
        elif isinstance(frag, Attach):
            pending.append(frag.label)
            stack.append(iter((frag.fragment,)))
        else:
            raise TypeError(f"not a fragment: {frag!r}")
    if pending:
        raise ValueError("label attached past the end of the fragment")
