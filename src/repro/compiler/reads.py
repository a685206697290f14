"""Static read facts: how a ``let`` knows which shape to take.

The compilators track what the VM's ``val`` register holds while they
emit, and a read of a value already there compiles to nothing (DESIGN
§1 item 7).  A ``let`` therefore has three shapes (:func:`let_shape`),
and which one its binding needs is known before its body is emitted,
from three facts about the body's reads:

* ``free`` — the variables it reads;
* ``head`` — the variable its first instruction reads (``None`` when it
  starts with anything else);
* ``later`` — the variables it reads after its *leading run*: the prefix
  that only reads ``head``, pushes, and branches, during which ``val``
  keeps holding ``head``.

A fourth, ``holds``, says the code is nothing but that run (a variable
reference), so ``val`` still holds ``head`` after it.  Handles of the
fused backend (:mod:`repro.compiler.fusion`) carry these facts as
attributes and compose them with the functions below; every reading of
the compilators — printed, derived or erased — gets its let shapes from
them, so no second derivation from syntax exists to disagree with them.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.sexp.datum import Symbol

EMPTY: frozenset = frozenset()

#: Let shapes.  UNREAD: the body never reads the variable — ``rhs;
#: body``.  HELD: only the body's leading run reads it — ``rhs; body``
#: with the variable living in ``val``.  STORED: ``rhs; SETLOC d; body``.
UNREAD = "unread"
HELD = "held"
STORED = "stored"


def let_shape(var: Symbol, body: Any) -> str:
    """The shape of ``(let (var rhs) body)``."""
    if var not in body.free:
        return UNREAD
    if body.head is var and var not in body.later:
        return HELD
    return STORED


def _after(code: Any, held: Symbol | None) -> frozenset:
    """What ``code`` reads that ``val`` holding ``held`` cannot serve."""
    if held is not None and code.head is held:
        return code.later
    return code.free


def sequence_reads(items: Sequence[Any]) -> tuple[frozenset, Any, frozenset]:
    """``(free, head, later)`` of trivial ``items``, each pushed in turn."""
    head = items[0].head if items else None
    free = later = EMPTY
    run = head is not None
    for item in items:
        if item.free:
            free = free | item.free
        if run and item.head is head:
            later = later | item.later
            run = item.holds
        else:
            later = later | item.free
            run = False
    return free, head, later


def lambda_reads(free: frozenset) -> tuple[Any, frozenset]:
    """``(head, later)`` of a closure over ``free``: it pushes the
    captured values in name order."""
    if not free:
        return None, EMPTY
    head = min(free, key=_name)
    return head, free - {head}


def let_reads(
    var: Symbol, shape: str, rhs: Any, body: Any
) -> tuple[frozenset, Any, frozenset]:
    """``(free, head, later)`` of ``(let (var rhs) body)``."""
    inner = body.free - {var} if shape is not UNREAD else body.free
    if shape is UNREAD and rhs.holds:
        after = _after(body, rhs.head)
    else:
        after = inner
    return rhs.free | inner, rhs.head, rhs.later | after


def if_reads(test: Any, then: Any, alt: Any) -> tuple[frozenset, Any, frozenset]:
    """``(free, head, later)`` of ``(if test then alt)``: both arms start
    with ``val`` holding what the test left there."""
    held = test.head if test.holds else None
    return (
        test.free | then.free | alt.free,
        test.head,
        test.later | _after(then, held) | _after(alt, held),
    )


def _name(var: Symbol) -> str:
    return var.name
