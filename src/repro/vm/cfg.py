"""Basic-block control-flow graphs over template bytecode.

Both the bytecode verifier (:mod:`repro.vm.verify`) and the bytecode
optimizer (:mod:`repro.vm.opt`) need the same decomposition of a
:class:`~repro.vm.template.Template`'s flat code vector into basic blocks
with explicit successor edges.  The verifier used to re-derive it
implicitly inside its per-instruction worklist; this module makes the
graph a first-class value the two can share (and the ``disasm --cfg``
CLI can print).

Join points can only occur at block leaders: a non-leader pc's single
in-edge is the fall-through from its textual predecessor, so any
block-granular fixpoint sees exactly the joins a per-instruction one
would.  That invariant is what lets the verifier's dataflow pass and the
optimizer's liveness/constant analyses run per block without losing
precision.

The builder assumes *structurally* sound code — known opcodes with the
right operand shapes and in-range branch targets — which the verifier's
structural pass establishes before the graph is ever needed.  It does
not assume the code is complete: a block whose fall-through runs past
the last instruction is marked :attr:`BasicBlock.falls_off` rather than
rejected, so the verifier can report ``FALLS_OFF_END`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.vm.instructions import (
    BRANCH_OPS,
    JUMP,
    JUMP_IF_FALSE,
    RETURN,
    TAIL_CALL,
)
from repro.vm.template import Template

# Opcodes that end a basic block.
TERMINATOR_OPS = frozenset({JUMP, JUMP_IF_FALSE, RETURN, TAIL_CALL})


@dataclass(slots=True)
class BasicBlock:
    """A maximal straight-line run of instructions.

    ``start`` is the leader pc and doubles as the block's identity;
    ``succs`` holds successor leader pcs with the fall-through edge
    first (matching the order the machine considers them).  Treat
    instances as immutable — they are not frozen only because the
    optimizer and verifier construct them in bulk on hot paths.
    """

    start: int
    instrs: tuple[tuple, ...]
    succs: tuple[int, ...]
    falls_off: bool  # control can run past the last instruction

    @property
    def end(self) -> int:
        """One past the last pc of the block (exclusive)."""
        return self.start + len(self.instrs)

    @property
    def terminator(self) -> tuple:
        return self.instrs[-1]


@dataclass(slots=True)
class CFG:
    """Control-flow graph: blocks keyed by leader pc, in address order."""

    blocks: dict[int, BasicBlock]
    order: tuple[int, ...]  # leader pcs in address order
    entry: int = 0

    def predecessors(self) -> dict[int, tuple[int, ...]]:
        """Leader pc -> predecessor leader pcs, in address order."""
        preds: dict[int, list[int]] = {leader: [] for leader in self.order}
        for leader in self.order:
            for succ in self.blocks[leader].succs:
                preds[succ].append(leader)
        return {leader: tuple(ps) for leader, ps in preds.items()}

    def reachable(self) -> set[int]:
        """Leader pcs reachable from the entry block."""
        seen: set[int] = set()
        work = [self.entry]
        while work:
            leader = work.pop()
            if leader in seen:
                continue
            seen.add(leader)
            work.extend(self.blocks[leader].succs)
        return seen


def leaders(code: Sequence[tuple]) -> list[int]:
    """Block leader pcs, in address order.

    Leaders are the entry pc, every branch target, and every pc
    following a terminator (the successor run is a new block even when
    unreachable, so the verifier can still warn about it).
    """
    found = {0}
    for pc, instr in enumerate(code):
        op = instr[0]
        if op in BRANCH_OPS:
            found.add(instr[1])
        if op in TERMINATOR_OPS and pc + 1 < len(code):
            found.add(pc + 1)
    return sorted(found)


def build_cfg(template_or_code: Template | Sequence[tuple]) -> CFG:
    """Build the CFG of a template (or raw code vector).

    Requires structurally sound, non-empty code: known opcodes and
    in-range branch targets.  Fall-through past the end of the code is
    tolerated and surfaces as :attr:`BasicBlock.falls_off`.
    """
    if isinstance(template_or_code, Template):
        code: Sequence[tuple] = template_or_code.code
    else:
        code = template_or_code
    if not code:
        raise ValueError("cannot build a CFG over an empty code vector")

    starts = leaders(code)
    end = len(code)
    blocks: dict[int, BasicBlock] = {}
    for i, start in enumerate(starts):
        stop = starts[i + 1] if i + 1 < len(starts) else end
        instrs = tuple(code[start:stop])
        last = instrs[-1]
        op = last[0]
        falls_off = False
        if op == JUMP:
            succs: tuple[int, ...] = (last[1],)
        elif op == JUMP_IF_FALSE:
            if stop < end:
                succs = (stop, last[1])
            else:
                succs = (last[1],)
                falls_off = True
        elif op == RETURN or op == TAIL_CALL:
            succs = ()
        elif stop < end:
            succs = (stop,)
        else:
            succs = ()
            falls_off = True
        blocks[start] = BasicBlock(
            start=start, instrs=instrs, succs=succs, falls_off=falls_off
        )
    return CFG(blocks=blocks, order=tuple(starts))
