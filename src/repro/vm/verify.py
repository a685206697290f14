"""Static bytecode verification for VM templates.

The fused system emits *executable object code directly* (§6.1, §8.2) —
there is no residual source program to eyeball, so a bug anywhere in the
cogen/fusion/compiler stack would otherwise surface only as a crash or a
silently wrong answer deep inside :mod:`repro.vm.machine`.  This module is
the output-side counterweight: a JVM-style dataflow verifier that
abstractly interprets a :class:`~repro.vm.template.Template`'s instruction
stream before the machine ever runs it.

The verifier works in two passes per template:

1. **Structural pass** — every instruction must be a known opcode with the
   right number of integer operands; literal-frame indices must be in
   range and name a literal of the right kind (``GLOBAL`` wants a symbol,
   ``PRIM`` a primitive spec, ``MAKE_CLOSURE`` a nested template); local
   slots must fall inside the frame's declared slot count; closure
   variable indices must fall inside the instantiating ``MAKE_CLOSURE``'s
   closed count; jump targets must land on instruction boundaries inside
   the code vector.
2. **Dataflow pass** — a fixpoint over the control-flow graph induced by
   :data:`~repro.vm.instructions.BRANCH_OPS` computes the operand-stack
   depth at entry to every reachable instruction.  The abstract domain is
   a single integer per program point (the VM's operand stack carries no
   types the verifier needs to track — values are uniform), so the
   fixpoint is a plain worklist: inconsistent depths at a join point,
   popping below empty (``CALL``/``TAIL_CALL``/``PRIM``/``MAKE_CLOSURE``
   arity exceeding the available depth), and control falling off the end
   of the code vector are all rejected.  Instructions the fixpoint never
   reaches are reported as *warnings*, as is operand-stack residue at a
   frame exit.

Nested templates (closures) are verified recursively through their
``MAKE_CLOSURE`` sites, which supply the closed count that bounds their
``CLOSED`` indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from repro.obs import traced
from repro.lang.prims import PrimSpec
from repro.runtime.errors import SchemeError
from repro.sexp.datum import Symbol
from repro.vm.cfg import build_cfg
from repro.vm.instructions import (
    BRANCH_OPS,
    CALL,
    CLOSED,
    GLOBAL,
    LITERAL_COUNT_OPS,
    LITERAL_OPERAND_OPS,
    LOCAL,
    MAKE_CLOSURE,
    OP_NAMES,
    OPERAND_COUNTS,
    PRIM,
    PUSH,
    RETURN,
    SETLOC,
    TAIL_CALL,
    Op,
)
from repro.vm.template import Template


class ViolationKind(Enum):
    """The verifier's violation classes."""

    BAD_OPCODE = "bad-opcode"
    BAD_OPERANDS = "bad-operands"
    BAD_JUMP_TARGET = "bad-jump-target"
    BAD_LITERAL_INDEX = "bad-literal-index"
    BAD_LITERAL_KIND = "bad-literal-kind"
    BAD_LOCAL_SLOT = "bad-local-slot"
    BAD_CLOSED_INDEX = "bad-closed-index"
    BAD_PRIM_ARITY = "bad-prim-arity"
    BAD_ARITY = "bad-arity"
    STACK_UNDERFLOW = "stack-underflow"
    STACK_MISMATCH = "stack-mismatch"
    FALLS_OFF_END = "falls-off-end"
    # Warnings: suspicious but not unsound.
    UNREACHABLE_CODE = "unreachable-code"
    LEFTOVER_STACK = "leftover-stack"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.value


WARNING_KINDS = frozenset(
    {ViolationKind.UNREACHABLE_CODE, ViolationKind.LEFTOVER_STACK}
)


@dataclass(frozen=True, slots=True)
class Violation:
    """One verification finding, anchored to an instruction offset."""

    kind: ViolationKind
    template: str            # dotted path, e.g. "power_0.lambda"
    pc: int | None           # instruction offset, None for template-level
    message: str

    @property
    def is_error(self) -> bool:
        return self.kind not in WARNING_KINDS

    def __str__(self) -> str:
        where = f"@{self.pc}" if self.pc is not None else ""
        return f"[{self.kind.value}] {self.template}{where}: {self.message}"


@dataclass(frozen=True, slots=True)
class VerifyReport:
    """All findings for a template (including nested templates)."""

    template: Template
    violations: tuple[Violation, ...]

    @property
    def errors(self) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.is_error)

    @property
    def warnings(self) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if not v.is_error)

    @property
    def ok(self) -> bool:
        return not self.errors

    def pretty(self) -> str:
        """Render the findings with disassembly context."""
        from repro.vm.disasm import render_instruction

        if not self.violations:
            return f"{self.template.name}: verified ok"
        lines = []
        for v in self.violations:
            severity = "error" if v.is_error else "warning"
            lines.append(f"{severity}: {v}")
            if v.pc is not None:
                context = _instruction_context(self.template, v.template, v.pc)
                if context is not None:
                    lines.append(f"    {v.pc:4} {render_instruction(*context)}")
        return "\n".join(lines)


class VerificationError(SchemeError):
    """A template failed bytecode verification."""

    def __init__(self, report: VerifyReport):
        self.report = report
        summary = "; ".join(str(v) for v in report.errors)
        super().__init__(f"bytecode verification failed: {summary}")


_SLOT_OPS = frozenset({LOCAL, SETLOC})
_CALL_OPS = frozenset({CALL, TAIL_CALL})


@traced("vm.verify")
def check_template(
    template: Template,
    closed_count: int = 0,
    recurse: bool = True,
) -> VerifyReport:
    """Verify ``template``; return every violation instead of raising."""
    violations: list[Violation] = []
    _check_one(template, template.name, closed_count, recurse, violations, set())
    return VerifyReport(template, tuple(violations))


def verify_template(
    template: Template,
    closed_count: int = 0,
    recurse: bool = True,
) -> VerifyReport:
    """Verify ``template``; raise :class:`VerificationError` on errors."""
    report = check_template(template, closed_count, recurse)
    if not report.ok:
        raise VerificationError(report)
    return report


def verify_templates(templates: Iterable[Template]) -> None:
    """Verify several top-level templates (each instantiated with no env)."""
    for t in templates:
        verify_template(t)


# -- one template ------------------------------------------------------------


def _check_one(
    template: Template,
    path: str,
    closed_count: int,
    recurse: bool,
    out: list[Violation],
    seen: set,
) -> None:
    code = template.code
    nlocals = template.nlocals

    if template.arity < 0 or nlocals < template.arity:
        out.append(
            Violation(
                ViolationKind.BAD_ARITY, path, None,
                f"arity {template.arity} with {nlocals} local slots",
            )
        )
    if not code:
        out.append(
            Violation(
                ViolationKind.FALLS_OFF_END, path, None,
                "empty code vector: execution falls off immediately",
            )
        )
        return

    structure_ok = _structural_pass(
        template, path, closed_count, out
    )
    if structure_ok:
        _dataflow_pass(template, path, out)

    if recurse:
        _check_nested(template, path, out, seen)


def _structural_pass(
    template: Template,
    path: str,
    closed_count: int,
    out: list[Violation],
) -> bool:
    """Per-instruction well-formedness.  Returns True when the code is
    sound enough (opcodes, operand shapes, jump targets) for dataflow."""
    code = template.code
    literals = template.literals
    cfg_ok = True

    def err(kind: ViolationKind, pc: int, message: str) -> None:
        out.append(Violation(kind, path, pc, message))

    for pc, instr in enumerate(code):
        if not isinstance(instr, tuple) or not instr:
            err(ViolationKind.BAD_OPCODE, pc, f"not an instruction: {instr!r}")
            cfg_ok = False
            continue
        op = instr[0]
        if type(op) is not int:
            # Hand-built code may hold ``Op`` members; a bool, float or
            # anything else that merely compares equal is no opcode.
            op = int(op) if isinstance(op, Op) else -1
        expected = OPERAND_COUNTS.get(op)
        if expected is None:
            err(
                ViolationKind.BAD_OPCODE, pc,
                f"unknown opcode {instr[0]!r}",
            )
            cfg_ok = False
            continue
        if len(instr) - 1 != expected:
            err(
                ViolationKind.BAD_OPERANDS, pc,
                f"{OP_NAMES[op]} expects {expected} operand(s),"
                f" has {len(instr) - 1}",
            )
            cfg_ok = False
            continue
        operands_ok = True
        for j in range(1, len(instr)):
            o = instr[j]
            if not isinstance(o, int) or isinstance(o, bool):
                operands_ok = False
                break
        if not operands_ok:
            err(
                ViolationKind.BAD_OPERANDS, pc,
                f"{OP_NAMES[op]} has non-integer operand(s) {instr[1:]!r}",
            )
            cfg_ok = False
            continue

        if op in LITERAL_OPERAND_OPS or op in LITERAL_COUNT_OPS:
            k = instr[1]
            if not 0 <= k < len(literals):
                err(
                    ViolationKind.BAD_LITERAL_INDEX, pc,
                    f"{OP_NAMES[op]} literal index {k} outside frame of"
                    f" {len(literals)}",
                )
                continue
            lit = literals[k]
            if op == GLOBAL and not isinstance(lit, Symbol):
                err(
                    ViolationKind.BAD_LITERAL_KIND, pc,
                    f"GLOBAL literal {k} is {type(lit).__name__}, not a symbol",
                )
            elif op == PRIM:
                if not isinstance(lit, PrimSpec):
                    err(
                        ViolationKind.BAD_LITERAL_KIND, pc,
                        f"PRIM literal {k} is {type(lit).__name__},"
                        " not a primitive spec",
                    )
                else:
                    n = instr[2]
                    if n < 0:
                        err(
                            ViolationKind.BAD_OPERANDS, pc,
                            f"PRIM argument count {n} is negative",
                        )
                    elif n < lit.min_arity or (
                        lit.max_arity is not None and n > lit.max_arity
                    ):
                        err(
                            ViolationKind.BAD_PRIM_ARITY, pc,
                            f"{lit.name} applied to {n} argument(s); accepts"
                            f" {lit.min_arity}..{lit.max_arity or 'many'}",
                        )
            elif op == MAKE_CLOSURE:
                if not isinstance(lit, Template):
                    err(
                        ViolationKind.BAD_LITERAL_KIND, pc,
                        f"MAKE_CLOSURE literal {k} is {type(lit).__name__},"
                        " not a template",
                    )
                elif instr[2] < 0:
                    err(
                        ViolationKind.BAD_OPERANDS, pc,
                        f"MAKE_CLOSURE closed count {instr[2]} is negative",
                    )
        elif op in _SLOT_OPS:
            i = instr[1]
            if not 0 <= i < template.nlocals:
                err(
                    ViolationKind.BAD_LOCAL_SLOT, pc,
                    f"{OP_NAMES[op]} slot {i} outside frame of"
                    f" {template.nlocals} local(s)",
                )
        elif op == CLOSED:
            i = instr[1]
            if not 0 <= i < closed_count:
                err(
                    ViolationKind.BAD_CLOSED_INDEX, pc,
                    f"CLOSED index {i} outside closure environment of"
                    f" {closed_count} value(s)",
                )
        elif op in BRANCH_OPS:
            t = instr[1]
            if not 0 <= t < len(code):
                err(
                    ViolationKind.BAD_JUMP_TARGET, pc,
                    f"{OP_NAMES[op]} target {t} outside code of"
                    f" {len(code)} instruction(s)",
                )
                cfg_ok = False
        elif op in _CALL_OPS:
            if instr[1] < 0:
                err(
                    ViolationKind.BAD_OPERANDS, pc,
                    f"{OP_NAMES[op]} argument count {instr[1]} is negative",
                )
                cfg_ok = False
    return cfg_ok


def _dataflow_pass(template: Template, path: str, out: list[Violation]) -> None:
    """Fixpoint over basic blocks: operand-stack depth per program point.

    Runs block-at-a-time over the shared :mod:`repro.vm.cfg` graph.
    Joins can only occur at block leaders (a non-leader pc's single
    in-edge is the fall-through from its predecessor), so tracking one
    entry depth per block reports exactly the pcs the old
    per-instruction worklist did.
    """
    cfg = build_cfg(template)
    end = len(template.code)
    entry_depth: dict[int, int] = {}
    mismatched: set[int] = set()
    # Leader pc -> last pc processed (underflow stops a block early; the
    # rest of the block stays unreached and is warned about below).
    reached_upto: dict[int, int] = {}
    worklist: list[tuple[int, int]] = [(cfg.entry, 0)]

    def err(kind: ViolationKind, pc: int, message: str) -> None:
        out.append(Violation(kind, path, pc, message))

    while worklist:
        leader, depth = worklist.pop()
        known = entry_depth.get(leader)
        if known is not None:
            if known != depth and leader not in mismatched:
                mismatched.add(leader)
                err(
                    ViolationKind.STACK_MISMATCH, leader,
                    f"inconsistent stack depth at join point:"
                    f" {known} vs {depth}",
                )
            continue
        entry_depth[leader] = depth

        block = cfg.blocks[leader]
        underflowed = False
        for offset, instr in enumerate(block.instrs):
            pc = leader + offset
            op = instr[0]
            pops, pushes = _stack_effect(op, instr)
            if depth < pops:
                err(
                    ViolationKind.STACK_UNDERFLOW, pc,
                    f"{OP_NAMES[op]} needs {pops} stack value(s), only"
                    f" {depth} available",
                )
                reached_upto[leader] = pc
                underflowed = True
                break
            depth = depth - pops + pushes
            if op == RETURN or op == TAIL_CALL:
                if depth > 0:
                    out.append(
                        Violation(
                            ViolationKind.LEFTOVER_STACK, path, pc,
                            f"{OP_NAMES[op]} leaves {depth} value(s) on the"
                            " operand stack",
                        )
                    )
        if underflowed:
            continue
        reached_upto[leader] = block.end - 1
        if block.falls_off:
            err(
                ViolationKind.FALLS_OFF_END, block.end - 1,
                f"{OP_NAMES[block.terminator[0]]} falls through past the"
                " last instruction"
                " with no RETURN or tail call",
            )
        for succ in block.succs:
            worklist.append((succ, depth))

    reached: set[int] = set()
    for leader, last in reached_upto.items():
        reached.update(range(leader, last + 1))
    unreachable = [pc for pc in range(end) if pc not in reached]
    for start, stop in _contiguous_runs(unreachable):
        span = f"{start}" if start == stop else f"{start}..{stop}"
        out.append(
            Violation(
                ViolationKind.UNREACHABLE_CODE, path, start,
                f"instruction(s) {span} unreachable from entry",
            )
        )


def _stack_effect(op: int, instr: tuple) -> tuple[int, int]:
    """(pops, pushes) on the operand stack.  ``val`` is not modelled."""
    if op == PUSH:
        return 0, 1
    if op in LITERAL_COUNT_OPS:
        return instr[2], 0
    if op in _CALL_OPS:
        return instr[1] + 1, 0     # arguments plus the operator
    return 0, 0


def _check_nested(
    template: Template,
    path: str,
    out: list[Violation],
    seen: set,
) -> None:
    """Verify nested templates with the closed counts of their use sites."""
    # Closed counts per literal index, gathered from MAKE_CLOSURE sites.
    closure_counts: dict[int, set[int]] = {}
    for instr in template.code:
        if (
            isinstance(instr, tuple)
            and len(instr) == 3
            and instr[0] == MAKE_CLOSURE
            and isinstance(instr[1], int)
            and 0 <= instr[1] < len(template.literals)
            and isinstance(template.literals[instr[1]], Template)
            and isinstance(instr[2], int)
            and instr[2] >= 0
        ):
            closure_counts.setdefault(instr[1], set()).add(instr[2])

    for idx, lit in enumerate(template.literals):
        if not isinstance(lit, Template):
            continue
        sub_path = f"{path}.{lit.name}"
        # A template literal never instantiated by MAKE_CLOSURE is checked
        # with an empty closure environment.
        for count in sorted(closure_counts.get(idx, {0})):
            key = (id(lit), count)
            if key in seen:
                continue
            seen.add(key)
            _check_one(lit, sub_path, count, True, out, seen)


def _contiguous_runs(values: list[int]) -> list[tuple[int, int]]:
    runs: list[tuple[int, int]] = []
    for v in values:
        if runs and runs[-1][1] == v - 1:
            runs[-1] = (runs[-1][0], v)
        else:
            runs.append((v, v))
    return runs


def _instruction_context(
    root: Template, path: str, pc: int
) -> tuple[Template, int] | None:
    """Resolve a violation's dotted template path back to the template."""
    template = root
    for segment in path.split(".")[1:]:
        for lit in template.literals:
            if isinstance(lit, Template) and lit.name == segment:
                template = lit
                break
        else:
            return None
    if 0 <= pc < len(template.code):
        return template, pc
    return None
