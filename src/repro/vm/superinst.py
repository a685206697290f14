"""Profile-guided superinstructions over the shared basic-block graph.

PR 6 removed 19–25% of *static* residual instructions; this pass closes
the *dynamic* half of ROADMAP's "raw dispatch speed" item.  Given a
:class:`~repro.vm.profile.VMProfile` (whose counting loop records
adjacent opcode pair/triple frequencies), :func:`select_superinstructions`
picks the highest-value runs of straight-line opcodes, and
:func:`fuse_template` rewrites templates on the :mod:`repro.vm.cfg`
block graph so each selected run becomes one *fused* instruction —
``(fused_opcode, *concatenated operands)`` — dispatched by a loop that
:func:`repro.vm.dispatch.build_loop` generates from the same instruction
table as the production and counting loops.  Every fused execution
retires ``len(run) - 1`` fewer dispatches.

Trust anchor: translation validation, same discipline as ``vm/opt.py``.
A fused template is never run before :func:`validate_fusion` proves

1. *round-trip identity*: :func:`lower_template` (pure operand
   un-concatenation) restores the original template exactly,
2. *verifier acceptance*: the lowered code passes
   :func:`repro.vm.verify.check_template` — the verifier stays the
   base-ISA trust anchor and never needs to learn fused opcodes,

and machine-level promotion additionally runs the fused and unfused
twins differentially (``vm/opt.py`` style) before the fused machine is
ever handed out.  Fused templates are a run-time-only representation:
they are never persisted to the image store and never re-enter the
optimizer or the assembler.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.runtime.errors import SchemeError
from repro.vm.cfg import build_cfg
from repro.vm.dispatch import (
    FUSABLE_OPS,
    FUSED_BASE,
    FusionPlan,
    Superinstruction,
    build_loop,
    fused_for_opcode,
    make_plan,
    operand_count,
)
from repro.vm.instructions import BRANCH_OPS
from repro.vm.machine import Machine, VmClosure
from repro.vm.template import Template, intern_code
from repro.vm.verify import check_template


class FusionValidationError(SchemeError):
    """Translation validation rejected a fused template."""


# --------------------------------------------------------------------------
# Plan selection
# --------------------------------------------------------------------------


def select_superinstructions(
    profile: Any, max_fused: int = 8, min_count: int = 2
) -> FusionPlan:
    """Pick the highest-value fusable runs observed in a profile.

    Candidates are the profile's dynamic adjacent triples and pairs
    whose members are all straight-line (fusable) opcodes, scored by
    dispatches saved (``count * (len - 1)``), ties broken by opcode
    sequence for determinism.  Returns a plan of at most ``max_fused``
    superinstructions (interned process-wide, so repeated selection is
    stable and cheap).
    """
    candidates: list[tuple[int, tuple[int, ...]]] = []
    sources: tuple[Mapping[tuple, int], ...] = (
        getattr(profile, "triple_counts", {}),
        getattr(profile, "pair_counts", {}),
    )
    for counts in sources:
        for seq, count in counts.items():
            if count < min_count:
                continue
            if not all(op in FUSABLE_OPS for op in seq):
                continue
            score = count * (len(seq) - 1)
            candidates.append((score, tuple(int(op) for op in seq)))
    candidates.sort(key=lambda item: (-item[0], len(item[1]), item[1]))
    return make_plan(seq for _score, seq in candidates[:max_fused])


def plan_from_template(template: Template, max_fused: int = 8) -> FusionPlan:
    """A plan from *static* adjacency (no profile): every fusable run
    that occurs in the template's blocks, ranked by occurrence count.

    Used as a profile-free fallback and by tests that want a fused
    execution path without a prior profiling run.
    """
    pair_counts: dict[tuple[int, ...], int] = {}
    triple_counts: dict[tuple[int, ...], int] = {}
    seen: set[int] = set()
    stack = [template]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        for lit in t.literals:
            if isinstance(lit, Template):
                stack.append(lit)
        cfg = build_cfg(t)
        for leader in cfg.order:
            instrs = cfg.blocks[leader].instrs
            ops = [instr[0] for instr in instrs]
            for i in range(len(ops) - 1):
                if ops[i] in FUSABLE_OPS and ops[i + 1] in FUSABLE_OPS:
                    pair = (ops[i], ops[i + 1])
                    pair_counts[pair] = pair_counts.get(pair, 0) + 1
                    if i + 2 < len(ops) and ops[i + 2] in FUSABLE_OPS:
                        triple = (ops[i], ops[i + 1], ops[i + 2])
                        triple_counts[triple] = triple_counts.get(triple, 0) + 1

    class _Static:
        pass

    static = _Static()
    static.pair_counts = pair_counts  # type: ignore[attr-defined]
    static.triple_counts = triple_counts  # type: ignore[attr-defined]
    return select_superinstructions(static, max_fused=max_fused, min_count=1)


# --------------------------------------------------------------------------
# Fusion and lowering
# --------------------------------------------------------------------------


def fuse_template(
    template: Template,
    plan: FusionPlan,
    stats: dict[str, int] | None = None,
    _memo: dict[int, Template] | None = None,
) -> Template:
    """Rewrite ``template`` (and nested templates) under ``plan``.

    Matching is per basic block, longest pattern first, greedy left to
    right; branch targets are remapped to the shortened code vector.
    Expects base-ISA input — fusing already-fused code is rejected.
    Returns the input object unchanged when nothing matches.
    """
    if _memo is None:
        _memo = {}
    found = _memo.get(id(template))
    if found is not None:
        return found
    patterns = plan.by_length_desc()
    new_literals = list(template.literals)
    changed = False
    for i, lit in enumerate(new_literals):
        if isinstance(lit, Template):
            fused = fuse_template(lit, plan, stats, _memo)
            if fused is not lit:
                new_literals[i] = fused
                changed = True
    new_code, matched = _fuse_code(template, patterns, stats)
    if not changed and not matched:
        _memo[id(template)] = template
        return template
    made = Template(
        code=intern_code(new_code),
        literals=tuple(new_literals),
        arity=template.arity,
        nlocals=template.nlocals,
        name=template.name,
    )
    _memo[id(template)] = made
    return made


def _fuse_code(
    template: Template,
    patterns: Sequence[Superinstruction],
    stats: dict[str, int] | None,
) -> tuple[tuple[tuple, ...], bool]:
    code = template.code
    for instr in code:
        if instr[0] >= FUSED_BASE:
            raise FusionValidationError(
                f"{template.name}: cannot fuse already-fused code"
                f" (opcode {instr[0]!r})"
            )
    if not patterns:
        return code, False
    cfg = build_cfg(code)
    new_code: list[tuple] = []
    pc_map: dict[int, int] = {}
    matched_any = False
    for leader in cfg.order:
        instrs = cfg.blocks[leader].instrs
        i = 0
        while i < len(instrs):
            pc_map[leader + i] = len(new_code)
            matched = None
            for sup in patterns:
                k = len(sup.ops)
                if i + k <= len(instrs) and all(
                    instrs[i + j][0] == sup.ops[j] for j in range(k)
                ):
                    matched = sup
                    break
            if matched is not None:
                operands: list[Any] = []
                for j in range(len(matched.ops)):
                    operands.extend(instrs[i + j][1:])
                new_code.append((matched.opcode, *operands))
                if stats is not None:
                    stats[matched.name] = stats.get(matched.name, 0) + 1
                matched_any = True
                i += len(matched.ops)
            else:
                new_code.append(tuple(instrs[i]))
                i += 1
    if not matched_any:
        return code, False
    out: list[tuple] = []
    for instr in new_code:
        if instr[0] in BRANCH_OPS:
            out.append((instr[0], pc_map[instr[1]]))
        else:
            out.append(instr)
    return tuple(out), True


def lower_template(
    template: Template, _memo: dict[int, Template] | None = None
) -> Template:
    """Expand fused instructions back to the base ISA.

    Pure operand un-concatenation (the fused encoding keeps member
    operands in order), with branch targets remapped to the expanded
    code vector and nested templates lowered recursively.  Lowering a
    template with no fused instructions returns it unchanged.
    """
    if _memo is None:
        _memo = {}
    found = _memo.get(id(template))
    if found is not None:
        return found
    new_literals = list(template.literals)
    changed = False
    for i, lit in enumerate(new_literals):
        if isinstance(lit, Template):
            lowered = lower_template(lit, _memo)
            if lowered is not lit:
                new_literals[i] = lowered
                changed = True
    has_fused = any(instr[0] >= FUSED_BASE for instr in template.code)
    if not has_fused and not changed:
        _memo[id(template)] = template
        return template
    expanded: list[tuple] = []
    pc_map: dict[int, int] = {}
    for pc, instr in enumerate(template.code):
        pc_map[pc] = len(expanded)
        op = instr[0]
        if op < FUSED_BASE:
            expanded.append(instr)
            continue
        sup = fused_for_opcode(op)
        if sup is None:
            raise FusionValidationError(
                f"{template.name}: unknown fused opcode {op!r}"
            )
        base = 1
        for member in sup.ops:
            width = operand_count(member)
            expanded.append((member, *instr[base : base + width]))
            base += width
    out: list[tuple] = []
    for instr in expanded:
        if instr[0] in BRANCH_OPS:
            out.append((instr[0], pc_map[instr[1]]))
        else:
            out.append(instr)
    made = Template(
        code=intern_code(out),
        literals=tuple(new_literals),
        arity=template.arity,
        nlocals=template.nlocals,
        name=template.name,
    )
    _memo[id(template)] = made
    return made


def structurally_equal(a: Template, b: Template) -> bool:
    """Exact structural identity: code, shape, and literal frames
    (nested templates recursively; other literals by object identity or
    type-strict equality)."""
    if (
        a.name != b.name
        or a.arity != b.arity
        or a.nlocals != b.nlocals
        or len(a.code) != len(b.code)
        or len(a.literals) != len(b.literals)
    ):
        return False
    for x, y in zip(a.code, b.code):
        if tuple(x) != tuple(y):
            return False
    for x, y in zip(a.literals, b.literals):
        if isinstance(x, Template) or isinstance(y, Template):
            if not (
                isinstance(x, Template)
                and isinstance(y, Template)
                and structurally_equal(x, y)
            ):
                return False
        elif x is not y and not (type(x) is type(y) and x == y):
            return False
    return True


def validate_fusion(
    original: Template, fused: Template, closed_count: int = 0
) -> None:
    """Translation validation for one fused template (raises on failure).

    Proves (1) lowering the fused template restores ``original``
    exactly and (2) the lowered code passes the base-ISA bytecode
    verifier.  Differential execution of the fused/unfused twins is the
    machine-level half — see :func:`fuse_machine` callers.
    """
    lowered = lower_template(fused)
    if not structurally_equal(lowered, original):
        raise FusionValidationError(
            f"{original.name}: lowering the fused template does not"
            f" restore the original code"
        )
    report = check_template(lowered, closed_count=closed_count)
    if not report.ok:
        raise FusionValidationError(
            f"{original.name}: lowered fused template failed"
            f" verification: {report.violations[0]}"
        )


# --------------------------------------------------------------------------
# Superinstruction-enabled machines
# --------------------------------------------------------------------------


class SuperMachine(Machine):
    """A :class:`Machine` whose dispatch loops know a fusion plan.

    Both loops come from :func:`repro.vm.dispatch.build_loop` — the
    same instruction-table rendering as the checked-in base loops, with
    the plan's fused handlers prepended — so base-ISA templates run
    unchanged and fused templates dispatch their fused opcodes.
    ``call_profiled`` automatically picks the plan-aware counting loop
    via the ``_counting_loop`` attribute.
    """

    def __init__(
        self,
        globals_: dict | None = None,
        plan: FusionPlan | None = None,
    ):
        super().__init__(globals_)
        self.plan = plan if plan is not None else FusionPlan()
        self._run = build_loop(self.plan, counting=False).__get__(self)
        self._counting_loop = build_loop(self.plan, counting=True)


def fuse_machine(
    machine: Machine,
    plan: FusionPlan,
    validate: bool = True,
    stats: dict[str, int] | None = None,
) -> SuperMachine:
    """A :class:`SuperMachine` twin of ``machine`` with every global
    closure's template fused under ``plan``.

    Non-closure globals are shared; closure environments are preserved.
    With ``validate`` (the default), every distinct fused template must
    pass :func:`validate_fusion` before the machine is returned.
    """
    memo: dict[int, Template] = {}
    fused_globals: dict[Any, Any] = {}
    checked: set[int] = set()
    for name, value in machine.globals.items():
        if isinstance(value, VmClosure):
            fused = fuse_template(value.template, plan, stats, memo)
            if validate and id(fused) not in checked:
                validate_fusion(
                    value.template, fused, closed_count=len(value.env)
                )
                checked.add(id(fused))
            fused_globals[name] = VmClosure(fused, value.env)
        else:
            fused_globals[name] = value
    return SuperMachine(fused_globals, plan)


def fusion_table(
    plan: FusionPlan, stats: Mapping[str, int] | None = None
) -> list[dict[str, Any]]:
    """Report rows for a plan: one dict per superinstruction."""
    stats = stats or {}
    return [
        {
            "name": s.name,
            "opcode": s.opcode,
            "length": len(s.ops),
            "sites": stats.get(s.name, 0),
            "dispatches_saved_per_execution": s.dispatches_saved,
        }
        for s in plan.fused
    ]


__all__ = [
    "FusionPlan",
    "FusionValidationError",
    "SuperMachine",
    "Superinstruction",
    "fuse_machine",
    "fuse_template",
    "fusion_table",
    "lower_template",
    "make_plan",
    "plan_from_template",
    "select_superinstructions",
    "structurally_equal",
    "validate_fusion",
]

