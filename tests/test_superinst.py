"""The profile-guided superinstruction pass and its translation validation.

Covers plan selection (profiled and static), the fuse/lower round trip
on the block graph, the validation failure modes, and the fused
machines' differential agreement with the base production loop.
"""

import pytest

from repro.lang.prims import PRIMITIVES
from repro.sexp import sym
from repro.vm import (
    Lit,
    Machine,
    Op,
    Template,
    VMProfile,
    VmClosure,
    assemble,
    attach_label,
    call_profiled,
    instruction,
    instruction_using_label,
    make_label,
    sequentially,
)
from repro.vm.dispatch import FUSED_BASE, make_plan
from repro.vm.superinst import (
    FusionValidationError,
    SuperMachine,
    fuse_machine,
    fuse_template,
    fusion_table,
    lower_template,
    plan_from_template,
    select_superinstructions,
    structurally_equal,
    validate_fusion,
)

PLUS = PRIMITIVES[sym("+")]
TIMES = PRIMITIVES[sym("*")]


def simple(*fragments, arity=0, nlocals=None, name="test"):
    frag = sequentially(*fragments, instruction(Op.RETURN))
    return assemble(
        frag, arity, nlocals if nlocals is not None else max(arity, 4), name
    )


def square_template():
    # (lambda (n) (* n n)) — a dense run of fusable opcodes.
    return simple(
        instruction(Op.LOCAL, 0),
        instruction(Op.PUSH),
        instruction(Op.LOCAL, 0),
        instruction(Op.PUSH),
        instruction(Op.PRIM, Lit(TIMES), 2),
        arity=1,
        name="square",
    )


def branchy_template():
    # if local0 then 1+2 else 3+4 — fusable runs on both branch arms.
    label = make_label()
    return simple(
        instruction(Op.LOCAL, 0),
        instruction_using_label(Op.JUMP_IF_FALSE, label),
        instruction(Op.CONST, Lit(1)),
        instruction(Op.PUSH),
        instruction(Op.CONST, Lit(2)),
        instruction(Op.PUSH),
        instruction(Op.PRIM, Lit(PLUS), 2),
        instruction(Op.RETURN),
        attach_label(label, instruction(Op.CONST, Lit(3))),
        instruction(Op.PUSH),
        instruction(Op.CONST, Lit(4)),
        instruction(Op.PUSH),
        instruction(Op.PRIM, Lit(PLUS), 2),
        arity=1,
        name="branchy",
    )


class TestSelection:
    def test_profiled_selection_is_deterministic_and_fusable_only(self):
        t = square_template()
        machine = Machine()
        profile = VMProfile()
        for n in (3, 4, 5):
            call_profiled(machine, VmClosure(t, ()), [n], profile)
        plan = select_superinstructions(profile)
        again = select_superinstructions(profile)
        assert plan.key() == again.key()
        assert plan  # the hot LOCAL/PUSH runs are candidates
        for sup in plan.fused:
            assert all(op not in (Op.CALL, Op.RETURN) for op in sup.ops)

    def test_min_count_filters_cold_pairs(self):
        # n + 2: every adjacent pair is distinct and executes exactly
        # once, so a min_count of 2 yields no candidates.
        t = simple(
            instruction(Op.LOCAL, 0),
            instruction(Op.PUSH),
            instruction(Op.CONST, Lit(2)),
            instruction(Op.PUSH),
            instruction(Op.PRIM, Lit(PLUS), 2),
            arity=1,
        )
        machine = Machine()
        profile = VMProfile()
        assert call_profiled(machine, VmClosure(t, ()), [1], profile) == 3
        assert profile.pair_counts
        assert not select_superinstructions(profile, min_count=2)
        assert select_superinstructions(profile, min_count=1)

    def test_static_plan_covers_template_runs(self):
        plan = plan_from_template(square_template())
        assert plan
        names = {s.name for s in plan.fused}
        assert any("LOCAL+PUSH" in name for name in names)


class TestFuseAndLower:
    def test_roundtrip_restores_original(self):
        t = branchy_template()
        plan = plan_from_template(t)
        fused = fuse_template(t, plan)
        assert fused is not t
        assert len(fused.code) < len(t.code)
        lowered = lower_template(fused)
        assert structurally_equal(lowered, t)
        validate_fusion(t, fused)

    def test_branch_targets_remap(self):
        t = branchy_template()
        plan = plan_from_template(t)
        fused = fuse_template(t, plan)
        machine = Machine()
        sm = SuperMachine(plan=plan)
        for test_value in (True, False):
            base = machine.call(VmClosure(t, ()), [test_value])
            hot = sm.call(VmClosure(fused, ()), [test_value])
            assert base == hot

    def test_unmatched_template_returned_unchanged(self):
        t = simple(instruction(Op.CONST, Lit(42)))
        plan = make_plan([(Op.LOCAL, Op.PUSH)])
        assert fuse_template(t, plan) is t

    def test_nested_templates_fuse_recursively(self):
        inner = square_template()
        outer = simple(
            instruction(Op.MAKE_CLOSURE, Lit(inner), 0),
            instruction(Op.PUSH),
            instruction(Op.CONST, Lit(6)),
            instruction(Op.PUSH),
            instruction(Op.TAIL_CALL, 1),
            name="outer",
        )
        plan = plan_from_template(outer)
        fused = fuse_template(outer, plan)
        fused_inner = next(
            lit for lit in fused.literals if isinstance(lit, Template)
        )
        assert len(fused_inner.code) < len(inner.code)
        assert structurally_equal(lower_template(fused), outer)

    def test_refuses_to_fuse_fused_code(self):
        t = square_template()
        plan = plan_from_template(t)
        fused = fuse_template(t, plan)
        with pytest.raises(FusionValidationError, match="already-fused"):
            fuse_template(fused, plan)

    def test_stats_count_fusion_sites(self):
        t = branchy_template()
        plan = plan_from_template(t)
        sites: dict[str, int] = {}
        fuse_template(t, plan, sites)
        assert sum(sites.values()) > 0
        rows = fusion_table(plan, sites)
        assert {row["name"] for row in rows} == {s.name for s in plan.fused}
        assert sum(row["sites"] for row in rows) == sum(sites.values())


class TestValidation:
    def test_tampered_fusion_is_rejected(self):
        t = square_template()
        plan = plan_from_template(t)
        fused = fuse_template(t, plan)
        # Corrupt one fused operand: lowering no longer restores t.
        code = list(fused.code)
        for i, instr in enumerate(code):
            if instr[0] >= FUSED_BASE and len(instr) > 1:
                code[i] = (instr[0], *instr[1:-1], 99)
                break
        tampered = Template(
            code=tuple(code), literals=fused.literals,
            arity=fused.arity, nlocals=fused.nlocals, name=fused.name,
        )
        with pytest.raises(FusionValidationError, match="restore"):
            validate_fusion(t, tampered)

    def test_structural_equality_is_type_strict(self):
        # 1 and True are == in Python but are different literals.
        a = simple(instruction(Op.CONST, Lit(1)))
        b = simple(instruction(Op.CONST, Lit(True)))
        assert not structurally_equal(a, b)
        assert structurally_equal(a, simple(instruction(Op.CONST, Lit(1))))


class TestFusedMachines:
    def test_fuse_machine_differential(self):
        t = square_template()
        machine = Machine()
        machine.define(sym("square"), VmClosure(t, ()))
        machine.define(sym("limit"), 99)
        plan = plan_from_template(t)
        sites: dict[str, int] = {}
        fused = fuse_machine(machine, plan, stats=sites)
        assert sum(sites.values()) > 0
        for n in range(1, 6):
            assert fused.call_named(sym("square"), [n]) == machine.call_named(
                sym("square"), [n]
            )
        # Non-closure globals are shared, not copied.
        assert fused.globals[sym("limit")] == 99

    def test_fused_counting_loop_retires_fewer_dispatches(self):
        t = square_template()
        plan = plan_from_template(t)
        fused = fuse_template(t, plan)
        base_profile = VMProfile()
        call_profiled(Machine(), VmClosure(t, ()), [7], base_profile)
        sm = SuperMachine(plan=plan)
        fused_profile = VMProfile()
        assert (
            call_profiled(sm, VmClosure(fused, ()), [7], fused_profile) == 49
        )
        assert (
            fused_profile.total_instructions < base_profile.total_instructions
        )

    def test_base_templates_run_unchanged_on_super_machine(self):
        t = square_template()
        sm = SuperMachine(plan=plan_from_template(t))
        assert sm.call(VmClosure(t, ()), [9]) == 81
