"""The declarative instruction table and its generated dispatch loops.

The production loop in :mod:`repro.vm.machine` and the counting twin in
:mod:`repro.vm.profile` are both *renderings* of one table
(:mod:`repro.vm.dispatch`); the tests here pin the table's shape, the
congruence gate (checked-in loops == freshly rendered loops), and the
run-time ``build_loop`` path the superinstruction machinery uses.
"""

import subprocess
import sys

import pytest

from repro.vm.dispatch import (
    FUSABLE_OPS,
    FUSED_BASE,
    ORDER,
    TABLE,
    build_loop,
    check_drift,
    counting_loop_source,
    fused_for_opcode,
    make_plan,
    opcode_name,
    operand_count,
    production_loop_source,
    superinstruction,
)
from repro.vm.instructions import (
    BRANCH_OPS,
    LITERAL_COUNT_OPS,
    LITERAL_OPERAND_OPS,
    Op,
)


class TestTable:
    def test_every_opcode_has_exactly_one_spec(self):
        assert set(TABLE) == set(Op)
        assert len(ORDER) == len(Op)

    def test_operand_counts_match_instruction_classification(self):
        # The table must agree with instructions.py about encoding.
        for op in Op:
            n = operand_count(op)
            if op in LITERAL_COUNT_OPS:
                assert n == 2
            elif op in LITERAL_OPERAND_OPS or op in BRANCH_OPS:
                assert n == 1
            elif op in (Op.RETURN,):
                assert n == 0

    def test_fusable_ops_exclude_control_flow(self):
        for op in FUSABLE_OPS:
            assert op not in BRANCH_OPS
            assert op not in (Op.CALL, Op.TAIL_CALL, Op.RETURN)

    def test_operand_placeholders_stay_in_range(self):
        # A body may only reference operand slots its spec declares.
        for op, spec in TABLE.items():
            for slot in range(spec.operands, 4):
                assert "{a%d}" % slot not in spec.body, op


class TestDriftGate:
    def test_checked_in_loops_match_the_table(self):
        # The repo invariant the CI gate enforces: regenerating both
        # loops from the table is a no-op.
        assert check_drift() == []

    def test_cli_check_passes(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.vm.dispatch", "--check"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_cli_print_emits_both_loops(self):
        for mode, marker in (
            ("production", "def _run("),
            ("counting", "def _run_counting("),
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "repro.vm.dispatch", "--print", mode],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            assert marker in proc.stdout

    def test_counting_loop_is_production_plus_accounting(self):
        prod = production_loop_source()
        count = counting_loop_source()
        assert "profile" in count and "profile" not in prod
        # Both render every opcode arm once, as a plain-int comparison.
        for op in Op:
            arm = f"op == {op.value}:  # {op.name}\n"
            assert prod.count(arm) == 1
            assert count.count(arm) == 1


class TestSuperinstructionRegistry:
    def test_interned_by_sequence(self):
        a = superinstruction((Op.PUSH, Op.PRIM))
        b = superinstruction((Op.PUSH, Op.PRIM))
        assert a is b
        assert a.opcode >= FUSED_BASE
        assert fused_for_opcode(a.opcode) is a
        assert a.name == "PUSH+PRIM"
        assert a.dispatches_saved == 1

    def test_rejects_non_fusable_and_bad_lengths(self):
        with pytest.raises(ValueError):
            superinstruction((Op.PUSH,))
        with pytest.raises(ValueError):
            superinstruction((Op.PUSH, Op.RETURN))

    def test_opcode_name_covers_base_and_fused(self):
        s = superinstruction((Op.LOCAL, Op.PUSH))
        assert opcode_name(Op.CONST) == "CONST"
        assert opcode_name(s.opcode) == "LOCAL+PUSH"

    def test_plan_ordering_is_deterministic(self):
        plan = make_plan([
            (Op.PUSH, Op.PRIM),
            (Op.LOCAL, Op.PUSH, Op.PRIM),
            (Op.CONST, Op.PUSH),
        ])
        assert bool(plan)
        lengths = [len(s.ops) for s in plan.by_length_desc()]
        assert lengths == sorted(lengths, reverse=True)
        # Plans are order-preserving; the same selection in another
        # order carries the same superinstructions.
        other = make_plan([
            (Op.CONST, Op.PUSH),
            (Op.LOCAL, Op.PUSH, Op.PRIM),
            (Op.PUSH, Op.PRIM),
        ])
        assert set(plan.key()) == set(other.key())
        assert plan.by_length_desc() == other.by_length_desc()


class TestBuildLoop:
    def test_cached_per_plan_and_mode(self):
        plan = make_plan([(Op.CONST, Op.PUSH)])
        assert build_loop(plan, counting=False) is build_loop(
            plan, counting=False
        )
        assert build_loop(plan, counting=False) is not build_loop(
            plan, counting=True
        )

    def test_fused_arms_render_before_base_arms(self):
        plan = make_plan([(Op.CONST, Op.PUSH)])
        src = production_loop_source(plan)
        fused = superinstruction((Op.CONST, Op.PUSH))
        assert f"op == {fused.opcode}" in src
        assert src.index(f"op == {fused.opcode}") < src.index(
            f"op == {Op.CONST.value}:  # CONST"
        )

    def test_empty_plan_matches_checked_in_loop(self):
        from repro.vm.machine import Machine

        loop = build_loop(None, counting=False)
        # Same rendering, same behavior: bind to a plain machine and run.
        from repro.lang.prims import PRIMITIVES
        from repro.sexp import sym
        from repro.vm import Lit, assemble, instruction, sequentially

        t = assemble(
            sequentially(
                instruction(Op.CONST, Lit(20)),
                instruction(Op.PUSH),
                instruction(Op.CONST, Lit(22)),
                instruction(Op.PUSH),
                instruction(Op.PRIM, Lit(PRIMITIVES[sym("+")]), 2),
                instruction(Op.RETURN),
            ),
            0, 0, "t",
        )
        machine = Machine()
        bound = loop.__get__(machine)
        assert bound(t, [], ()) == 42
