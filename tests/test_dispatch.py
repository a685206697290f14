"""The declarative instruction table and its generated dispatch loops.

The production loop in :mod:`repro.vm.machine` and the counting twin in
:mod:`repro.vm.profile` are both *renderings* of one table
(:mod:`repro.vm.dispatch`); the tests here pin the table's shape and
the congruence gate (checked-in loops == freshly rendered loops).
"""

import subprocess
import sys

import pytest

from repro.vm.dispatch import (
    ORDER,
    TABLE,
    check_drift,
    counting_loop_source,
    operand_count,
    production_loop_source,
)
from repro.vm.instructions import (
    BRANCH_OPS,
    LITERAL_COUNT_OPS,
    LITERAL_OPERAND_OPS,
    Op,
    opcode_name,
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

    def test_opcode_name_renders_any_int(self):
        assert opcode_name(Op.CONST) == "CONST"
        assert opcode_name(int(Op.RETURN)) == "RETURN"
        assert opcode_name(99) == "OP_99"

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
        # Past the signature and docstring, the counting loop is the
        # production loop plus per-opcode and per-template count lines.
        prod_body = _body(prod)
        count_body = _body(count)
        accounting = [
            line for line in count_body
            if any(word in line for word in ACCOUNTING)
        ]
        assert {line.strip() for line in accounting} == {
            "opcode_counts[op] = opcode_counts.get(op, 0) + 1",
            "tmpl_instrs[tkey] = tmpl_instrs.get(tkey, 0) + 1",
            "tkey = profile._ident(template)",
            "tmpl_invocations[tkey] = tmpl_invocations.get(tkey, 0) + 1",
        }
        rest = [line for line in count_body if line not in accounting]
        assert rest == [
            line.replace("self.globals", "machine.globals")
            for line in prod_body
        ]


ACCOUNTING = ("opcode_counts", "tmpl_instrs", "tmpl_invocations", "tkey")


def _body(source: str) -> list[str]:
    """Loop lines from the first frame load on (after the docstring)."""
    lines = source.splitlines()
    return lines[lines.index("    code = template.code"):]


# (workload, dynamic input) -> instructions the §7 residual retires on
# its hot input.  perfbench's exact ``vm.dispatches`` is a sum of these
# counts, so a change to either generated loop or to residual code
# shows up here first.
HOT_DISPATCHES = {
    "mixwell": ([1, 0, 1, 1, 0, 1], 8355),
    "lazy": (4, 113599),
}


@pytest.mark.parametrize("workload", sorted(HOT_DISPATCHES))
def test_section7_hot_inputs_retire_pinned_dispatch_counts(workload):
    from repro.rtcg import make_generating_extension
    from repro.runtime.values import datum_to_value, scheme_equal
    from repro.vm import VMProfile
    from repro.workloads import (
        LAZY_SIGNATURE,
        MIXWELL_SIGNATURE,
        lazy_interpreter,
        lazy_primes_program,
        mixwell_interpreter,
        mixwell_tm_program,
    )

    if workload == "mixwell":
        gen = make_generating_extension(mixwell_interpreter(), MIXWELL_SIGNATURE)
        static = mixwell_tm_program()
    else:
        gen = make_generating_extension(lazy_interpreter(), LAZY_SIGNATURE)
        static = lazy_primes_program()
    dynamic, expected = HOT_DISPATCHES[workload]
    args = [datum_to_value(dynamic)]
    residual = gen.to_object_code([static])
    profile = VMProfile()
    value = residual.run_profiled(args, profile)
    assert scheme_equal(value, residual.run(args))
    assert profile.total_instructions == expected
