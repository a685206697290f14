"""The two checked-in dispatch loops and the ISA table they must agree with.

``Machine._run`` (:mod:`repro.vm.machine`) runs all residual code; its
counting twin ``_run_counting`` (:mod:`repro.vm.profile`) serves
profiling.  Both are ordinary source.  The tests here read them with
:func:`inspect.getsource` and hold them congruent: (a) every opcode has
exactly one arm in each loop; (b) past the frame set-up, the counting
loop is the production loop plus exactly its four count lines; (c) no
arm reads an operand slot beyond the opcode's entry in
:data:`~repro.vm.instructions.OPERAND_COUNTS`, the table the bytecode
verifier checks instructions against.
"""

import ast
import inspect
import textwrap

import pytest

from repro.vm.instructions import (
    BRANCH_OPS,
    LITERAL_COUNT_OPS,
    LITERAL_OPERAND_OPS,
    OPERAND_COUNTS,
    Op,
    opcode_name,
)
from repro.vm.machine import Machine
from repro.vm.profile import _run_counting

LOOPS = {"production": Machine._run, "counting": _run_counting}


def _source(loop) -> str:
    return textwrap.dedent(inspect.getsource(loop))


def _arms(loop) -> list[tuple[int, list[ast.stmt]]]:
    """``(opcode, arm body)`` of the loop's ``if op == N`` chain, in order."""
    (func,) = ast.parse(_source(loop)).body
    (dispatch,) = [node for node in ast.walk(func) if isinstance(node, ast.While)]
    chain = dispatch.body[-1]
    arms = []
    while isinstance(chain, ast.If):
        test = chain.test
        assert isinstance(test, ast.Compare), ast.unparse(test)
        assert ast.unparse(test.left) == "op"
        assert isinstance(test.ops[0], ast.Eq)
        (value,) = test.comparators
        assert type(value) is ast.Constant and type(value.value) is int, (
            f"arm test {ast.unparse(test)!r} is not a plain-int comparison"
        )
        arms.append((value.value, chain.body))
        chain = chain.orelse[0] if chain.orelse else None
    return arms


def _instr_reads(body: list[ast.stmt]) -> list[ast.Subscript]:
    """Every ``instr[...]`` subscript in an arm body."""
    return [
        node
        for stmt in body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Subscript) and ast.unparse(node.value) == "instr"
    ]


class TestTable:
    def test_every_opcode_has_exactly_one_spec(self):
        assert set(OPERAND_COUNTS) == {op.value for op in Op}
        for name, loop in LOOPS.items():
            opcodes = [op for op, _body in _arms(loop)]
            assert sorted(opcodes) == sorted(op.value for op in Op), name

    def test_operand_counts_match_instruction_classification(self):
        # The operand counts must agree with the operand classes.
        for op in Op:
            n = OPERAND_COUNTS[op]
            if op in LITERAL_COUNT_OPS:
                assert n == 2, op.name
            elif op in LITERAL_OPERAND_OPS or op in BRANCH_OPS:
                assert n == 1, op.name
            elif op in (Op.PUSH, Op.RETURN):
                assert n == 0, op.name
            else:
                assert n == 1, op.name

    def test_opcode_name_renders_any_int(self):
        assert opcode_name(Op.CONST) == "CONST"
        assert opcode_name(int(Op.RETURN)) == "RETURN"
        assert opcode_name(99) == "OP_99"

    def test_operand_placeholders_stay_in_range(self):
        # An arm may only read the operand slots its opcode declares:
        # instr[1] .. instr[OPERAND_COUNTS[op]], each by a constant index.
        for name, loop in LOOPS.items():
            for op, body in _arms(loop):
                for node in _instr_reads(body):
                    slot = node.slice
                    assert isinstance(slot, ast.Constant), ast.unparse(node)
                    assert 1 <= slot.value <= OPERAND_COUNTS[op], (
                        f"{name} loop: {opcode_name(op)} reads"
                        f" {ast.unparse(node)} but has"
                        f" {OPERAND_COUNTS[op]} operand(s)"
                    )


class TestDriftGate:
    def test_checked_in_loops_match_the_table(self):
        # Both loops test the opcodes in the same order, each arm as a
        # plain int with the opcode's name beside it, and end in the
        # unknown-opcode arm.
        orders = {name: [op for op, _ in _arms(loop)] for name, loop in LOOPS.items()}
        assert orders["production"] == orders["counting"]
        for name, loop in LOOPS.items():
            source = _source(loop)
            for op in Op:
                arm = f"op == {op.value}:  # {op.name}\n"
                assert source.count(arm) == 1, (name, op.name)
            assert 'raise VMError(f"unknown opcode {op!r}")' in source

    def test_counting_loop_is_production_plus_accounting(self):
        prod = _source(Machine._run)
        count = _source(_run_counting)
        assert "profile" in count and "profile" not in prod
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
# counts, so a change to either dispatch loop or to residual code
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
