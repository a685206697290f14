"""Tests for the bytecode verifier (:mod:`repro.vm.verify`).

Two halves: every template the three backends produce — stock compiler,
ANF compiler, fused cogen backend — passes verification on random
programs (property tests); and hand-corrupted templates are rejected
with the right :class:`ViolationKind` anchored to the right offset
(mutation tests).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.compiler.fusion import ObjectCodeBackend
from repro.compiler.program import compile_program
from repro.lang.parser import parse_program
from repro.lang.prims import PRIMITIVES
from repro.rtcg import make_generating_extension
from repro.sexp.datum import sym
from repro.vm.instructions import Op
from repro.vm.template import Template
from repro.vm.verify import (
    VerificationError,
    ViolationKind,
    check_template,
    verify_template,
)
from tests.strategies import arith_exprs, higher_order_exprs, list_exprs


def _assert_all_verify(templates):
    for template in templates:
        report = check_template(template)
        assert report.ok, report.pretty()


# -- property tests: compiler output always verifies --------------------------


class TestCompiledOutputVerifies:
    @given(expr=arith_exprs())
    @settings(max_examples=40, deadline=None)
    def test_stock_compiler_arith(self, expr):
        program = parse_program(f"(define (main) {expr})")
        compiled = compile_program(program, compiler="stock")
        _assert_all_verify(compiled.templates.values())

    @given(expr=higher_order_exprs())
    @settings(max_examples=40, deadline=None)
    def test_stock_compiler_higher_order(self, expr):
        program = parse_program(f"(define (main) {expr})")
        compiled = compile_program(program, compiler="stock")
        _assert_all_verify(compiled.templates.values())

    @given(expr=list_exprs())
    @settings(max_examples=40, deadline=None)
    def test_anf_compiler_lists(self, expr):
        program = parse_program(f"(define (main) {expr})")
        compiled = compile_program(program, compiler="auto")
        _assert_all_verify(compiled.templates.values())

    @given(expr=higher_order_exprs())
    @settings(max_examples=40, deadline=None)
    def test_anf_compiler_higher_order(self, expr):
        program = parse_program(f"(define (main) {expr})")
        compiled = compile_program(program, compiler="auto")
        _assert_all_verify(compiled.templates.values())

    @given(expr=arith_exprs(env=("d",)))
    @settings(max_examples=30, deadline=None)
    def test_fused_cogen_backend(self, expr):
        """RTCG output of the fused system verifies at generation time."""
        gen = make_generating_extension(
            f"(define (main d) {expr})", "D", goal="main"
        )
        backend = ObjectCodeBackend()
        gen.compiled().generate([], backend=backend)
        _assert_all_verify(backend.templates.values())

    def test_workload_interpreters_verify(self):
        from repro.workloads import lazy_interpreter, mixwell_interpreter

        for program in (mixwell_interpreter(), lazy_interpreter()):
            for compiler in ("stock", "auto"):
                compiled = compile_program(program, compiler=compiler)
                _assert_all_verify(compiled.templates.values())


# -- mutation tests: corrupted templates are rejected -------------------------


def _tmpl(code, literals=(), arity=0, nlocals=0, name="mutant"):
    return Template(
        code=tuple(code),
        literals=tuple(literals),
        arity=arity,
        nlocals=nlocals,
        name=name,
    )


def _sole_error(template, kind, pc, closed_count=0):
    """Check the one error has the expected kind and instruction offset."""
    report = check_template(template, closed_count=closed_count)
    assert not report.ok
    kinds = {(v.kind, v.pc) for v in report.errors}
    assert (kind, pc) in kinds, report.pretty()
    return report


class TestMutationsRejected:
    def test_bad_opcode(self):
        t = _tmpl([(999, 0), (Op.RETURN,)])
        _sole_error(t, ViolationKind.BAD_OPCODE, 0)

    def test_bad_operand_count(self):
        t = _tmpl([(Op.CONST,), (Op.RETURN,)], literals=(1,))
        _sole_error(t, ViolationKind.BAD_OPERANDS, 0)

    def test_non_integer_operand(self):
        t = _tmpl([(Op.LOCAL, "zero"), (Op.RETURN,)], nlocals=1)
        _sole_error(t, ViolationKind.BAD_OPERANDS, 0)

    def test_bad_jump_target(self):
        t = _tmpl([(Op.JUMP, 99), (Op.RETURN,)])
        _sole_error(t, ViolationKind.BAD_JUMP_TARGET, 0)

    def test_negative_jump_target(self):
        t = _tmpl([(Op.JUMP_IF_FALSE, -1), (Op.RETURN,)])
        _sole_error(t, ViolationKind.BAD_JUMP_TARGET, 0)

    def test_bad_literal_index(self):
        t = _tmpl([(Op.CONST, 5), (Op.RETURN,)], literals=(1,))
        _sole_error(t, ViolationKind.BAD_LITERAL_INDEX, 0)

    def test_bad_literal_kind_global(self):
        t = _tmpl([(Op.GLOBAL, 0), (Op.RETURN,)], literals=(42,))
        _sole_error(t, ViolationKind.BAD_LITERAL_KIND, 0)

    def test_bad_literal_kind_prim(self):
        t = _tmpl([(Op.PRIM, 0, 0), (Op.RETURN,)], literals=(sym("car"),))
        _sole_error(t, ViolationKind.BAD_LITERAL_KIND, 0)

    def test_bad_local_slot(self):
        t = _tmpl([(Op.LOCAL, 3), (Op.RETURN,)], nlocals=1, arity=1)
        _sole_error(t, ViolationKind.BAD_LOCAL_SLOT, 0)

    def test_bad_setloc_slot(self):
        t = _tmpl([(Op.CONST, 0), (Op.SETLOC, 7), (Op.RETURN,)],
                  literals=(1,), nlocals=2)
        _sole_error(t, ViolationKind.BAD_LOCAL_SLOT, 1)

    def test_bad_closed_index_top_level(self):
        # Top-level templates run with an empty closure environment.
        t = _tmpl([(Op.CLOSED, 0), (Op.RETURN,)])
        _sole_error(t, ViolationKind.BAD_CLOSED_INDEX, 0)

    def test_bad_prim_arity(self):
        zero_p = PRIMITIVES[sym("zero?")]
        t = _tmpl(
            [(Op.CONST, 1), (Op.PUSH,), (Op.CONST, 1), (Op.PUSH,),
             (Op.CONST, 1), (Op.PUSH,), (Op.PRIM, 0, 3), (Op.RETURN,)],
            literals=(zero_p, 0),
        )
        _sole_error(t, ViolationKind.BAD_PRIM_ARITY, 6)

    def test_stack_underflow_call(self):
        t = _tmpl([(Op.CALL, 2), (Op.RETURN,)])
        _sole_error(t, ViolationKind.STACK_UNDERFLOW, 0)

    def test_stack_underflow_prim(self):
        plus = PRIMITIVES[sym("+")]
        t = _tmpl([(Op.PRIM, 0, 2), (Op.RETURN,)], literals=(plus,))
        _sole_error(t, ViolationKind.STACK_UNDERFLOW, 0)

    def test_stack_mismatch_at_join(self):
        t = _tmpl([(Op.JUMP_IF_FALSE, 2), (Op.PUSH,), (Op.RETURN,)])
        report = check_template(t)
        assert any(
            v.kind is ViolationKind.STACK_MISMATCH and v.pc == 2
            for v in report.errors
        ), report.pretty()

    def test_falls_off_end(self):
        t = _tmpl([(Op.PUSH,)])
        _sole_error(t, ViolationKind.FALLS_OFF_END, 0)

    def test_empty_code_vector(self):
        t = _tmpl([])
        report = check_template(t)
        assert any(
            v.kind is ViolationKind.FALLS_OFF_END for v in report.errors
        )

    def test_bad_arity_exceeds_locals(self):
        # Template.__post_init__ now rejects nlocals < arity outright, so
        # forge the mutant behind the constructor's back — the verifier
        # must still catch it (defense in depth against corrupt images).
        t = _tmpl([(Op.RETURN,)], arity=0, nlocals=1)
        object.__setattr__(t, "arity", 2)
        report = check_template(t)
        assert any(
            v.kind is ViolationKind.BAD_ARITY for v in report.errors
        )

    def test_constructor_rejects_short_locals_frame(self):
        with pytest.raises(ValueError, match="nlocals 1 < arity 2"):
            _tmpl([(Op.RETURN,)], arity=2, nlocals=1)

    def test_corrupt_nested_template_found_through_closure(self):
        inner = _tmpl([(Op.CLOSED, 5), (Op.RETURN,)], name="inner")
        outer = _tmpl(
            [(Op.CONST, 0), (Op.PUSH,), (Op.MAKE_CLOSURE, 1, 1),
             (Op.RETURN,)],
            literals=(42, inner),
            name="outer",
        )
        report = check_template(outer)
        assert not report.ok
        v = next(
            v for v in report.errors
            if v.kind is ViolationKind.BAD_CLOSED_INDEX
        )
        assert v.template == "outer.inner"
        assert v.pc == 0


class TestWarnings:
    def test_unreachable_code_is_warning(self):
        t = _tmpl(
            [(Op.CONST, 0), (Op.RETURN,), (Op.PUSH,), (Op.RETURN,)],
            literals=(1,),
        )
        report = check_template(t)
        assert report.ok
        assert any(
            v.kind is ViolationKind.UNREACHABLE_CODE and v.pc == 2
            for v in report.warnings
        )

    def test_leftover_stack_is_warning(self):
        t = _tmpl([(Op.PUSH,), (Op.RETURN,)])
        report = check_template(t)
        assert report.ok
        assert any(
            v.kind is ViolationKind.LEFTOVER_STACK and v.pc == 1
            for v in report.warnings
        )

    def test_warnings_do_not_raise(self):
        t = _tmpl([(Op.PUSH,), (Op.RETURN,)])
        verify_template(t)  # must not raise


class TestVerifyAPI:
    def test_verify_template_raises_with_report(self):
        t = _tmpl([(Op.JUMP, 99), (Op.RETURN,)])
        with pytest.raises(VerificationError) as exc:
            verify_template(t)
        assert "bad-jump-target" in str(exc.value)
        assert not exc.value.report.ok

    def test_report_pretty_includes_disasm_context(self):
        t = _tmpl([(Op.LOCAL, 3), (Op.RETURN,)], nlocals=1, name="f")
        report = check_template(t)
        pretty = report.pretty()
        assert "bad-local-slot" in pretty
        assert "LOCAL 3" in pretty

    def test_good_template_report_is_clean(self):
        program = parse_program(
            "(define (power x n)"
            " (if (zero? n) 1 (* x (power x (- n 1)))))"
        )
        compiled = compile_program(program)
        report = check_template(compiled.templates[sym("power")])
        assert report.ok
        assert report.violations == ()

    def test_compile_program_verifies_by_default(self, monkeypatch):
        # Corrupt the compiler's output: compile_program must reject it
        # before a machine ever runs it.
        from repro.compiler import fusion

        program = parse_program("(define (main x) x)")
        bad = _tmpl([(Op.JUMP, 99), (Op.RETURN,)], name="main")
        monkeypatch.setattr(fusion, "assemble", lambda *a, **kw: bad)
        with pytest.raises(VerificationError):
            compile_program(program, compiler="auto")
