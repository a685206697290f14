"""Tests for the congruence linter (:mod:`repro.pe.check`).

The BTA's output on every example and workload program must lint clean;
hand-corrupted annotations must raise :class:`AnnotationViolation` naming
the offending expression path.
"""

from __future__ import annotations

import pytest

from repro.lang.ast import (
    App,
    Const,
    DApp,
    DIf,
    DLam,
    DPrim,
    If,
    Lam,
    Lift,
    MemoCall,
    Prim,
    Var,
)
from repro.pe.annprog import AnnDef, BindingTime
from repro.pe.bta import analyze
from repro.pe.check import (
    AnnotationViolation,
    CongruenceKind,
    check_annotated,
    check_bta,
    verify_annotated,
)
from repro.lang.parser import parse_program
from repro.sexp.datum import sym

from tests.strategies import annotated_program as _program

S = BindingTime.STATIC
D = BindingTime.DYNAMIC


# -- BTA output is congruent on every example and workload --------------------


def _assert_congruent(program, signature, **kwargs):
    result = analyze(program, signature, **kwargs)
    violations = check_bta(result)
    assert violations == [], "\n".join(str(v) for v in violations)


class TestBTAOutputIsCongruent:
    def test_power(self):
        from examples.quickstart import POWER

        _assert_congruent(parse_program(POWER, goal="power"), "DS")

    def test_matcher(self):
        from examples.rtcg_matcher import MATCHER

        _assert_congruent(parse_program(MATCHER, goal="match"), "SD")

    def test_incremental_engine(self):
        from examples.incremental_rtcg import ENGINE

        _assert_congruent(parse_program(ENGINE, goal="matches?"), "SD")

    def test_mixwell_interpreter(self):
        from repro.workloads import MIXWELL_SIGNATURE, mixwell_interpreter

        _assert_congruent(mixwell_interpreter(), MIXWELL_SIGNATURE)

    def test_lazy_interpreter(self):
        from repro.workloads import LAZY_SIGNATURE, lazy_interpreter

        _assert_congruent(lazy_interpreter(), LAZY_SIGNATURE)

    def test_all_signature_splits_of_power(self):
        src = "(define (power x n) (if (zero? n) 1 (* x (power x (- n 1)))))"
        for signature in ("SS", "SD", "DS", "DD"):
            _assert_congruent(parse_program(src, goal="power"), signature)


# -- corrupted annotations are rejected ---------------------------------------


def _violation_kinds(annotated):
    return [(v.kind, v.path) for v in check_annotated(annotated)]


class TestCorruptAnnotationsRejected:
    def test_static_prim_with_dynamic_arg(self):
        # (zero? d) with d dynamic must be a DPrim.
        body = DIf(
            Prim(sym("zero?"), (Var(sym("d")),)),
            Lift(Const(1)),
            Lift(Const(2)),
        )
        kinds = _violation_kinds(_program(body))
        assert (
            CongruenceKind.STATIC_PRIM_DYNAMIC_ARG,
            "dif.test/prim.arg0",
        ) in kinds

    def test_static_if_on_dynamic_test(self):
        body = If(Var(sym("d")), Lift(Const(1)), Lift(Const(2)))
        kinds = _violation_kinds(_program(body))
        assert (
            CongruenceKind.STATIC_IF_DYNAMIC_TEST,
            "if.test",
        ) in kinds

    def test_lift_of_dynamic(self):
        body = Lift(Var(sym("d")))
        kinds = _violation_kinds(_program(body))
        assert (CongruenceKind.LIFT_OF_DYNAMIC, "lift") in kinds

    def test_lift_of_lambda(self):
        body = Lift(Lam((sym("x"),), Var(sym("x"))))
        kinds = _violation_kinds(_program(body))
        assert (CongruenceKind.LIFT_OF_LAMBDA, "lift") in kinds

    def test_unlifted_static_in_code_position(self):
        # A bare constant as a dynamic primitive argument lacks a lift.
        body = DPrim(sym("+"), (Var(sym("d")), Const(1)))
        kinds = _violation_kinds(_program(body))
        assert (CongruenceKind.UNLIFTED_STATIC, "dprim.arg1") in kinds

    def test_unlifted_static_residual_body(self):
        # A residual definition whose whole body is a bare constant.
        kinds = _violation_kinds(_program(Const(42)))
        assert (CongruenceKind.UNLIFTED_STATIC, "") in kinds

    def test_static_lambda_in_code_position(self):
        body = DApp(
            Lam((sym("x"),), Var(sym("x"))),
            (Var(sym("d")),),
        )
        kinds = _violation_kinds(_program(body))
        assert (CongruenceKind.STATIC_LAMBDA_IN_CODE, "dapp.fn") in kinds

    def test_static_app_of_dynamic_operator(self):
        body = App(Var(sym("d")), (Var(sym("s")),))
        kinds = _violation_kinds(_program(body))
        assert (
            CongruenceKind.STATIC_APP_DYNAMIC_OPERATOR,
            "app.fn",
        ) in kinds

    def test_memo_call_to_undefined_function(self):
        body = MemoCall(sym("ghost"), (Var(sym("d")),))
        kinds = _violation_kinds(_program(body))
        assert any(
            k is CongruenceKind.MEMO_UNKNOWN_FUNCTION and "ghost" in p
            for k, p in kinds
        )

    def test_memo_call_arity_mismatch(self):
        body = MemoCall(sym("main"), (Var(sym("d")),))
        kinds = _violation_kinds(_program(body))
        assert any(
            k is CongruenceKind.MEMO_ARITY_MISMATCH for k, p in kinds
        )

    def test_memo_call_dynamic_value_for_static_param(self):
        # The division is not closed: main's first parameter is static
        # but the recursive memoized call passes a dynamic value.
        body = MemoCall(sym("main"), (Var(sym("d")), Var(sym("d"))))
        kinds = _violation_kinds(_program(body))
        assert any(
            k is CongruenceKind.MEMO_STATIC_ARG_DYNAMIC and p.endswith("arg0")
            for k, p in kinds
        )

    def test_memo_call_to_unfolded_function(self):
        helper = AnnDef(
            name=sym("helper"),
            params=(sym("d"),),
            bts=(D,),
            body=Var(sym("d")),
            residual=False,
        )
        body = MemoCall(sym("helper"), (Var(sym("d")),))
        kinds = _violation_kinds(_program(body, extra=(helper,)))
        assert any(
            k is CongruenceKind.MEMO_TO_UNFOLDED for k, p in kinds
        )

    def test_dlam_body_is_code_position(self):
        body = DLam((sym("x"),), Const(5))
        kinds = _violation_kinds(_program(body))
        assert (CongruenceKind.UNLIFTED_STATIC, "dlam.body") in kinds

    def test_verify_annotated_raises_with_paths(self):
        body = DIf(Lift(Var(sym("d"))), Lift(Const(1)), Const(2))
        with pytest.raises(AnnotationViolation) as exc:
            verify_annotated(_program(body))
        message = str(exc.value)
        assert "lift-of-dynamic" in message
        assert "dif.test/lift" in message
        assert "dif.alt" in message
        assert all(
            v.def_name == sym("main") for v in exc.value.violations
        )

    def test_clean_annotation_passes(self):
        body = DPrim(sym("+"), (Var(sym("d")), Lift(Var(sym("s")))))
        assert check_annotated(_program(body)) == []
        verify_annotated(_program(body))  # must not raise


class TestGeneratingExtensionWiring:
    def test_generating_extension_checks_congruence(self):
        from repro.rtcg import GeneratingExtension

        # A well-annotated program constructs without complaint...
        GeneratingExtension(
            "(define (power x n)"
            " (if (zero? n) 1 (* x (power x (- n 1)))))",
            "DS",
            goal="power",
        )
