"""Tests for the dataflow bytecode optimizer (:mod:`repro.vm.opt`).

Four pillars:

* **idempotence** — a second optimization pass is a no-op (property
  test over random programs);
* **determinism** — same input, same output, memo or no memo;
* **semantics preservation** — differential execution of the
  optimized/unoptimized twins agrees on random programs and on the
  fig6/fig7 residual corpus, through both dispatch loops (the plain
  machine and the profiled loop);
* **translation validation** — a deliberately broken pass is caught by
  the output re-verification, not silently shipped.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.compiler.program import compile_program
from repro.lang.parser import parse_program
from repro.rtcg import make_generating_extension
from repro.runtime.values import datum_to_value, scheme_equal
from repro.sexp.datum import sym
from repro.vm import opt
from repro.vm.instructions import Op
from repro.vm.profile import VMProfile, call_named_profiled
from repro.vm.template import Template
from repro.workloads import (
    LAZY_SIGNATURE,
    MIXWELL_SIGNATURE,
    lazy_interpreter,
    lazy_primes_program,
    mixwell_interpreter,
    mixwell_tm_program,
)
from tests.strategies import arith_exprs, higher_order_exprs, list_exprs


def _main_template(source: str) -> Template:
    program = parse_program(source)
    compiled = compile_program(program, compiler="auto", optimize=False)
    return compiled.templates[sym("main")]


def _twins(expr: str):
    """Unoptimized/optimized compilations of ``(define (main) expr)``."""
    program = parse_program(f"(define (main) {expr})")
    base = compile_program(program, compiler="auto", optimize=False)
    optd = compile_program(program, compiler="auto", optimize=True)
    return base, optd


# -- idempotence and determinism ----------------------------------------------


class TestIdempotence:
    @given(expr=arith_exprs())
    @settings(max_examples=30, deadline=None)
    def test_arith(self, expr):
        t = _main_template(f"(define (main) {expr})")
        once = opt.optimize(t).template
        twice = opt.optimize(once).template
        assert twice == once

    @given(expr=higher_order_exprs())
    @settings(max_examples=30, deadline=None)
    def test_higher_order(self, expr):
        t = _main_template(f"(define (main) {expr})")
        once = opt.optimize(t).template
        twice = opt.optimize(once).template
        assert twice == once

    @given(expr=list_exprs())
    @settings(max_examples=30, deadline=None)
    def test_lists(self, expr):
        t = _main_template(f"(define (main) {expr})")
        once = opt.optimize(t).template
        twice = opt.optimize(once).template
        assert twice == once

    def test_second_pass_reports_no_rewrites(self):
        t = _main_template(
            "(define (main) (let ((x (+ 1 2))) (let ((y x)) (* y y))))"
        )
        once = opt.optimize(t).template
        again = opt.optimize(once)
        assert not again.passes, again.passes
        assert again.template == once


class TestDeterminism:
    def test_same_input_same_output_without_memo(self):
        t = _main_template("(define (main) (let ((x 3)) (+ x (* x x))))")
        opt.clear_memo()
        first = opt.optimize(t)
        opt.clear_memo()
        second = opt.optimize(t)
        assert first.template == second.template
        assert first.passes == second.passes

    def test_memo_returns_cached_result(self):
        t = _main_template("(define (main) (+ 1 2))")
        opt.clear_memo()
        first = opt.optimize(t)
        second = opt.optimize(t)
        assert second is first

    def test_memo_discriminates_literal_kinds(self):
        # ``1`` and ``#t`` (and ``1.0``) write the same under some
        # naive keys; the content key must keep them apart.
        ints = Template(
            code=((Op.CONST, 0), (Op.RETURN,)), literals=(1,),
            arity=0, nlocals=0, name="k-int",
        )
        bools = Template(
            code=((Op.CONST, 0), (Op.RETURN,)), literals=(True,),
            arity=0, nlocals=0, name="k-bool",
        )
        floats = Template(
            code=((Op.CONST, 0), (Op.RETURN,)), literals=(1.0,),
            arity=0, nlocals=0, name="k-float",
        )
        opt.clear_memo()
        assert opt.optimize(ints).template.literals == (1,)
        assert opt.optimize(bools).template.literals == (True,)
        out = opt.optimize(floats).template.literals[0]
        assert isinstance(out, float)


# -- semantics preservation ---------------------------------------------------


class TestDifferentialExecution:
    @given(expr=arith_exprs())
    @settings(max_examples=30, deadline=None)
    def test_random_arith_agrees_on_both_loops(self, expr):
        base, optd = _twins(expr)
        assert scheme_equal(base.run([]), optd.run([]))
        profile = VMProfile()
        assert scheme_equal(
            call_named_profiled(base.machine(), base.goal, [], profile),
            call_named_profiled(optd.machine(), optd.goal, [], profile),
        )

    @given(expr=list_exprs())
    @settings(max_examples=30, deadline=None)
    def test_random_lists_agree(self, expr):
        base, optd = _twins(expr)
        assert scheme_equal(base.run([]), optd.run([]))

    @given(expr=higher_order_exprs())
    @settings(max_examples=30, deadline=None)
    def test_random_higher_order_agrees(self, expr):
        base, optd = _twins(expr)
        assert scheme_equal(base.run([]), optd.run([]))

    @pytest.mark.parametrize("workload", ["mixwell", "lazy"])
    def test_residual_corpus_agrees_on_both_loops(self, workload):
        interp, sig, static, args = {
            "mixwell": (
                mixwell_interpreter(), MIXWELL_SIGNATURE,
                mixwell_tm_program(), [datum_to_value([1, 0, 1])],
            ),
            "lazy": (
                lazy_interpreter(), LAZY_SIGNATURE,
                lazy_primes_program(), [3],
            ),
        }[workload]
        gen = make_generating_extension(interp, sig)
        base = gen.to_object_code([static], optimize=False)
        optd = gen.to_object_code([static], optimize=True)
        assert scheme_equal(base.run(list(args)), optd.run(list(args)))
        assert scheme_equal(
            base.run_profiled(list(args), VMProfile()),
            optd.run_profiled(list(args), VMProfile()),
        )

    @pytest.mark.parametrize("workload", ["mixwell", "lazy"])
    def test_residual_corpus_shrinks(self, workload):
        interp, sig, static = {
            "mixwell": (
                mixwell_interpreter(), MIXWELL_SIGNATURE, mixwell_tm_program()
            ),
            "lazy": (lazy_interpreter(), LAZY_SIGNATURE, lazy_primes_program()),
        }[workload]
        gen = make_generating_extension(interp, sig)
        base = gen.to_object_code([static], optimize=False)
        optd = gen.to_object_code([static], optimize=True)

        def total(rp):
            from repro.vm.machine import VmClosure

            return sum(
                value.template.instruction_count()
                for value in rp.machine.globals.values()
                if isinstance(value, VmClosure)
            )

        assert total(optd) < total(base)


# -- structure ----------------------------------------------------------------


class TestRecursionAndSkips:
    def test_nested_closure_templates_are_optimized(self):
        inner = Template(
            code=(
                (Op.CONST, 0),
                (Op.SETLOC, 0),   # dead store: nothing reads slot 0
                (Op.CONST, 0),
                (Op.RETURN,),
            ),
            literals=(42,), arity=0, nlocals=1, name="inner",
        )
        outer = Template(
            code=((Op.MAKE_CLOSURE, 0, 0), (Op.RETURN,)),
            literals=(inner,), arity=0, nlocals=0, name="outer",
        )
        result = opt.optimize(outer)
        optimized_inner = result.template.literals[0]
        assert isinstance(optimized_inner, Template)
        assert (
            optimized_inner.instruction_count()
            < inner.instruction_count()
        )

    def test_unverifiable_input_is_returned_unchanged(self):
        bad = Template(
            code=((Op.LOCAL, 7), (Op.RETURN,)),  # out-of-range slot
            literals=(), arity=0, nlocals=1, name="bad",
        )
        result = opt.optimize(bad)
        assert result.skipped
        assert result.template is bad
        assert result.passes == {}


class TestTranslationValidation:
    def test_broken_pass_is_rejected(self, monkeypatch):
        # The checker, not the passes, is trusted: a pass that corrupts
        # stack discipline must be caught by the output re-verification.
        # clear_memo first — a stale memoized result would mask the
        # monkeypatch entirely.
        opt.clear_memo()
        t = _main_template("(define (main) (car (cons 1 2)))")

        def broken_rounds(fn):
            for instrs in fn.blocks.values():
                instrs[:] = [i for i in instrs if i[0] != Op.PUSH]
            fn.stats["broken"] += 1

        monkeypatch.setattr(opt, "_optimize_rounds", broken_rounds)
        with pytest.raises(opt.TranslationValidationError):
            opt.optimize(t)
        opt.clear_memo()

    def test_validation_failure_is_not_memoized(self, monkeypatch):
        opt.clear_memo()
        t = _main_template("(define (main) (car (cons 1 2)))")

        def broken_rounds(fn):
            for instrs in fn.blocks.values():
                instrs[:] = [i for i in instrs if i[0] != Op.PUSH]
            fn.stats["broken"] += 1

        monkeypatch.setattr(opt, "_optimize_rounds", broken_rounds)
        with pytest.raises(opt.TranslationValidationError):
            opt.optimize(t)
        monkeypatch.undo()
        result = opt.optimize(t)  # healthy pipeline: must succeed now
        assert not result.skipped
        assert scheme_equal(
            compile_program(
                parse_program("(define (main) (car (cons 1 2)))"),
                compiler="auto", optimize=False,
            ).run([]),
            1,
        )
        opt.clear_memo()
