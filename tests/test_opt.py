"""Tests for the dataflow bytecode optimizer (:mod:`repro.vm.opt`).

Four pillars:

* **idempotence** — a second optimization pass is a no-op (property
  test over random programs);
* **determinism** — same input, same output;
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

from repro.__main__ import _builtin_run_args, _builtin_targets
from repro.compiler.program import CompiledProgram, compile_program
from repro.lang.parser import parse_program
from repro.lang.prims import write_value
from repro.pe.backend import ResidualProgram
from repro.rtcg import GeneratingExtension, make_generating_extension
from repro.runtime.values import scheme_equal
from repro.sexp.datum import sym
from repro.vm import opt
from repro.vm.instructions import Op
from repro.vm.machine import VmClosure
from repro.vm.profile import VMProfile, call_named_profiled
from repro.vm.template import Template
from repro.vm.verify import check_template
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
    compiled = compile_program(program, compiler="auto")
    return compiled.templates[sym("main")]


def _optimized(templates: dict) -> dict:
    return {name: opt.optimize(t).template for name, t in templates.items()}


def _twins(expr: str):
    """Unoptimized/optimized compilations of ``(define (main) expr)``."""
    program = parse_program(f"(define (main) {expr})")
    base = compile_program(program, compiler="auto")
    return base, CompiledProgram(_optimized(base.templates), base.goal)


def _residual_templates(rp: ResidualProgram) -> dict:
    return {
        name: value.template
        for name, value in rp.machine.globals.items()
        if isinstance(value, VmClosure)
    }


def _residual_twin(rp: ResidualProgram) -> ResidualProgram:
    """``rp`` with every residual template optimized."""
    twin = CompiledProgram(_optimized(_residual_templates(rp)), rp.goal)
    return ResidualProgram(
        goal=rp.goal, goal_params=rp.goal_params, machine=twin.machine()
    )


def _builtin_residual(label: str) -> tuple[ResidualProgram, list]:
    """A ``--builtin all`` target's residual at its sample statics, and
    its sample dynamic arguments."""
    ((_, program, sig, goal),) = [
        target for target in _builtin_targets("all") if target[0] == label
    ]
    statics, dynamics = _builtin_run_args(label)
    gen = GeneratingExtension(program, sig, goal=goal)
    return gen.to_object_code(statics), dynamics


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
        first = opt.optimize(t)
        second = opt.optimize(t)
        assert first.template == second.template
        assert first.passes == second.passes

    def test_reencoding_keeps_equal_literals_of_distinct_kinds_apart(self):
        # ``1``, ``#t`` and ``1.0`` are equal as Python values; the
        # literal pool rebuilt after the passes fire must keep them apart.
        program = parse_program(
            "(define (main) (let ((x 1)) (let ((y x)) (list y #t 1.0))))"
        )
        base = compile_program(program, compiler="stock")
        result = opt.optimize(base.templates[sym("main")])
        assert result.removed > 0
        optd = CompiledProgram({sym("main"): result.template}, sym("main"))
        assert write_value(optd.run([])) == "(1 #t 1.0)"


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

    @pytest.mark.parametrize(
        "label",
        [target[0] for target in _builtin_targets("all")],
        ids=lambda label: label.rsplit(":", 1)[-1].lower(),
    )
    def test_residual_corpus_agrees_on_both_loops(self, label):
        base, args = _builtin_residual(label)
        optd = _residual_twin(base)
        for template in _residual_templates(optd).values():
            assert check_template(template).ok, template.name
        assert scheme_equal(base.run(list(args)), optd.run(list(args)))
        assert scheme_equal(
            base.run_profiled(list(args), VMProfile()),
            optd.run_profiled(list(args), VMProfile()),
        )

    @pytest.mark.parametrize("workload", ["mixwell", "lazy"])
    def test_residual_corpus_is_the_optimizers_fixpoint(self, workload):
        """The compilators emit what the optimizer keeps: on the §7
        residuals it removes nothing, and no slot pass fires."""
        interp, sig, static = {
            "mixwell": (
                mixwell_interpreter(), MIXWELL_SIGNATURE, mixwell_tm_program()
            ),
            "lazy": (lazy_interpreter(), LAZY_SIGNATURE, lazy_primes_program()),
        }[workload]
        gen = make_generating_extension(interp, sig)
        base = gen.to_object_code([static])
        for template in _residual_templates(base).values():
            result = opt.optimize(template)
            assert result.removed == 0, (template.name, result.passes)
            passes = result.passes
            assert not any(
                passes.get(name)
                for name in ("copy_prop", "dead_store", "locals_compaction")
            ), (template.name, passes)


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

    def test_template_no_pass_rewrites_comes_back_as_is(self, monkeypatch):
        # The input is verified once; an output that is the input needs
        # no second check.
        t = _main_template("(define (main a) (if (< a 0) (- a) (car a)))")
        checks = []
        check = opt.check_template
        monkeypatch.setattr(
            opt, "check_template", lambda t: checks.append(t) or check(t)
        )
        result = opt.optimize(t)
        assert result.template is t
        assert result.passes == {}
        assert result.before_instructions == result.after_instructions
        assert result.after_instructions == t.instruction_count()
        assert checks == [t]

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
        t = _main_template("(define (main) (car (cons 1 2)))")

        def broken_rounds(fn):
            for instrs in fn.blocks.values():
                instrs[:] = [i for i in instrs if i[0] != Op.PUSH]
            fn.stats["broken"] += 1

        monkeypatch.setattr(opt, "_optimize_rounds", broken_rounds)
        with pytest.raises(opt.TranslationValidationError):
            opt.optimize(t)

    def test_validation_failure_leaves_no_state(self, monkeypatch):
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
            CompiledProgram({sym("main"): result.template}, sym("main")).run([]),
            1,
        )
