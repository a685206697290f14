"""Tests for compile_program's two routes: the ANF route (a fold of ANF
syntax into the fused backend) and the stock compiler.  Their agreement
with the interpreter on random programs is ``tests/test_routes.py``'s."""

import pytest

from repro.compiler import (
    CompileError,
    ObjectCodeBackend,
    StockCompiler,
    compile_program,
)
from repro.compiler.program import fold_program
from repro.lang import parse_expr, parse_program
from repro.sexp import sym
from repro.vm import Machine, VmClosure
from tests.routes import ROUTES, Case, outcome


def run_anf_expr(source: str):
    program = parse_program(f"(define (top) {source})")
    return compile_program(program).run([])


def run_stock_expr(source: str):
    template = StockCompiler().compile_procedure((), parse_expr(source), name="top")
    return Machine().call(VmClosure(template, ()), [])


BOTH = pytest.mark.parametrize("run", [run_anf_expr, run_stock_expr], ids=["anf", "stock"])


@BOTH
class TestExpressionCompilation:
    def test_constant(self, run):
        assert run("42") == 42

    def test_arith(self, run):
        assert run("(+ (* 2 3) (- 10 4))") == 12

    def test_if(self, run):
        assert run("(if (< 1 2) 'yes 'no)") is sym("yes")

    def test_if_false_branch(self, run):
        assert run("(if (> 1 2) 'yes 'no)") is sym("no")

    def test_let_chain(self, run):
        assert run("(let ((x 2)) (let ((y (* x x))) (+ x y)))") == 6

    def test_lambda_application(self, run):
        assert run("((lambda (x y) (- x y)) 9 4)") == 5

    def test_closure_capture(self, run):
        assert run("(((lambda (a) (lambda (b) (+ a b))) 3) 4)") == 7

    def test_nested_closure_capture(self, run):
        assert (
            run(
                "((((lambda (a) (lambda (b) (lambda (c) (+ a (+ b c))))) 1) 2) 3)"
            )
            == 6
        )

    def test_quoted_data(self, run):
        assert run("(car (cdr '(1 2 3)))") == 2

    def test_truthiness(self, run):
        assert run("(if 0 1 2)") == 1

    def test_shadowing(self, run):
        assert run("(let ((x 1)) (let ((x 2)) x))") == 2

    def test_primitive_as_value(self, run):
        assert run("(let ((f car)) (f '(9 8)))") == 9


class TestStockOnly:
    """The stock compiler handles non-ANF input directly."""

    def test_nested_calls(self):
        assert run_stock_expr("(+ ((lambda (x) (* x x)) 3) ((lambda (y) y) 5))") == 14

    def test_if_as_argument(self):
        assert run_stock_expr("(* 2 (if (< 1 2) 10 20))") == 20

    def test_serious_test(self):
        assert run_stock_expr("(if ((lambda (x) (< x 5)) 3) 'lo 'hi)") is sym("lo")

    def test_call_inside_argument_keeps_stack(self):
        src = "(+ 1 (+ ((lambda (x) (+ x 1)) 2) 4))"
        assert run_stock_expr(src) == 8

    def test_if_join_point_value_context(self):
        assert run_stock_expr("(let ((x (if (< 1 2) 10 20))) (+ x 1))") == 11


class TestANFCompilerRejectsNonANF:
    def test_nested_call_rejected(self):
        program = parse_program("(define (t) (+ 1 (f 2)))")
        with pytest.raises(CompileError, match="trivial"):
            fold_program(program, ObjectCodeBackend())

    def test_unknown_primitive(self):
        from repro.lang.ast import Def, Prim, Program

        x = sym("x")
        program = Program((Def(x, (), Prim(sym("no-such-prim"), ())),), x)
        for mode in ("auto", "stock"):
            with pytest.raises(CompileError, match="no-such-prim"):
                compile_program(program, compiler=mode)


class TestWholeProgramCompilation:
    FACT = "(define (fact n) (if (= n 0) 1 (* n (fact (- n 1)))))"

    def test_auto_mode_normalizes(self):
        p = parse_program(self.FACT)
        assert compile_program(p, compiler="auto").run([6]) == 720

    def test_stock_mode(self):
        p = parse_program(self.FACT)
        assert compile_program(p, compiler="stock").run([6]) == 720

    def test_unknown_mode(self):
        p = parse_program(self.FACT)
        with pytest.raises(ValueError):
            compile_program(p, compiler="jit")

    def test_mutual_recursion_through_globals(self):
        p = parse_program(
            """
            (define (even? n) (if (zero? n) #t (odd? (- n 1))))
            (define (odd? n) (if (zero? n) #f (even? (- n 1))))
            (define (main n) (even? n))
            """
        )
        for mode in ("auto", "stock"):
            assert compile_program(p, compiler=mode).run([10]) is True

    @pytest.mark.parametrize("main", [
        "(define (main y) (abs y))",
        "(define (main y) (let ((f (lambda (z) (abs z)))) (f y)))",
    ], ids=["direct", "in-closure"])
    def test_definitions_shadow_primitives(self, main):
        # Unlike even?/odd? above, the primitive abs gives a different
        # answer from the program's own.
        case = Case(parse_program(f"(define (abs x) 'mine) {main}"), "D", (-3,))
        routes = ("interp", "compile/auto", "compile/stock")
        assert [outcome(ROUTES[r][1], case) for r in routes] == ["mine"] * 3

    def test_deep_tail_recursion(self):
        p = parse_program("(define (loop n) (if (zero? n) 'done (loop (- n 1))))")
        for mode in ("auto", "stock"):
            assert compile_program(p, compiler=mode).run([300000]) is sym("done")

    def test_instruction_count_positive(self):
        p = parse_program(self.FACT)
        assert compile_program(p).instruction_count() > 5

    def test_reuse_machine(self):
        p = parse_program(self.FACT)
        cp = compile_program(p)
        m = cp.machine()
        assert cp.run([3], machine=m) == 6
        assert cp.run([4], machine=m) == 24
