"""Tests for the annotated compiler (Acts 2-3).

The same compilator definitions, read two ways, must agree:

* annotation erasure (:class:`~repro.compiler.fusion.ErasingBackend`
  folded by :func:`~repro.compiler.program.fold_program`) yields a
  compiler identical to ``compile_program``, which folds the same
  syntax into the printed combinators (template-for-template);
* the derived ``make-residual-...`` combinators build the same fragments
  the compilators build.

Every reading takes its let shapes from the read facts of the fused
backend's handles; :class:`TestReadFactsAgree` checks those facts
against a derivation from ANF syntax written here.  That the derived,
printed and erased readings emit the same code on every pinned input
(``EXPR_CASES``, the expression inputs of the object-code pins,
included) and on random expressions is checked in
``tests/test_readings.py``.
"""

from hypothesis import given, settings

from repro.anf import anf_convert
from repro.anf.convert import anf_convert_program
from repro.compiler import ErasingBackend, ObjectCodeBackend
from repro.compiler.annotated import (
    DepthTracker,
    GenCenv,
    derive_combinator,
    compilator_if,
    make_residual_const,
    make_residual_if,
    make_residual_let,
    make_residual_prim,
    make_residual_return,
    make_residual_tail_call,
    make_residual_variable,
)
from repro.compiler.cenv import CompileTimeEnv
from repro.compiler.program import fold_body
from repro.compiler.reads import (
    EMPTY,
    if_reads,
    lambda_reads,
    let_reads,
    let_shape,
    sequence_reads,
)
from repro.lang import parse_expr, parse_program
from repro.lang.ast import App, If, Lam, Let, Prim, Var
from repro.lang.freevars import free_variables
from repro.lang.prims import PRIMITIVES
from repro.sexp import sym
from repro.vm import Machine, VmClosure, assemble
from tests.strategies import arith_exprs, higher_order_exprs, list_exprs

EXPR_CASES = [
    "42",
    "'(a (b) 3)",
    "(+ 1 2)",
    "(if (< 1 2) 'a 'b)",
    "(let ((x (+ 1 2))) (* x x))",
    "((lambda (x y) (- x y)) 10 3)",
    "(((lambda (a) (lambda (b) (+ a b))) 1) 2)",
    "(let ((f (lambda (x) (* x 2)))) (f (f 5)))",
    "(if (zero? 0) (let ((y 1)) y) 2)",
]


class _Reads:
    """Read facts of one ANF node (see :mod:`repro.compiler.reads`)."""

    def __init__(self, free, head, later, holds=False):
        self.free, self.head, self.later, self.holds = free, head, later, holds


def syntax_reads(node, scope) -> _Reads:
    """The read facts of ``node``, derived from its syntax.

    ``scope`` holds the bound variables; any other name is a global or
    a primitive, which is never captured or held, so it is no read.
    """
    if isinstance(node, Var):
        if node.name in scope:
            return _Reads(frozenset((node.name,)), node.name, EMPTY, True)
        return _Reads(EMPTY, None, EMPTY)
    if isinstance(node, Lam):
        free = frozenset(free_variables(node)) & scope
        return _Reads(free, *lambda_reads(free))
    if isinstance(node, Prim):
        return _Reads(*sequence_reads([syntax_reads(a, scope) for a in node.args]))
    if isinstance(node, App):
        return _Reads(*sequence_reads(
            [syntax_reads(x, scope) for x in (node.fn, *node.args)]
        ))
    if isinstance(node, Let):
        body = syntax_reads(node.body, scope | {node.var})
        shape = let_shape(node.var, body)
        return _Reads(*let_reads(
            node.var, shape, syntax_reads(node.rhs, scope), body
        ))
    if isinstance(node, If):
        return _Reads(*if_reads(*(
            syntax_reads(x, scope) for x in (node.test, node.then, node.alt)
        )))
    return _Reads(EMPTY, None, EMPTY)  # a constant


def _tail_bodies(expr, bound=()):
    """(enclosing binders, body) for the ANF body ``expr`` and every
    let body, branch and lambda body in it."""
    yield bound, expr
    if isinstance(expr, Let):
        yield from _lambda_bodies(expr.rhs, bound)
        yield from _tail_bodies(expr.body, bound + (expr.var,))
    elif isinstance(expr, If):
        yield from _tail_bodies(expr.then, bound)
        yield from _tail_bodies(expr.alt, bound)
    else:
        yield from _lambda_bodies(expr, bound)


def _lambda_bodies(expr, bound):
    if isinstance(expr, Lam):
        yield from _tail_bodies(expr.body, bound + expr.params)
    elif isinstance(expr, App):
        for sub in (expr.fn, *expr.args):
            yield from _lambda_bodies(sub, bound)
    elif isinstance(expr, Prim):
        for sub in expr.args:
            yield from _lambda_bodies(sub, bound)


def assert_same_read_facts(expr, params=()):
    """At every tail body of the ANF ``expr``, the syntax facts equal
    the handles' under the printed and the erasing backends."""
    for bound, body in _tail_bodies(expr, tuple(params)):
        facts = syntax_reads(body, frozenset(bound))
        for backend_class in (ObjectCodeBackend, ErasingBackend):
            handle = fold_body(backend_class(), bound, body)
            assert (handle.free, handle.head, handle.later) == (
                facts.free, facts.head, facts.later
            ), (backend_class.__name__, body)


class TestReadFactsAgree:
    """Syntax read facts equal the fused handles' (a global reference
    is a read to neither)."""

    def test_cases(self):
        for source in EXPR_CASES:
            assert_same_read_facts(anf_convert(parse_expr(source)))
        # A closure that names a global sorting before its one captured
        # let variable.
        program = anf_convert_program(parse_program(
            "(define (g x) (+ x 1))"
            " (define (t y0) (let ((y (car y0))) ((lambda () (g y)))))"
        ))
        for d in program.defs:
            assert_same_read_facts(d.body, d.params)

    @given(arith_exprs(depth=4))
    @settings(max_examples=50)
    def test_random_arith(self, source):
        assert_same_read_facts(anf_convert(parse_expr(source)))

    @given(higher_order_exprs(depth=4))
    @settings(max_examples=50)
    def test_random_higher_order(self, source):
        assert_same_read_facts(anf_convert(parse_expr(source)))

    @given(list_exprs(depth=3))
    @settings(max_examples=30)
    def test_random_lists(self, source):
        assert_same_read_facts(anf_convert(parse_expr(source)))


def _ctx(params=()):
    env = CompileTimeEnv.for_procedure(tuple(params))
    tracker = DepthTracker(len(params))
    return GenCenv(env, tracker), len(params)


class TestCombinators:
    def run_body(self, emit, params=(), args=()):
        cenv, depth = _ctx(params)
        fragment = emit(cenv, depth)
        template = assemble(fragment, len(params), cenv.tracker.max_depth, "t")
        return Machine().call(VmClosure(template, ()), list(args))

    def test_const_return(self):
        emit = make_residual_return(make_residual_const(7))
        assert self.run_body(emit) == 7

    def test_variable(self):
        x = sym("x")
        emit = make_residual_return(make_residual_variable(x))
        assert self.run_body(emit, params=(x,), args=[99]) == 99

    def test_prim(self):
        spec = PRIMITIVES[sym("+")]
        emit = make_residual_return(
            make_residual_prim(
                spec, (make_residual_const(2), make_residual_const(3))
            )
        )
        assert self.run_body(emit) == 5

    def test_let_allocates_slot(self):
        x = sym("t")
        spec = PRIMITIVES[sym("*")]
        rhs = make_residual_prim(
            spec, (make_residual_const(6), make_residual_const(7))
        )
        body = make_residual_return(make_residual_variable(x))
        emit = make_residual_let(x, rhs, body)
        assert self.run_body(emit) == 42

    def test_if_shares_one_label_per_invocation(self):
        # The _let annotation: the label made by make-label must be the
        # same label at both use sites, and fresh across invocations.
        emit = make_residual_if(
            make_residual_const(False),
            make_residual_return(make_residual_const(1)),
            make_residual_return(make_residual_const(2)),
        )
        assert self.run_body(emit) == 2
        assert self.run_body(emit) == 2  # second invocation: fresh label

    def test_tail_call_emits_tail_call_op(self):
        from repro.vm import Op

        f = sym("f")
        emit = make_residual_tail_call(
            make_residual_variable(f), (make_residual_const(1),)
        )
        cenv, depth = _ctx()
        fragment = emit(cenv, depth)
        template = assemble(fragment, 0, 0, "t")
        ops = [instr[0] for instr in template.code]
        assert Op.TAIL_CALL in ops
        assert Op.CALL not in ops

    def test_derive_combinator_arity_check(self):
        import pytest

        combo = derive_combinator(compilator_if, (), ("test", "then", "alt"))
        with pytest.raises(TypeError):
            combo("only-one")

    def test_combinator_reuse_is_independent(self):
        # One combinator application used at two different depths emits
        # depth-correct code each time.
        x = sym("v")
        spec = PRIMITIVES[sym("+")]
        rhs = make_residual_prim(
            spec, (make_residual_const(1), make_residual_const(2))
        )
        body = make_residual_return(make_residual_variable(x))
        emit = make_residual_let(x, rhs, body)
        cenv1, d1 = _ctx()
        frag1 = emit(cenv1, d1)
        y = sym("y")
        cenv2, d2 = _ctx(params=(y,))
        frag2 = emit(cenv2, d2)
        t1 = assemble(frag1, 0, cenv1.tracker.max_depth, "a")
        t2 = assemble(frag2, 1, cenv2.tracker.max_depth, "b")
        from repro.vm import Op

        # The SETLOC slots differ with the starting depth.
        slot1 = [i[1] for i in t1.code if i[0] == Op.SETLOC][0]
        slot2 = [i[1] for i in t2.code if i[0] == Op.SETLOC][0]
        assert slot1 == 0
        assert slot2 == 1
