"""The "stock compiler": full Core Scheme, compile-time continuations.

The stand-in for the stock Scheme 48 byte-code compiler, "which passes a
compile-time continuation to identify tail-calls" (§6.1).  Unlike the ANF
compiler it accepts *arbitrary* CS — nested serious subexpressions are
evaluated through the operand stack — at the cost of threading a
compile-time continuation through every compilation step.

The compile-time continuation is one of:

* ``RETURN`` — the expression is in tail position;
* ``VALUE``  — leave the result in ``val`` and fall through;
* ``PUSH``   — leave the result on the operand stack.

Used as the Fig. 8 "Compile" baseline (compiling an interpreter the
ordinary way) and in the A1 ablation against the ANF route of
:func:`~repro.compiler.program.compile_program`.
"""

from __future__ import annotations

from enum import Enum

from repro.compiler.annotated import CompileError, DepthTracker
from repro.compiler.cenv import Closed, CompileTimeEnv, Local
from repro.lang.ast import App, Const, Expr, If, Lam, Let, Prim, Var
from repro.lang.freevars import free_variables
from repro.lang.prims import PRIMITIVES
from repro.runtime.values import datum_to_value
from repro.sexp.datum import Symbol
from repro.vm.assembler import assemble
from repro.vm.fragments import (
    EMPTY,
    Fragment,
    Lit,
    attach_label,
    instruction,
    instruction_using_label,
    make_label,
    sequentially,
)
from repro.vm.instructions import Op
from repro.vm.template import Template


class Cont(Enum):
    """The compile-time continuation."""

    RETURN = "return"
    VALUE = "value"
    PUSH = "push"


class StockCompiler:
    """A one-pass compiler for full CS threading a compile-time continuation.

    ``program`` of :meth:`compile_procedure` names the top-level
    definitions, which shadow primitives (see
    :class:`~repro.compiler.cenv.CompileTimeEnv`).
    """

    def compile_procedure(
        self,
        params: tuple[Symbol, ...],
        body: Expr,
        free: tuple[Symbol, ...] = (),
        name: str = "anonymous",
        program: frozenset = frozenset(),
    ) -> Template:
        cenv = CompileTimeEnv.for_procedure(params, free, program)
        return self._template(cenv, len(params), body, name)

    def _template(
        self, cenv: CompileTimeEnv, nparams: int, body: Expr, name: str
    ) -> Template:
        tracker = DepthTracker(nparams)
        fragment = self.compile(body, cenv, nparams, Cont.RETURN, tracker)
        return assemble(fragment, nparams, tracker.max_depth, name)

    def compile(
        self,
        expr: Expr,
        cenv: CompileTimeEnv,
        depth: int,
        cont: Cont,
        tracker: DepthTracker,
    ) -> Fragment:
        tracker.reach(depth)
        if isinstance(expr, Const):
            return self._finish(
                instruction(Op.CONST, Lit(datum_to_value(expr.value))), cont
            )
        if isinstance(expr, Var):
            return self._finish(self._variable(expr.name, cenv), cont)
        if isinstance(expr, Lam):
            return self._finish(self._lambda(expr, cenv, tracker), cont)
        if isinstance(expr, Let):
            rhs = self.compile(expr.rhs, cenv, depth, Cont.VALUE, tracker)
            inner = cenv.bind_local(expr.var, depth)
            return sequentially(
                rhs,
                instruction(Op.SETLOC, depth),
                self.compile(expr.body, inner, depth + 1, cont, tracker),
            )
        if isinstance(expr, If):
            return self._conditional(expr, cenv, depth, cont, tracker)
        if isinstance(expr, Prim):
            spec = PRIMITIVES.get(expr.op)
            if spec is None:
                raise CompileError(f"unknown primitive {expr.op}")
            parts = [
                self.compile(arg, cenv, depth, Cont.PUSH, tracker)
                for arg in expr.args
            ]
            parts.append(instruction(Op.PRIM, Lit(spec), len(expr.args)))
            return self._finish(sequentially(*parts), cont)
        if isinstance(expr, App):
            parts = [self.compile(expr.fn, cenv, depth, Cont.PUSH, tracker)]
            for arg in expr.args:
                parts.append(self.compile(arg, cenv, depth, Cont.PUSH, tracker))
            if cont is Cont.RETURN:
                parts.append(instruction(Op.TAIL_CALL, len(expr.args)))
                return sequentially(*parts)
            parts.append(instruction(Op.CALL, len(expr.args)))
            if cont is Cont.PUSH:
                parts.append(instruction(Op.PUSH))
            return sequentially(*parts)
        raise CompileError(f"cannot compile {type(expr).__name__}")

    # -- helpers ----------------------------------------------------------------

    def _finish(self, fragment: Fragment, cont: Cont) -> Fragment:
        """Complete a value-producing fragment according to ``cont``."""
        if cont is Cont.RETURN:
            return sequentially(fragment, instruction(Op.RETURN))
        if cont is Cont.PUSH:
            return sequentially(fragment, instruction(Op.PUSH))
        return fragment

    def _conditional(
        self,
        expr: If,
        cenv: CompileTimeEnv,
        depth: int,
        cont: Cont,
        tracker: DepthTracker,
    ) -> Fragment:
        alt_label = make_label("else")
        test = self.compile(expr.test, cenv, depth, Cont.VALUE, tracker)
        then = self.compile(expr.then, cenv, depth, cont, tracker)
        alt = self.compile(expr.alt, cenv, depth, cont, tracker)
        if cont is Cont.RETURN:
            # Both arms leave the procedure; no join point is needed.
            return sequentially(
                test,
                instruction_using_label(Op.JUMP_IF_FALSE, alt_label),
                then,
                attach_label(alt_label, alt),
            )
        end_label = make_label("endif")
        return sequentially(
            test,
            instruction_using_label(Op.JUMP_IF_FALSE, alt_label),
            then,
            instruction_using_label(Op.JUMP, end_label),
            attach_label(alt_label, alt),
            # The label lands on whatever instruction follows this fragment
            # in the enclosing sequence (a VALUE/PUSH context never ends a
            # procedure, so an instruction always follows).
            attach_label(end_label, EMPTY),
        )

    def _variable(self, name: Symbol, cenv: CompileTimeEnv) -> Fragment:
        location = cenv.lookup(name)
        if isinstance(location, Local):
            return instruction(Op.LOCAL, location.index)
        if isinstance(location, Closed):
            return instruction(Op.CLOSED, location.index)
        if name not in cenv.program:
            spec = PRIMITIVES.get(name)
            if spec is not None:
                return instruction(Op.CONST, Lit(spec))
        return instruction(Op.GLOBAL, Lit(name))

    def _lambda(
        self, expr: Lam, cenv: CompileTimeEnv, tracker: DepthTracker
    ) -> Fragment:
        captured = tuple(
            sorted(
                (v for v in free_variables(expr) if cenv.is_bound_locally(v)),
                key=lambda s: s.name,
            )
        )
        template = self._template(
            cenv.procedure(expr.params, captured), len(expr.params),
            expr.body, "lambda",
        )
        parts = []
        for v in captured:
            parts.append(self._variable(v, cenv))
            parts.append(instruction(Op.PUSH))
        parts.append(instruction(Op.MAKE_CLOSURE, Lit(template), len(captured)))
        return sequentially(*parts)
