"""Whole-program compilation: programs → a loaded VM global environment."""

from __future__ import annotations

from typing import Any, Sequence

from repro.anf.convert import anf_convert_program
from repro.anf.grammar import is_anf_program
from repro.compiler.annotated import CompileError
from repro.compiler.fusion import ObjectCodeBackend
from repro.compiler.stock import StockCompiler
from repro.lang.ast import App, Const, Expr, If, Lam, Let, Prim, Program, Var
from repro.runtime.values import datum_to_value
from repro.sexp.datum import Symbol
from repro.vm.machine import Machine, VmClosure
from repro.vm.template import Template
from repro.vm.verify import verify_template


class CompiledProgram:
    """A program compiled to templates, ready to run on a :class:`Machine`."""

    def __init__(self, templates: dict[Symbol, Template], goal: Symbol):
        self.templates = templates
        self.goal = goal

    def machine(self) -> Machine:
        """A fresh machine with every definition loaded."""
        m = Machine()
        for name, template in self.templates.items():
            m.define(name, VmClosure(template, ()))
        return m

    def run(self, args: Sequence[Any], machine: Machine | None = None) -> Any:
        m = machine or self.machine()
        return m.call_named(self.goal, args)

    def instruction_count(self) -> int:
        return sum(t.instruction_count() for t in self.templates.values())


class _ANFFold:
    """Folds ANF syntax into a backend's residual-code constructors.

    Which constructor a node becomes depends on its position — tail,
    a let's right-hand side, or trivial — and, for a variable, on
    whether an enclosing binder binds it (``var``) or it names a global
    (``global_ref``).
    """

    def __init__(self, backend: Any):
        self.backend = backend
        self.bound: set[Symbol] = set()

    def scoped(self, names: Sequence[Symbol], body: Expr) -> Any:
        fresh = [name for name in names if name not in self.bound]
        self.bound.update(fresh)
        code = self.tail(body)
        self.bound.difference_update(fresh)
        return code

    def tail(self, expr: Expr) -> Any:
        be = self.backend
        if isinstance(expr, Let):
            rhs = self.serious(expr.rhs)
            return be.let(expr.var, rhs, self.scoped((expr.var,), expr.body))
        if isinstance(expr, If):
            return be.if_(
                self.trivial(expr.test), self.tail(expr.then),
                self.tail(expr.alt),
            )
        if isinstance(expr, (App, Prim)):
            return be.tail(self.serious(expr))
        return be.ret(self.trivial(expr))

    def serious(self, expr: Expr) -> Any:
        if isinstance(expr, App):
            return self.backend.call(
                self.trivial(expr.fn), [self.trivial(a) for a in expr.args]
            )
        if isinstance(expr, Prim):
            return self.backend.prim(
                expr.op, [self.trivial(a) for a in expr.args]
            )
        return self.trivial(expr)

    def trivial(self, expr: Expr) -> Any:
        be = self.backend
        if isinstance(expr, Const):
            return be.const(datum_to_value(expr.value))
        if isinstance(expr, Var):
            if expr.name in self.bound:
                return be.var(expr.name)
            return be.global_ref(expr.name)
        if isinstance(expr, Lam):
            return be.lam(expr.params, self.scoped(expr.params, expr.body))
        raise CompileError(
            f"expected a trivial expression, got {type(expr).__name__}"
        )


def fold_body(backend: Any, params: Sequence[Symbol], body: Expr) -> Any:
    """``backend``'s tail code for the ANF ``body`` of a procedure over
    ``params``; non-ANF syntax raises :class:`CompileError`."""
    return _ANFFold(backend).scoped(params, body)


def fold_program(program: Program, backend: Any) -> None:
    """Define each of the ANF ``program``'s definitions in ``backend``,
    whose environment is rooted at the program's names: they shadow
    primitives of the same name."""
    backend.program = frozenset(d.name for d in program.defs)
    for d in program.defs:
        backend.define(d.name, d.params, fold_body(backend, d.params, d.body))


def compile_program(
    program: Program,
    compiler: str = "auto",
) -> CompiledProgram:
    """Compile every definition of ``program``.

    ``compiler`` selects the route:

    * ``"auto"``  — normalize to ANF unless the program already is, then
      fold the ANF syntax into the fused backend
      (:class:`~repro.compiler.fusion.ObjectCodeBackend`): the printed
      combinators RTCG runs decide this route's object code too, so
      compiling a residual source gives the templates direct generation
      gives;
    * ``"stock"`` — the stock compiler (any CS program).

    Every emitted template goes through the bytecode verifier
    (:mod:`repro.vm.verify`) — on the ANF route as the backend defines
    it — so a compiler bug is rejected here with a
    :class:`~repro.vm.verify.VerificationError` instead of crashing the
    machine mid-run.  No optimizer runs here: the combinators emit no
    dead store, reload or unused slot to remove (DESIGN §1 item 7).
    """
    if compiler not in ("auto", "stock"):
        raise ValueError(f"unknown compiler {compiler!r}")
    from repro.lang.assignment import eliminate_assignments, has_assignments

    if any(has_assignments(d.body) for d in program.defs):
        program = eliminate_assignments(program)
    if compiler == "stock":
        program_names = frozenset(d.name for d in program.defs)
        stock = StockCompiler()
        templates = {
            d.name: stock.compile_procedure(
                d.params, d.body, name=d.name.name, program=program_names
            )
            for d in program.defs
        }
        for template in templates.values():
            verify_template(template)
        return CompiledProgram(templates, program.goal)
    if not is_anf_program(program):
        program = anf_convert_program(program)
    backend = ObjectCodeBackend()
    fold_program(program, backend)
    return CompiledProgram(backend.templates, program.goal)
