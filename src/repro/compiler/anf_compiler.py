"""Act 1: the recursive-descent compiler for programs in A-normal form.

"ANF, as shown in Fig. 2, already makes control flow explicit.  Only those
function applications wrapped in a let are non-tail calls; all others are
jumps.  Hence, the propagation of a compile-time continuation is
unnecessary, and it is sensible to make do with a drastically cut-down
version of the compiler." (§6.1)

Each syntactic construct has a *compilator* that receives the node, the
compile-time environment, and the current stack depth (the next free local
slot), and produces an abstract code fragment using the constructors of
:mod:`repro.vm.fragments`.

Code is built in execution order, and the tracker follows what the
``val`` register holds: a read of a value already there compiles to
nothing, and each ``let`` takes the shape its body's reads call for
(:mod:`repro.compiler.reads`) — so the output is what the bytecode
optimizer would leave of the naive code (DESIGN §1 item 7).
"""

from __future__ import annotations

from repro.anf.grammar import check_anf
from repro.lang.ast import App, Const, Def, Expr, If, Lam, Let, Prim, Var
from repro.lang.freevars import free_variables
from repro.lang.prims import PRIMITIVES
from repro.compiler.cenv import Closed, CompileTimeEnv, Held, Local
from repro.compiler.reads import HELD, STORED, ReadFacts, let_shape
from repro.runtime.errors import SchemeError
from repro.runtime.values import constant_key, datum_to_value
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


class CompileError(SchemeError):
    """A program could not be compiled."""


class _DepthTracker:
    """Records the deepest local slot a template body needs, and what the
    ``val`` register holds at the emission point (a slot number, a
    :class:`Held` location, a constant key, or ``None``)."""

    __slots__ = ("max_depth", "val")

    def __init__(self, initial: int):
        self.max_depth = initial
        self.val = None

    def reach(self, depth: int) -> None:
        if depth > self.max_depth:
            self.max_depth = depth


class ANFCompiler:
    """Compiles ANF expressions to templates.

    ``globals_`` names the program's top-level definitions: they shadow
    primitives, so a program-defined ``odd?`` compiles to a global
    reference rather than the primitive.
    """

    def __init__(self, check: bool = True, globals_: frozenset = frozenset()):
        self.check = check
        self.globals_ = globals_
        self.reads = ReadFacts()

    # -- entry points --------------------------------------------------------

    def compile_procedure(
        self,
        params: tuple[Symbol, ...],
        body: Expr,
        free: tuple[Symbol, ...] = (),
        name: str = "anonymous",
    ) -> Template:
        """Compile a procedure body to a template."""
        if self.check:
            check_anf(body)
        cenv = CompileTimeEnv.for_procedure(params, free)
        tracker = _DepthTracker(len(params))
        fragment = self.compile(body, cenv, len(params), tracker)
        return assemble(fragment, len(params), tracker.max_depth, name)

    # -- serious expressions (tail position) -----------------------------------

    def compile(
        self,
        expr: Expr,
        cenv: CompileTimeEnv,
        depth: int,
        tracker: _DepthTracker,
    ) -> Fragment:
        """Compile a serious expression in tail position."""
        tracker.reach(depth)
        if isinstance(expr, Let):
            return self._compilator_let(expr, cenv, depth, tracker)
        if isinstance(expr, If):
            return self._compilator_if(expr, cenv, depth, tracker)
        if isinstance(expr, App):
            return self._compilator_tail_call(expr, cenv, depth, tracker)
        if isinstance(expr, Prim):
            return sequentially(
                self._compile_prim_args(expr, cenv, depth, tracker),
                instruction(Op.RETURN),
            )
        # Trivial expression in tail position: load and return.
        return sequentially(
            self.compile_trivial(expr, cenv, depth, tracker),
            instruction(Op.RETURN),
        )

    def _compilator_if(
        self, expr: If, cenv: CompileTimeEnv, depth: int, tracker: _DepthTracker
    ) -> Fragment:
        alt_label = make_label("else")
        test = self.compile_trivial(expr.test, cenv, depth, tracker)
        at_branch = tracker.val
        then = self.compile(expr.then, cenv, depth, tracker)
        tracker.val = at_branch
        return sequentially(
            test,
            instruction_using_label(Op.JUMP_IF_FALSE, alt_label),
            then,
            attach_label(alt_label, self.compile(expr.alt, cenv, depth, tracker)),
        )

    def _compilator_let(
        self, expr: Let, cenv: CompileTimeEnv, depth: int, tracker: _DepthTracker
    ) -> Fragment:
        rhs = expr.rhs
        if isinstance(rhs, App):
            binding = sequentially(
                self._push_operator_and_args(rhs, cenv, depth, tracker),
                instruction(Op.CALL, len(rhs.args)),
            )
            tracker.val = None
        elif isinstance(rhs, Prim):
            binding = self._compile_prim_args(rhs, cenv, depth, tracker)
        else:
            binding = self.compile_trivial(rhs, cenv, depth, tracker)
        shape = let_shape(expr.var, self.reads.of(expr.body))
        if shape is STORED:
            tracker.reach(depth + 1)
            tracker.val = depth
            return sequentially(
                binding,
                instruction(Op.SETLOC, depth),
                self.compile(
                    expr.body, cenv.bind_local(expr.var, depth), depth + 1,
                    tracker,
                ),
            )
        if shape is HELD:
            held = Held()
            tracker.val = held
            cenv = cenv.bind(expr.var, held)
        return sequentially(
            binding, self.compile(expr.body, cenv, depth, tracker)
        )

    def _compilator_tail_call(
        self, expr: App, cenv: CompileTimeEnv, depth: int, tracker: _DepthTracker
    ) -> Fragment:
        return sequentially(
            self._push_operator_and_args(expr, cenv, depth, tracker),
            instruction(Op.TAIL_CALL, len(expr.args)),
        )

    def _push_operator_and_args(
        self, expr: App, cenv: CompileTimeEnv, depth: int, tracker: _DepthTracker
    ) -> Fragment:
        parts = [
            self.compile_trivial(expr.fn, cenv, depth, tracker),
            instruction(Op.PUSH),
        ]
        for arg in expr.args:
            parts.append(self.compile_trivial(arg, cenv, depth, tracker))
            parts.append(instruction(Op.PUSH))
        return sequentially(*parts)

    def _compile_prim_args(
        self, expr: Prim, cenv: CompileTimeEnv, depth: int, tracker: _DepthTracker
    ) -> Fragment:
        spec = PRIMITIVES.get(expr.op)
        if spec is None:
            raise CompileError(f"unknown primitive {expr.op}")
        parts = []
        for arg in expr.args:
            parts.append(self.compile_trivial(arg, cenv, depth, tracker))
            parts.append(instruction(Op.PUSH))
        parts.append(instruction(Op.PRIM, Lit(spec), len(expr.args)))
        tracker.val = None
        return sequentially(*parts)

    # -- trivial expressions ----------------------------------------------------

    def compile_trivial(
        self,
        expr: Expr,
        cenv: CompileTimeEnv,
        depth: int,
        tracker: _DepthTracker,
    ) -> Fragment:
        """Compile a trivial expression (V); leaves its value in ``val``."""
        if isinstance(expr, Const):
            value = datum_to_value(expr.value)
            key = constant_key(value)
            if key is not None and tracker.val == key:
                return EMPTY
            tracker.val = key
            return instruction(Op.CONST, Lit(value))
        if isinstance(expr, Var):
            return self._compile_variable(expr.name, cenv, tracker)
        if isinstance(expr, Lam):
            return self._compilator_lambda(expr, cenv, depth, tracker)
        raise CompileError(
            f"expected a trivial expression, got {type(expr).__name__}"
        )

    def _compile_variable(
        self, name: Symbol, cenv: CompileTimeEnv, tracker: _DepthTracker
    ) -> Fragment:
        location = cenv.lookup(name)
        if isinstance(location, Local):
            if tracker.val == location.index:
                return EMPTY
            tracker.val = location.index
            return instruction(Op.LOCAL, location.index)
        if isinstance(location, Held):
            if tracker.val is not location:
                raise CompileError(f"{name}: held value no longer in val")
            return EMPTY
        tracker.val = None
        if isinstance(location, Closed):
            return instruction(Op.CLOSED, location.index)
        # Global: a top-level procedure, or a primitive used as a value.
        if name not in self.globals_:
            spec = PRIMITIVES.get(name)
            if spec is not None:
                return instruction(Op.CONST, Lit(spec))
        return instruction(Op.GLOBAL, Lit(name))

    def _compilator_lambda(
        self, expr: Lam, cenv: CompileTimeEnv, depth: int, tracker: _DepthTracker
    ) -> Fragment:
        # Free variables that are bound in the enclosing frame or closure
        # are captured; everything else stays a global reference.
        captured = tuple(
            sorted(
                (
                    v
                    for v in free_variables(expr)
                    if cenv.is_bound_locally(v)
                ),
                key=lambda s: s.name,
            )
        )
        template = self.compile_procedure(
            expr.params, expr.body, free=captured, name="lambda"
        )
        parts = []
        for v in captured:
            parts.append(self._compile_variable(v, cenv, tracker))
            parts.append(instruction(Op.PUSH))
        parts.append(instruction(Op.MAKE_CLOSURE, Lit(template), len(captured)))
        tracker.val = None
        return sequentially(*parts)


def compile_anf_expr(
    expr: Expr, name: str = "toplevel", check: bool = True
) -> Template:
    """Compile a closed ANF expression to a zero-argument template."""
    return ANFCompiler(check=check).compile_procedure((), expr, name=name)


def compile_anf_def(d: Def, check: bool = True) -> Template:
    """Compile one top-level definition to a template."""
    return ANFCompiler(check=check).compile_procedure(
        d.params, d.body, name=d.name.name
    )
