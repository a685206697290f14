"""The continuation-based specializer (Fig. 3) with memoization.

The engine implements the specializer of Fig. 3: a continuation-passing
traversal of Annotated Core Scheme in which every *serious* piece of
residual code (a dynamic primitive or application) is wrapped in a ``let``
with a fresh variable — so residual programs are in A-normal form by
construction.

Beyond Fig. 3 (which the paper elides as "standard" [30, 60]):

* **Memoization** — :class:`~repro.pe.annprog.AnnDef`\\ s marked
  ``residual`` are specialization points.  A call is looked up in a memo
  table keyed by (function, static argument values); a hit reuses the
  specialized name, a miss schedules a new residual definition.
* **Tail positions** — when the continuation is the function-body return
  continuation, serious code is emitted in tail position instead of
  let-wrapped, preserving ANF's tail-call forms (the VM relies on them).
* **Static subterms in direct style** — continuations are needed only
  where let-insertion can happen.  Subterms that can emit no code (the
  annotated program's static-subterm table) are evaluated directly by
  ``_eval``.

The engine is parameterized over the residual-code constructors
(:class:`~repro.pe.backend.Backend`): handing it the source backend gives a
classical partial evaluator; handing it the fused object-code backend gives
the paper's run-time code generator.  The engine itself cannot tell the
difference — that is the point.

What a run *does* — memoization, budgets, let-insertion, lifting, static
application and dynamic conditionals — is :class:`~repro.pe.runstate.RunState`,
shared with the compiled generating extensions (:mod:`repro.pe.cogen`),
which production runs.  This engine interprets the annotations on every
run; it is kept as the A3 baseline and as an independent route for the
tests.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.lang.ast import (
    App,
    Const,
    DApp,
    DIf,
    DLam,
    DPrim,
    Expr,
    If,
    Lam,
    Let,
    Lift,
    MemoCall,
    Prim,
    Var,
)
from repro.lang.prims import PRIMITIVES
from repro.pe.annprog import AnnDef, AnnotatedProgram
from repro.pe.backend import Backend, ResidualProgram, SourceBackend
from repro.pe.errors import SpecializationError
from repro.pe.runstate import (
    Cont,
    RunState,
    Value,
    apply_prim,
    prim_spec,
    static_truth,
)
from repro.pe.values import Dynamic, SpecClosure, Static
from repro.interp import PrimProcedure
from repro.runtime.values import datum_to_value
from repro.sexp.datum import Symbol


class Specializer(RunState):
    """One specialization run over an annotated program, interpreting
    its annotations (the run state and staged actions are
    :class:`~repro.pe.runstate.RunState`'s)."""

    def __init__(
        self,
        annotated: AnnotatedProgram,
        backend: Backend | None = None,
        max_residual_defs: int = 10_000,
        dif_strategy: str = "duplicate",
        max_unfold_depth: int = 5_000,
        max_residual_size: int = 1_000_000,
    ):
        super().__init__(
            annotated,
            backend if backend is not None else SourceBackend(),
            max_residual_defs=max_residual_defs,
            dif_strategy=dif_strategy,
            max_unfold_depth=max_unfold_depth,
            max_residual_size=max_residual_size,
        )
        self._static = annotated.static

    def def_body(self, d: AnnDef) -> Expr:
        return d.body

    # -- the specializer proper -------------------------------------------------------

    def spec(self, expr: Expr, env: dict[Symbol, Value], k: Cont) -> Any:
        """Specialize ``expr`` under ``env``, continuing with ``k``.

        A static subterm (see :func:`~repro.pe.annprog.static_subterms`)
        emits no code, so it is evaluated in direct style; continuation
        passing is kept for the constructs around which let-insertion
        can happen.
        """
        static = self._static
        if id(expr) in static:
            return k(self._eval(expr, env))

        if isinstance(expr, Lift):
            if id(expr.expr) in static:
                return k(Dynamic(self.lift(self._eval(expr.expr, env))))
            return self.spec(
                expr.expr,
                env,
                lambda v: k(Dynamic(self.lift(v))),
            )

        if isinstance(expr, Let):
            if id(expr.rhs) in static:
                rhs = self._eval(expr.rhs, env)
                return self.spec(expr.body, {**env, expr.var: rhs}, k)
            return self.spec(
                expr.rhs,
                env,
                lambda v: self.spec(expr.body, {**env, expr.var: v}, k),
            )

        if isinstance(expr, If):
            if id(expr.test) in static:
                chosen = self._choose(expr, self._eval(expr.test, env))
                return self.spec(chosen, env, k)
            return self.spec(
                expr.test,
                env,
                lambda v: self.spec(self._choose(expr, v), env, k),
            )

        if isinstance(expr, DIf):
            if id(expr.test) in static:
                return self.emit_if(
                    self._eval(expr.test, env), expr.then, expr.alt, env, k
                )
            return self.spec(
                expr.test,
                env,
                lambda v: self.emit_if(v, expr.then, expr.alt, env, k),
            )

        if isinstance(expr, Prim):
            spec_ = prim_spec(expr.op)
            return self._spec_list(
                list(expr.args),
                env,
                lambda values: k(apply_prim(expr.op, spec_, values)),
            )

        if isinstance(expr, DPrim):
            return self._spec_list(
                list(expr.args),
                env,
                lambda values: self.emit_prim(expr.op, values, k),
            )

        if isinstance(expr, DLam):
            return self.emit_lambda(expr.params, expr.body, env, k)

        if isinstance(expr, App):
            return self._spec_list(
                [expr.fn, *expr.args], env, lambda values: self.apply(values, k)
            )

        if isinstance(expr, DApp):
            return self._spec_list(
                [expr.fn, *expr.args],
                env,
                lambda values: self.emit_call(values, k),
            )

        if isinstance(expr, MemoCall):
            callee = self.annotated.lookup(expr.name)
            return self._spec_list(
                list(expr.args),
                env,
                lambda values: self.emit_memo_call(callee, values, k),
            )

        raise SpecializationError(
            f"specializer cannot handle {type(expr).__name__}"
        )

    def _eval(self, expr: Expr, env: dict[Symbol, Value]) -> Value:
        """Evaluate the static subterm ``expr`` in direct style."""
        t = type(expr)
        if t is Var:
            value = env.get(expr.name)
            if value is None:
                value = self._global_value(expr.name)
            return value
        if t is Const:
            return Static(datum_to_value(expr.value))
        if t is Prim:
            spec_ = prim_spec(expr.op)
            return apply_prim(
                expr.op, spec_, [self._eval(a, env) for a in expr.args]
            )
        if t is If:
            chosen = self._choose(expr, self._eval(expr.test, env))
            return self._eval(chosen, env)
        if t is Let:
            rhs = self._eval(expr.rhs, env)
            return self._eval(expr.body, {**env, expr.var: rhs})
        if t is App:
            # A call to a top-level def with a static body: the table
            # guarantees no binder shadows the name.
            d = self.annotated.lookup(expr.fn.name)
            args = [self._eval(a, env) for a in expr.args]
            inner = self.enter_unfold(d.name.name, d.params, {}, args)
            # The unfold leaves the stack when its body returns.
            try:
                return self._eval(d.body, inner)
            finally:
                self.unfold_stack.pop()
        if t is Lam:
            return Static(SpecClosure(expr.params, expr.body, dict(env)))
        raise SpecializationError(
            f"specializer cannot evaluate {t.__name__} statically"
        )

    # -- helpers ---------------------------------------------------------------------

    @staticmethod
    def _choose(expr: If, test: Value) -> Expr:
        """The branch of the static conditional ``expr`` that ``test`` picks."""
        return expr.then if static_truth(test) else expr.alt

    def _spec_list(
        self, exprs: list[Expr], env: dict[Symbol, Value], k: Callable[[list], Any]
    ) -> Any:
        """Specialize ``exprs`` left to right, collecting their values."""
        return self._spec_from(exprs, 0, [], env, k)

    def _spec_from(
        self,
        exprs: list[Expr],
        i: int,
        acc: list[Value],
        env: dict[Symbol, Value],
        k: Callable[[list], Any],
    ) -> Any:
        # A method, not a self-recursive local closure: such a closure
        # is a reference cycle (function -> cell -> function), left for
        # the cyclic garbage collector on every call.  ``acc`` is fresh
        # per call, since a duplicated continuation may resume twice.
        static = self._static
        n = len(exprs)
        while i < n and id(exprs[i]) in static:
            acc.append(self._eval(exprs[i], env))
            i += 1
        if i == n:
            return k(acc)
        return self.spec(
            exprs[i],
            env,
            lambda v: self._spec_from(exprs, i + 1, acc + [v], env, k),
        )

    def _global_value(self, name: Symbol) -> Value:
        """The specialization-time meaning of a free variable."""
        if self.annotated.has(name):
            # A top-level function in operator position of an unfold call.
            # (Residual functions may be unfolded too: the annotator emits
            # MemoCall for the call sites that must memoize.)
            d = self.annotated.lookup(name)
            return Static(SpecClosure(d.params, d.body, {}, d.name.name))
        spec_ = PRIMITIVES.get(name)
        if spec_ is not None:
            return Static(PrimProcedure(spec_))
        raise SpecializationError(f"unbound variable at specialization: {name}")


def specialize(
    annotated: AnnotatedProgram,
    static_args: Sequence[Any],
    backend: Backend | None = None,
    max_residual_defs: int = 10_000,
    max_unfold_depth: int = 5_000,
    max_residual_size: int = 1_000_000,
) -> ResidualProgram:
    """Specialize ``annotated``'s goal to the given static arguments."""
    return Specializer(
        annotated,
        backend=backend,
        max_residual_defs=max_residual_defs,
        max_unfold_depth=max_unfold_depth,
        max_residual_size=max_residual_size,
    ).run(static_args)
