"""The state and staged actions of one specialization run.

Both engines — the interpretive :class:`~repro.pe.specializer.Specializer`
and a run of a compiled generating extension (:mod:`repro.pe.cogen`) —
traverse Annotated Core Scheme differently but perform the same actions
on what they find: memoize a call and queue its residual definition,
let-insert serious code, lift static values, apply static primitives,
test a static conditional, unfold a static closure, emit a dynamic
conditional (duplicating or joining its continuation), and account every
emitted construct against the run's budgets.  :class:`RunState` holds
those actions and the state they share, so the engines differ only in
how they reach a subterm: the specializer dispatches on syntax at run
time, the generating extension did so once, when it was compiled.

An engine subclasses :class:`RunState` and supplies two things:

* ``spec(body, env, k)`` — specialize a *body* under ``env`` and continue
  with ``k``.  A body is an expression for the specializer and a compiled
  code closure for the generating extension; static closures
  (:class:`~repro.pe.values.SpecClosure`) carry the engine's bodies.
* ``def_body(d)`` — the body of the annotated definition ``d``.

Residual function names come from the backend (``backend.names``), which
owns the namespace the definitions land in: a fresh backend per run
yields deterministic names, and runs sharing one backend get distinct
names (incremental specialization, §1).
"""

from __future__ import annotations

import sys
from collections import deque
from typing import Any, Callable, Sequence

from repro import obs
from repro.interp import PrimProcedure
from repro.lang.gensym import Gensym
from repro.lang.prims import PRIMITIVES, PrimSpec
from repro.pe.annprog import AnnDef, AnnotatedProgram, BindingTime
from repro.pe.backend import Backend, ResidualProgram
from repro.pe.errors import BindingTimeError, BudgetExceeded, SpecializationError
from repro.pe.limits import ensure_recursion_limit
from repro.pe.values import (
    Dynamic,
    FreezeCache,
    SpecClosure,
    Static,
    is_first_order,
)
from repro.runtime.errors import SchemeError
from repro.runtime.values import is_truthy
from repro.sexp.datum import Symbol

S = BindingTime.STATIC
D = BindingTime.DYNAMIC

Value = Static | Dynamic
Cont = Callable[[Value], Any]

DIF_STRATEGIES = ("duplicate", "join")


class TailCont:
    """The return continuation of a residual function body.

    Marked so serious residual code lands in tail position (``(f x)``)
    rather than being let-wrapped (``(let (t (f x)) t)``).
    """

    __slots__ = ("state",)

    def __init__(self, state: "RunState"):
        self.state = state

    def __call__(self, value: Value) -> Any:
        state = self.state
        return state.backend.ret(state.lift(value))


def prim_spec(op: Symbol) -> PrimSpec:
    """The primitive named ``op``."""
    spec = PRIMITIVES.get(op)
    if spec is None:
        raise SpecializationError(f"unknown primitive {op}")
    return spec


def apply_prim(op: Any, spec: PrimSpec, values: list[Value]) -> Static:
    """Apply a static primitive at specialization time."""
    args = []
    for v in values:
        if not isinstance(v, Static):
            raise BindingTimeError(f"dynamic argument to static primitive {op}")
        args.append(v.value)
    try:
        return Static(spec.apply(args))
    except SchemeError as exc:
        raise SpecializationError(
            f"specialization-time error in ({op} ...): {exc}"
        ) from exc


def static_truth(test: Value) -> bool:
    """The truth of a static conditional's test value."""
    if not isinstance(test, Static):
        raise BindingTimeError("dynamic test in a static conditional")
    return is_truthy(test.value)


class RunState:
    """One specialization run over an annotated program."""

    def __init__(
        self,
        annotated: AnnotatedProgram,
        backend: Backend,
        max_residual_defs: int = 10_000,
        dif_strategy: str = "duplicate",
        max_unfold_depth: int = 5_000,
        max_residual_size: int = 1_000_000,
    ):
        """``dif_strategy`` controls dynamic conditionals in *value*
        position.  ``"duplicate"`` is Fig. 3's rule: the continuation is
        specialized into both branches — faithful, but exponential for
        chains of value-position conditionals.  ``"join"`` instead binds
        the continuation once as a residual join-point lambda that both
        branches tail-call — the standard binding-time-improvement fix.
        """
        if dif_strategy not in DIF_STRATEGIES:
            raise ValueError(f"unknown dif_strategy {dif_strategy!r}")
        self.annotated = annotated
        self.backend = backend
        self.dif_strategy = dif_strategy
        self.gensym = Gensym("y")
        self.memo: dict[tuple, tuple[Symbol, tuple[Symbol, ...]]] = {}
        self.freeze_cache = FreezeCache()
        self.pending: deque[tuple[Symbol, tuple, AnnDef, dict]] = deque()
        self.max_residual_defs = max_residual_defs
        self.residual_def_count = 0
        # Runtime backstop for the static termination analysis: budgets
        # on unfold nesting and on emitted residual code, so a diverging
        # specialization stops with a diagnosis instead of eating the
        # interpreter stack or all available memory.
        self.max_unfold_depth = max_unfold_depth
        self.max_residual_size = max_residual_size
        self.residual_size = 0
        self.unfold_stack: list[str] = []
        self.draining: Symbol | None = None

    # -- what an engine supplies -------------------------------------------------

    def spec(self, body: Any, env: dict[Symbol, Value], k: Cont) -> Any:
        raise NotImplementedError

    def def_body(self, d: AnnDef) -> Any:
        raise NotImplementedError

    # -- running the goal -----------------------------------------------------------

    def run(self, static_args: Sequence[Any]) -> ResidualProgram:
        """Specialize the goal function to ``static_args``.

        ``static_args`` supplies values for the goal's *static* parameters,
        in parameter order.
        """
        goal = self.annotated.goal_def()
        with obs.span(
            "pe.specialize",
            goal=str(goal.name),
            backend=getattr(self.backend, "kind", "?"),
        ) as sp:
            result = self._run(static_args, goal)
            sp.set(
                residual_defs=self.residual_def_count,
                residual_size=self.residual_size,
            )
            obs.observe("pe.residual_size", self.residual_size)
            return result

    def _run(self, static_args: Sequence[Any], goal: AnnDef) -> ResidualProgram:
        statics = list(static_args)
        if len(statics) != len(goal.static_params()):
            raise SpecializationError(
                f"goal {goal.name} expects {len(goal.static_params())}"
                f" static arguments, got {len(statics)}"
            )
        args: list[Value] = []
        it = iter(statics)
        for bt, p in zip(goal.bts, goal.params):
            if bt is S:
                args.append(Static(next(it)))
            else:
                args.append(Dynamic(self.backend.var(p)))
        # One-time process-wide floor: never saved/restored, so nested
        # and concurrent runs cannot clobber each other (see pe.limits).
        ensure_recursion_limit()
        try:
            residual_goal, dyn_params = self.memoize(goal, args)
            self.drain()
        except RecursionError:
            # Deep non-unfold structure (long let chains, etc.) blew the
            # interpreter stack before max_unfold_depth tripped; report
            # it with the same diagnosis instead of a bare traceback.
            raise BudgetExceeded(
                "python-recursion-limit",
                sys.getrecursionlimit(),
                cycle=self.repeating_cycle(),
            ) from None
        result = self.backend.finish(residual_goal, dyn_params)
        result.stats["residual_defs"] = self.residual_def_count
        result.stats["memo_entries"] = len(self.memo)
        result.stats["residual_size"] = self.residual_size
        return result

    # -- memoization ----------------------------------------------------------------

    def memoize(
        self, d: AnnDef, args: list[Value]
    ) -> tuple[Symbol, tuple[Symbol, ...]]:
        """Look up / create the specialized version of ``d`` for ``args``.

        Returns the residual function's name and its parameter names.
        ``args`` follow ``d.params`` order; static positions must hold
        :class:`Static`, dynamic positions :class:`Dynamic`.
        """
        static_key = []
        for bt, p, a in zip(d.bts, d.params, args):
            if bt is S:
                if not isinstance(a, Static):
                    raise BindingTimeError(
                        f"{d.name}: static parameter {p} received dynamic value"
                    )
                static_key.append(self.freeze_cache.freeze(a.value))
        key = (d.name, tuple(static_key))
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        residual_name = self.backend.names.fresh(d.name)
        dyn_params = tuple(self.gensym.fresh(p) for p in d.dynamic_params())
        entry = self.memo[key] = (residual_name, dyn_params)
        env: dict[Symbol, Value] = {}
        dyn_iter = iter(dyn_params)
        for bt, p, a in zip(d.bts, d.params, args):
            if bt is S:
                env[p] = a
            else:
                env[p] = Dynamic(self.backend.var(next(dyn_iter)))
        self.pending.append((residual_name, dyn_params, d, env))
        return entry

    def drain(self) -> None:
        """Specialize queued residual definitions until none is left."""
        while self.pending:
            residual_name, dyn_params, d, env = self.pending.popleft()
            self.draining = d.name
            self.residual_def_count += 1
            if self.residual_def_count > self.max_residual_defs:
                raise BudgetExceeded(
                    "max_residual_defs",
                    self.max_residual_defs,
                    cycle=self.repeating_cycle(),
                )
            self.charge()
            body = self.spec(self.def_body(d), env, TailCont(self))
            self.backend.define(residual_name, dyn_params, body)

    # -- budgets ------------------------------------------------------------------------

    def charge(self, n: int = 1) -> None:
        """Account for ``n`` serious residual constructs being emitted."""
        self.residual_size += n
        if self.residual_size > self.max_residual_size:
            raise BudgetExceeded(
                "max_residual_size",
                self.max_residual_size,
                cycle=self.repeating_cycle(),
            )

    def repeating_cycle(self) -> tuple[str, ...]:
        """The repeating suffix of the unfold stack, innermost cycle."""
        stack = self.unfold_stack
        if not stack:
            # No unfold in flight: a memo-driven blow-up; name the
            # specialization point being drained.
            if self.draining is not None:
                return (str(self.draining),)
            return ()
        top = stack[-1]
        for i in range(len(stack) - 2, -1, -1):
            if stack[i] == top:
                return tuple(stack[i:][:32])
        return (top,)

    def enter_unfold(
        self,
        name: str,
        params: tuple[Symbol, ...],
        env: dict[Symbol, Value],
        args: list[Value],
    ) -> dict[Symbol, Value]:
        """Push an unfold of ``name`` and return its body's environment.

        The caller pops the unfold stack when the unfold ends.
        """
        if len(args) != len(params):
            raise SpecializationError(f"{name}: arity mismatch during unfolding")
        inner = dict(env)
        inner.update(zip(params, args))
        self.unfold_stack.append(name)
        if len(self.unfold_stack) > self.max_unfold_depth:
            raise BudgetExceeded(
                "max_unfold_depth",
                self.max_unfold_depth,
                cycle=self.repeating_cycle(),
            )
        return inner

    # -- static actions -----------------------------------------------------------------

    def lift(self, value: Value) -> Any:
        """The trivial residual code for ``value`` (lifting if static)."""
        if isinstance(value, Dynamic):
            return value.code
        v = value.value
        if isinstance(v, SpecClosure):
            raise BindingTimeError(
                "cannot lift a static closure to code; binding-time analysis"
                " should have made the lambda dynamic"
            )
        if isinstance(v, (PrimSpec, PrimProcedure)):
            name = v.spec.name if isinstance(v, PrimProcedure) else v.name
            return self.backend.global_ref(name)
        if not is_first_order(v):
            raise BindingTimeError(f"cannot lift value {v!r} to code")
        return self.backend.const(v)

    def apply(self, values: list[Value], k: Cont) -> Any:
        """A static application: unfold a closure or apply a primitive."""
        fn = values[0]
        args = values[1:]
        if isinstance(fn, Static):
            clo = fn.value
            if isinstance(clo, SpecClosure):
                inner = self.enter_unfold(clo.name, clo.params, clo.env, args)
                # The continuation runs inside this call (CPS), so the
                # unfold stays active while the rest of the residual
                # body is specialized.
                try:
                    return self.spec(clo.body, inner, k)
                finally:
                    self.unfold_stack.pop()
            if isinstance(clo, (PrimSpec, PrimProcedure)):
                spec = clo.spec if isinstance(clo, PrimProcedure) else clo
                if spec.pure and all(isinstance(a, Static) for a in args):
                    return k(apply_prim(spec.name, spec, args))
                # Dynamic (or impure) primitive-value application:
                # residualize as a primitive operation.
                return self.emit_prim(spec.name, args, k)
        raise BindingTimeError(
            "application of a non-closure in a static application"
        )

    # -- residual code --------------------------------------------------------------------

    def insert_let(self, serious: Any, k: Cont) -> Any:
        """Fig. 3's let-wrapping, with the tail-position refinement."""
        self.charge()
        if isinstance(k, TailCont):
            return self.backend.tail(serious)
        fresh = self.gensym.fresh("t")
        return self.backend.let(
            fresh, serious, k(Dynamic(self.backend.var(fresh)))
        )

    def emit_prim(self, op: Symbol, values: list[Value], k: Cont) -> Any:
        """A residual primitive operation on ``values``."""
        serious = self.backend.prim(op, [self.lift(v) for v in values])
        return self.insert_let(serious, k)

    def emit_call(self, values: list[Value], k: Cont) -> Any:
        """A residual call of ``values[0]`` on the rest."""
        lift = self.lift
        serious = self.backend.call(lift(values[0]), [lift(v) for v in values[1:]])
        return self.insert_let(serious, k)

    def emit_memo_call(self, callee: AnnDef, values: list[Value], k: Cont) -> Any:
        """A call of the residual version of ``callee`` for ``values``."""
        residual_name, _ = self.memoize(callee, values)
        dyn_args = [
            self.lift(v) for v, bt in zip(values, callee.bts) if bt is D
        ]
        serious = self.backend.call(
            self.backend.global_ref(residual_name), dyn_args
        )
        return self.insert_let(serious, k)

    def emit_lambda(
        self, params: tuple[Symbol, ...], body: Any, env: dict, k: Cont
    ) -> Any:
        """A residual lambda whose body is ``body`` specialized."""
        self.charge()
        backend = self.backend
        fresh = tuple(self.gensym.fresh(p) for p in params)
        inner = dict(env)
        for p, f in zip(params, fresh):
            inner[p] = Dynamic(backend.var(f))
        code = self.spec(body, inner, TailCont(self))
        return k(Dynamic(backend.lam(fresh, code)))

    def emit_if(
        self, test: Value, then: Any, alt: Any, env: dict, k: Cont
    ) -> Any:
        """A dynamic conditional on ``test`` with bodies ``then``/``alt``."""
        self.charge()
        backend = self.backend
        code = self.lift(test)
        if self.dif_strategy == "join" and not isinstance(k, TailCont):
            # Bind the continuation once as a join-point lambda; both
            # branches tail-call it.
            join_name = self.gensym.fresh("join")
            result_name = self.gensym.fresh("r")
            join_body = k(Dynamic(backend.var(result_name)))
            join_lam = backend.lam((result_name,), join_body)

            def branch_k(value: Value) -> Any:
                return backend.tail(
                    backend.call(backend.var(join_name), [self.lift(value)])
                )

            return backend.let(
                join_name,
                join_lam,
                backend.if_(
                    code,
                    self.spec(then, env, branch_k),
                    self.spec(alt, env, branch_k),
                ),
            )
        # Fig. 3 duplicates the continuation into both branches.
        return backend.if_(
            code, self.spec(then, env, k), self.spec(alt, env, k)
        )
