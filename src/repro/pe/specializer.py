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

The engine is parameterized over the residual-code constructors
(:class:`~repro.pe.backend.Backend`): handing it the source backend gives a
classical partial evaluator; handing it the fused object-code backend gives
the paper's run-time code generator.  The engine itself cannot tell the
difference — that is the point.
"""

from __future__ import annotations

from collections import deque
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
from repro import obs
from repro.lang.gensym import Gensym
from repro.lang.prims import PRIMITIVES, PrimSpec
from repro.pe.annprog import AnnDef, AnnotatedProgram, BindingTime
from repro.pe.backend import Backend, ResidualProgram, SourceBackend
from repro.pe.errors import BindingTimeError, BudgetExceeded, SpecializationError
from repro.pe.limits import ensure_recursion_limit
from repro.pe.values import (
    Dynamic,
    FreezeCache,
    SpecClosure,
    Static,
    is_first_order,
)
from repro.interp import PrimProcedure
from repro.runtime.errors import SchemeError
from repro.runtime.values import datum_to_value, is_truthy
from repro.sexp.datum import Symbol

S = BindingTime.STATIC
D = BindingTime.DYNAMIC

Value = Static | Dynamic
Cont = Callable[[Value], Any]


class _TailCont:
    """The return continuation of a residual function body.

    Marked so serious residual code lands in tail position (``(f x)``)
    rather than being let-wrapped (``(let (t (f x)) t)``).
    """

    __slots__ = ("specializer",)

    def __init__(self, specializer: "Specializer"):
        self.specializer = specializer

    def __call__(self, value: Value) -> Any:
        backend = self.specializer.backend
        return backend.ret(self.specializer.coerce_trivial(value))


class Specializer:
    """One specialization run over an annotated program."""

    _shared_names = Gensym("f")

    def __init__(
        self,
        annotated: AnnotatedProgram,
        backend: Backend | None = None,
        max_residual_defs: int = 10_000,
        name_gensym: Gensym | None = None,
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
        if dif_strategy not in ("duplicate", "join"):
            raise ValueError(f"unknown dif_strategy {dif_strategy!r}")
        self.dif_strategy = dif_strategy
        self.annotated = annotated
        self.backend = backend if backend is not None else SourceBackend()
        self.gensym = Gensym("y")
        # Residual function names come from a shared supply by default, so
        # that several specializations may target one machine (incremental
        # specialization, §1) without name clashes.  Pass a private Gensym
        # for reproducible naming.
        self.name_gensym = name_gensym or Specializer._shared_names
        self.memo: dict[tuple, tuple[Symbol, tuple[Symbol, ...]]] = {}
        self.freeze_cache = FreezeCache()
        self.pending: deque[tuple[Symbol, AnnDef, dict]] = deque()
        self.max_residual_defs = max_residual_defs
        self.residual_def_count = 0
        # Runtime backstop for the static termination analysis: budgets
        # on unfold nesting and on emitted residual code, so a diverging
        # specialization stops with a diagnosis instead of eating the
        # interpreter stack or all available memory.
        self.max_unfold_depth = max_unfold_depth
        self.max_residual_size = max_residual_size
        self.residual_size = 0
        self._unfold_stack: list[str] = []
        self._draining: Symbol | None = None

    # -- entry point -------------------------------------------------------------

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
            residual_goal, dyn_params = self._memoize(goal, args, entry=True)
            self._drain()
        except RecursionError:
            # Deep non-unfold structure (long let chains, etc.) blew the
            # interpreter stack before max_unfold_depth tripped; report
            # it with the same diagnosis instead of a bare traceback.
            import sys

            raise BudgetExceeded(
                "python-recursion-limit",
                sys.getrecursionlimit(),
                cycle=self._repeating_cycle(),
            ) from None
        result = self.backend.finish(residual_goal, dyn_params)
        result.stats["residual_defs"] = self.residual_def_count
        result.stats["memo_entries"] = len(self.memo)
        result.stats["residual_size"] = self.residual_size
        return result

    # -- memoization ----------------------------------------------------------------

    def _memoize(
        self, d: AnnDef, args: list[Value], entry: bool = False
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
        residual_name = self.name_gensym.fresh(d.name)
        dyn_params = tuple(self.gensym.fresh(p) for p in d.dynamic_params())
        self.memo[key] = (residual_name, dyn_params)
        env: dict[Symbol, Value] = {}
        dyn_iter = iter(dyn_params)
        for bt, p, a in zip(d.bts, d.params, args):
            if bt is S:
                env[p] = a
            else:
                env[p] = Dynamic(self.backend.var(next(dyn_iter)))
        self.pending.append((residual_name, dyn_params, d, env))
        return self.memo[key]

    def _drain(self) -> None:
        while self.pending:
            residual_name, dyn_params, d, env = self.pending.popleft()
            self._draining = d.name
            self.residual_def_count += 1
            if self.residual_def_count > self.max_residual_defs:
                raise BudgetExceeded(
                    "max_residual_defs",
                    self.max_residual_defs,
                    cycle=self._repeating_cycle(),
                )
            self._charge()
            body = self.spec(d.body, env, _TailCont(self))
            self.backend.define(residual_name, dyn_params, body)

    # -- the specializer proper -------------------------------------------------------

    def spec(self, expr: Expr, env: dict[Symbol, Value], k: Cont) -> Any:
        """Specialize ``expr`` under ``env``, continuing with ``k``."""
        backend = self.backend

        if isinstance(expr, Const):
            return k(Static(datum_to_value(expr.value)))

        if isinstance(expr, Var):
            value = env.get(expr.name)
            if value is None:
                value = self._global_value(expr.name)
            return k(value)

        if isinstance(expr, Lam):
            return k(Static(SpecClosure(expr.params, expr.body, dict(env))))

        if isinstance(expr, Lift):
            return self.spec(
                expr.expr,
                env,
                lambda v: k(Dynamic(self._lift(v))),
            )

        if isinstance(expr, Let):
            return self.spec(
                expr.rhs,
                env,
                lambda v: self.spec(expr.body, {**env, expr.var: v}, k),
            )

        if isinstance(expr, If):
            def branch(v: Value) -> Any:
                if not isinstance(v, Static):
                    raise BindingTimeError(
                        "dynamic test in a static conditional"
                    )
                chosen = expr.then if is_truthy(v.value) else expr.alt
                return self.spec(chosen, env, k)

            return self.spec(expr.test, env, branch)

        if isinstance(expr, DIf):
            def emit_dif(v: Value) -> Any:
                self._charge()
                test = self.coerce_trivial(v)
                if self.dif_strategy == "join" and not isinstance(
                    k, _TailCont
                ):
                    # Bind the continuation once as a join-point lambda;
                    # both branches tail-call it.
                    join_name = self.gensym.fresh("join")
                    result_name = self.gensym.fresh("r")
                    join_body = k(Dynamic(backend.var(result_name)))
                    join_lam = backend.lam((result_name,), join_body)

                    def branch_k(bv: Value) -> Any:
                        return backend.tail(
                            backend.call(
                                backend.var(join_name),
                                [self.coerce_trivial(bv)],
                            )
                        )

                    return backend.let(
                        join_name,
                        join_lam,
                        backend.if_(
                            test,
                            self.spec(expr.then, env, branch_k),
                            self.spec(expr.alt, env, branch_k),
                        ),
                    )
                # Fig. 3 duplicates the continuation into both branches.
                return backend.if_(
                    test,
                    self.spec(expr.then, env, k),
                    self.spec(expr.alt, env, k),
                )

            return self.spec(expr.test, env, emit_dif)

        if isinstance(expr, Prim):
            spec_ = PRIMITIVES.get(expr.op)
            if spec_ is None:
                raise SpecializationError(f"unknown primitive {expr.op}")

            def apply_prim(values: list[Value]) -> Any:
                args = []
                for v in values:
                    if not isinstance(v, Static):
                        raise BindingTimeError(
                            f"dynamic argument to static primitive {expr.op}"
                        )
                    args.append(v.value)
                try:
                    return k(Static(spec_.apply(args)))
                except SchemeError as exc:
                    raise SpecializationError(
                        f"specialization-time error in ({expr.op} ...): {exc}"
                    ) from exc

            return self._spec_list(list(expr.args), env, apply_prim)

        if isinstance(expr, DPrim):
            def emit_prim(values: list[Value]) -> Any:
                args = [self.coerce_trivial(v) for v in values]
                serious = backend.prim(expr.op, args)
                return self._insert_let(serious, k)

            return self._spec_list(list(expr.args), env, emit_prim)

        if isinstance(expr, DLam):
            self._charge()
            fresh = tuple(self.gensym.fresh(p) for p in expr.params)
            inner_env = dict(env)
            for p, f in zip(expr.params, fresh):
                inner_env[p] = Dynamic(backend.var(f))
            body = self.spec(expr.body, inner_env, _TailCont(self))
            return k(Dynamic(backend.lam(fresh, body)))

        if isinstance(expr, App):
            def apply_static(values: list[Value]) -> Any:
                fn = values[0]
                args = values[1:]
                if isinstance(fn, Static) and isinstance(fn.value, SpecClosure):
                    clo = fn.value
                    if len(args) != len(clo.params):
                        raise SpecializationError(
                            f"{clo.name}: arity mismatch during unfolding"
                        )
                    inner = dict(clo.env)
                    inner.update(zip(clo.params, args))
                    # The continuation runs inside this call (CPS), so
                    # stack depth tracks unfold nesting exactly.
                    self._unfold_stack.append(clo.name)
                    if len(self._unfold_stack) > self.max_unfold_depth:
                        raise BudgetExceeded(
                            "max_unfold_depth",
                            self.max_unfold_depth,
                            cycle=self._repeating_cycle(),
                        )
                    try:
                        return self.spec(clo.body, inner, k)
                    finally:
                        self._unfold_stack.pop()
                if isinstance(fn, Static) and isinstance(
                    fn.value, (PrimSpec, PrimProcedure)
                ):
                    spec_ = (
                        fn.value.spec
                        if isinstance(fn.value, PrimProcedure)
                        else fn.value
                    )
                    if spec_.pure and all(
                        isinstance(a, Static) for a in args
                    ):
                        try:
                            return k(
                                Static(spec_.apply([a.value for a in args]))
                            )
                        except SchemeError as exc:
                            raise SpecializationError(
                                f"specialization-time error in"
                                f" ({spec_.name} ...): {exc}"
                            ) from exc
                    # Dynamic (or impure) primitive-value application:
                    # residualize as a primitive operation.
                    serious = self.backend.prim(
                        spec_.name, [self.coerce_trivial(a) for a in args]
                    )
                    return self._insert_let(serious, k)
                raise BindingTimeError(
                    "application of a non-closure in a static application"
                )

            return self._spec_list([expr.fn, *expr.args], env, apply_static)

        if isinstance(expr, DApp):
            def emit_app(values: list[Value]) -> Any:
                fn = self.coerce_trivial(values[0])
                args = [self.coerce_trivial(v) for v in values[1:]]
                serious = backend.call(fn, args)
                return self._insert_let(serious, k)

            return self._spec_list([expr.fn, *expr.args], env, emit_app)

        if isinstance(expr, MemoCall):
            callee = self.annotated.lookup(expr.name)

            def do_call(values: list[Value]) -> Any:
                residual_name, _ = self._memoize(callee, values)
                dyn_args = [
                    self.coerce_trivial(v)
                    for v, bt in zip(values, callee.bts)
                    if bt is D
                ]
                serious = backend.call(
                    backend.global_ref(residual_name), dyn_args
                )
                return self._insert_let(serious, k)

            return self._spec_list(list(expr.args), env, do_call)

        raise SpecializationError(
            f"specializer cannot handle {type(expr).__name__}"
        )

    # -- helpers ---------------------------------------------------------------------

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
        # the cyclic garbage collector on every call.
        if i == len(exprs):
            return k(acc)
        return self.spec(
            exprs[i],
            env,
            lambda v: self._spec_from(exprs, i + 1, acc + [v], env, k),
        )

    def _charge(self, n: int = 1) -> None:
        """Account for ``n`` serious residual constructs being emitted."""
        self.residual_size += n
        if self.residual_size > self.max_residual_size:
            raise BudgetExceeded(
                "max_residual_size",
                self.max_residual_size,
                cycle=self._repeating_cycle(),
            )

    def _repeating_cycle(self) -> tuple[str, ...]:
        """The repeating suffix of the unfold stack, innermost cycle."""
        stack = self._unfold_stack
        if not stack:
            # No unfold in flight: a memo-driven blow-up; name the
            # specialization point being drained.
            if self._draining is not None:
                return (str(self._draining),)
            return ()
        top = stack[-1]
        for i in range(len(stack) - 2, -1, -1):
            if stack[i] == top:
                return tuple(stack[i:][:32])
        return (top,)

    def _insert_let(self, serious: Any, k: Cont) -> Any:
        """Fig. 3's let-wrapping, with the tail-position refinement."""
        self._charge()
        if isinstance(k, _TailCont):
            return self.backend.tail(serious)
        fresh = self.gensym.fresh("t")
        return self.backend.let(
            fresh, serious, k(Dynamic(self.backend.var(fresh)))
        )

    def coerce_trivial(self, value: Value) -> Any:
        """The trivial residual code for ``value`` (lifting if static)."""
        if isinstance(value, Dynamic):
            return value.code
        return self._lift(value)

    def _lift(self, value: Value) -> Any:
        if isinstance(value, Dynamic):
            # (lift e) where e turned out dynamic: already code.
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
