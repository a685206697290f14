"""Compiled generating extensions (the PGG path, after Thiemann [59]).

:func:`compile_generating_extension` translates an annotated program into a
*generating extension*: the syntactic dispatch over Annotated Core Scheme
is performed **once**, at translation time, producing a tree of composed
Python closures.  Running the extension on static input then executes only
the staged actions — no AST traversal remains.  This mirrors the paper's
PGG [59] ("Cogen in six lines"): a compiler from annotated programs to
program generators, as opposed to interpreting annotations at each
specialization (which is what :mod:`repro.pe.specializer` does).

Static subterms (the annotated program's static-subterm table) compile
to direct-style closures ``(env, rt) -> value``; the rest pass
continuations, which let-insertion needs.

The generated extension is parameterized over the same residual-code
backend as the specializer, so it can produce source *or* object code —
composing the cogen path with the fused backend realizes §9's outlook of
making generating extensions that directly emit object code.

The test suite checks extension ≡ specializer (identical residual
programs modulo fresh names, same results).
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
from repro.lang.gensym import Gensym
from repro.lang.prims import PRIMITIVES, PrimSpec
from repro.interp import PrimProcedure
from repro.obs import traced
from repro.pe.annprog import AnnDef, AnnotatedProgram, BindingTime
from repro.pe.backend import Backend, ResidualProgram, SourceBackend
from repro.pe.errors import BindingTimeError, BudgetExceeded, SpecializationError
from repro.pe.limits import ensure_recursion_limit
from repro.pe.residual_cache import ResidualCache
from repro.pe.values import (
    Dynamic,
    FreezeCache,
    Static,
    freeze_static,
    is_first_order,
)
from repro.runtime.errors import SchemeError
from repro.runtime.values import datum_to_value, is_truthy
from repro.sexp.datum import Symbol

S = BindingTime.STATIC
D = BindingTime.DYNAMIC

# A compiled expression: (environment, runtime, continuation) -> body code.
GenCode = Callable[[dict, "_Runtime", Callable], Any]
# A compiled static subterm: (environment, runtime) -> value.
DirectCode = Callable[[dict, "_Runtime"], Any]


class _Runtime:
    """The per-specialization state of a running generating extension."""

    __slots__ = (
        "backend",
        "gensym",
        "name_gensym",
        "memo",
        "pending",
        "max_residual_defs",
        "residual_def_count",
        "freeze_cache",
        "max_unfold_depth",
        "max_residual_size",
        "residual_size",
        "unfold_stack",
        "draining",
        "codes",
        "directs",
    )

    def __init__(
        self,
        backend: Backend,
        max_residual_defs: int,
        name_gensym: Gensym,
        codes: dict[Symbol, GenCode],
        directs: dict[Symbol, DirectCode],
        max_unfold_depth: int = 5_000,
        max_residual_size: int = 1_000_000,
    ):
        # The compiled defs are reached through the runtime, never from
        # the compiled closures themselves, so the closure tree of an
        # extension holds no reference cycle.
        self.codes = codes
        self.directs = directs
        self.backend = backend
        self.gensym = Gensym("y")
        self.name_gensym = name_gensym
        self.memo: dict[tuple, tuple[Symbol, tuple[Symbol, ...]]] = {}
        self.pending: deque = deque()
        self.max_residual_defs = max_residual_defs
        self.residual_def_count = 0
        self.freeze_cache = FreezeCache()
        # Same runtime backstop as the interpretive specializer.
        self.max_unfold_depth = max_unfold_depth
        self.max_residual_size = max_residual_size
        self.residual_size = 0
        self.unfold_stack: list[str] = []
        self.draining: Symbol | None = None

    def charge(self, n: int = 1) -> None:
        self.residual_size += n
        if self.residual_size > self.max_residual_size:
            raise BudgetExceeded(
                "max_residual_size",
                self.max_residual_size,
                cycle=self.repeating_cycle(),
            )

    def repeating_cycle(self) -> tuple[str, ...]:
        stack = self.unfold_stack
        if not stack:
            if self.draining is not None:
                return (str(self.draining),)
            return ()
        top = stack[-1]
        for i in range(len(stack) - 2, -1, -1):
            if stack[i] == top:
                return tuple(stack[i:][:32])
        return (top,)

    def enter_unfold(
        self, name: str, params: tuple, env: dict, args: list
    ) -> dict:
        """Push an unfold of ``name`` and return its body's environment.

        The caller pops the unfold stack when the unfold ends.
        """
        if len(args) != len(params):
            raise SpecializationError(
                f"{name}: arity mismatch during unfolding"
            )
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

    def memoize(self, d: AnnDef, args: list) -> tuple:
        """Look up / schedule the residual version of ``d`` for ``args``."""
        static_key = []
        for bt, p, a in zip(d.bts, d.params, args):
            if bt is S:
                if not isinstance(a, Static):
                    raise BindingTimeError(
                        f"{d.name}: static parameter {p} received dynamic"
                        " value"
                    )
                static_key.append(_freeze(a.value, self.freeze_cache))
        key = (d.name, tuple(static_key))
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        residual_name = self.name_gensym.fresh(d.name)
        dyn_params = tuple(self.gensym.fresh(p) for p in d.dynamic_params())
        self.memo[key] = (residual_name, dyn_params)
        env: dict[Symbol, Any] = {}
        dyn_iter = iter(dyn_params)
        for bt, p, a in zip(d.bts, d.params, args):
            if bt is S:
                env[p] = a
            else:
                env[p] = Dynamic(self.backend.var(next(dyn_iter)))
        self.pending.append((residual_name, dyn_params, d, env))
        return self.memo[key]


class _TailCont:
    """Return continuation of a residual body (shares the specializer's
    tail-position discipline)."""

    __slots__ = ("rt",)

    def __init__(self, rt: _Runtime):
        self.rt = rt

    def __call__(self, value: Any) -> Any:
        return self.rt.backend.ret(_triv(self.rt, value))


class GenClosure:
    """A static closure of the generating extension: a *compiled* body."""

    __slots__ = ("params", "code", "env", "name")

    def __init__(self, params, code, env, name="lambda"):
        self.params = params
        self.code = code
        self.env = env
        self.name = name


def _triv(rt: _Runtime, value: Any) -> Any:
    if isinstance(value, Dynamic):
        return value.code
    v = value.value
    if isinstance(v, GenClosure):
        raise BindingTimeError(
            "cannot lift a static closure to code (generating extension)"
        )
    if isinstance(v, (PrimSpec, PrimProcedure)):
        name = v.spec.name if isinstance(v, PrimProcedure) else v.name
        return rt.backend.global_ref(name)
    if not is_first_order(v):
        raise BindingTimeError(f"cannot lift value {v!r} to code")
    return rt.backend.const(v)


def _insert_let(rt: _Runtime, serious: Any, k: Callable) -> Any:
    rt.charge()
    if isinstance(k, _TailCont):
        return rt.backend.tail(serious)
    fresh = rt.gensym.fresh("t")
    return rt.backend.let(
        fresh, serious, k(Dynamic(rt.backend.var(fresh)))
    )


class CompiledGeneratingExtension:
    """An annotated program compiled to a generating extension.

    ``cache_size`` bounds an optional cross-invocation residual-code
    cache (see :mod:`repro.pe.residual_cache`); ``generate`` consults it
    only when asked (``use_cache=True``), so timing-sensitive callers
    keep measuring real generation by default.
    """

    def __init__(self, annotated: AnnotatedProgram, cache_size: int = 128):
        self.annotated = annotated
        self.cache = ResidualCache(cache_size)
        self._static = annotated.static
        self._codes: dict[Symbol, GenCode] = {}
        self._directs: dict[Symbol, DirectCode] = {}
        for d in annotated.defs:
            direct, code = self._part(d.body)
            self._codes[d.name] = code or _cps(direct)
            if direct is not None:
                self._directs[d.name] = direct

    # -- running the extension --------------------------------------------------

    def generate(
        self,
        static_args: Sequence[Any],
        backend: Backend | None = None,
        max_residual_defs: int = 10_000,
        name_gensym: Gensym | None = None,
        use_cache: bool = False,
        max_unfold_depth: int = 5_000,
        max_residual_size: int = 1_000_000,
    ) -> ResidualProgram:
        """Map static input to a residual program.

        With ``use_cache=True`` the result is served from (and stored
        into) the extension's residual-code cache, keyed by the frozen
        static arguments and the backend kind; the ``backend`` argument
        then only determines the key's kind on a hit.
        """
        if use_cache and self.cache.maxsize > 0:
            kind = getattr(backend, "kind", None) or (
                "source" if backend is None else type(backend).__name__
            )
            key = (
                tuple(freeze_static(a) for a in static_args),
                "duplicate",  # the cogen path always duplicates (Fig. 3)
                kind,
            )
            result, hit = self.cache.get_or_generate(
                key,
                lambda: self._generate(
                    static_args,
                    backend,
                    max_residual_defs,
                    name_gensym,
                    max_unfold_depth,
                    max_residual_size,
                ),
            )
            # The cached residual program is shared by every caller that
            # hits this key; per-call facts go on a shallow view, never
            # into the shared stats dict (same contract as
            # GeneratingExtension._generate).
            return result.with_call_stats(
                cache_hit=hit, cache=self.cache.stats()
            )
        return self._generate(
            static_args,
            backend,
            max_residual_defs,
            name_gensym,
            max_unfold_depth,
            max_residual_size,
        )

    @traced("pe.cogen.generate")
    def _generate(
        self,
        static_args: Sequence[Any],
        backend: Backend | None = None,
        max_residual_defs: int = 10_000,
        name_gensym: Gensym | None = None,
        max_unfold_depth: int = 5_000,
        max_residual_size: int = 1_000_000,
    ) -> ResidualProgram:
        backend = backend if backend is not None else SourceBackend()
        from repro.pe.specializer import Specializer

        rt = _Runtime(
            backend,
            max_residual_defs,
            name_gensym or Specializer._shared_names,
            self._codes,
            self._directs,
            max_unfold_depth=max_unfold_depth,
            max_residual_size=max_residual_size,
        )
        goal = self.annotated.goal_def()
        statics = list(static_args)
        if len(statics) != len(goal.static_params()):
            raise SpecializationError(
                f"goal {goal.name} expects {len(goal.static_params())}"
                f" static arguments, got {len(statics)}"
            )
        args: list[Any] = []
        it = iter(statics)
        for bt, p in zip(goal.bts, goal.params):
            if bt is S:
                args.append(Static(next(it)))
            else:
                args.append(Dynamic(backend.var(p)))
        # One-time process-wide floor; never restored (see pe.limits).
        ensure_recursion_limit()
        try:
            residual_goal, dyn_params = rt.memoize(goal, args)
            self._drain(rt)
        except RecursionError:
            import sys

            raise BudgetExceeded(
                "python-recursion-limit",
                sys.getrecursionlimit(),
                cycle=rt.repeating_cycle(),
            ) from None
        result = backend.finish(residual_goal, dyn_params)
        result.stats["residual_defs"] = rt.residual_def_count
        result.stats["residual_size"] = rt.residual_size
        return result

    __call__ = generate

    # -- the residual definitions ----------------------------------------------------

    def _drain(self, rt: _Runtime) -> None:
        while rt.pending:
            residual_name, dyn_params, d, env = rt.pending.popleft()
            rt.draining = d.name
            rt.residual_def_count += 1
            if rt.residual_def_count > rt.max_residual_defs:
                raise BudgetExceeded(
                    "max_residual_defs",
                    rt.max_residual_defs,
                    cycle=rt.repeating_cycle(),
                )
            rt.charge()
            body = self._codes[d.name](env, rt, _TailCont(rt))
            rt.backend.define(residual_name, dyn_params, body)

    # -- the compiler: ACS -> composed closures ------------------------------------

    def _part(self, e: Expr) -> tuple[DirectCode | None, GenCode | None]:
        """Compile ``e`` as ``(direct, None)`` if static, else ``(None, code)``."""
        if id(e) in self._static:
            return self._direct(e), None
        return None, self._comp(e)

    def _direct(self, e: Expr) -> DirectCode:
        """Compile the static subterm ``e`` to a direct-style closure."""
        if isinstance(e, Const):
            value = Static(datum_to_value(e.value))
            return lambda env, rt: value

        if isinstance(e, Var):
            name = e.name
            if self.annotated.has(name):
                d = self.annotated.lookup(name)
                params, label = d.params, d.name.name
                return lambda env, rt: Static(
                    GenClosure(params, rt.codes[name], {}, label)
                )
            spec = PRIMITIVES.get(name)
            if spec is not None:
                prim_value = Static(PrimProcedure(spec))

                def var_or_prim(env, rt):
                    hit = env.get(name)
                    return hit if hit is not None else prim_value

                return var_or_prim

            def var_ref(env, rt):
                try:
                    return env[name]
                except KeyError:
                    raise SpecializationError(
                        f"unbound variable at generation: {name}"
                    ) from None

            return var_ref

        if isinstance(e, Lam):
            params = e.params
            body_code = self._code(e.body)
            return lambda env, rt: Static(
                GenClosure(params, body_code, dict(env))
            )

        if isinstance(e, Let):
            var, rhs, body = e.var, self._direct(e.rhs), self._direct(e.body)
            return lambda env, rt: body({**env, var: rhs(env, rt)}, rt)

        if isinstance(e, If):
            test = self._direct(e.test)
            then, alt = self._direct(e.then), self._direct(e.alt)
            return lambda env, rt: (
                then if _static_test(test(env, rt)) else alt
            )(env, rt)

        if isinstance(e, Prim):
            op, apply_ = e.op, _prim_spec(e.op).apply
            args = [self._direct(a) for a in e.args]
            return lambda env, rt: _apply_prim(
                op, apply_, [a(env, rt) for a in args]
            )

        if isinstance(e, App):
            # A call to a top-level def with a static body, which no
            # binder shadows: run the callee's direct evaluator.
            d = self.annotated.lookup(e.fn.name)
            name, params, label = d.name, d.params, d.name.name
            args = [self._direct(a) for a in e.args]

            def app_direct(env, rt):
                inner = rt.enter_unfold(
                    label, params, {}, [a(env, rt) for a in args]
                )
                # The unfold leaves the stack when its body returns.
                try:
                    return rt.directs[name](inner, rt)
                finally:
                    rt.unfold_stack.pop()

            return app_direct

        raise SpecializationError(
            f"cogen cannot compile {type(e).__name__} statically"
        )

    def _code(self, e: Expr) -> GenCode:
        """Compile ``e`` to continuation-passing code, static or not."""
        direct, code = self._part(e)
        return code or _cps(direct)

    def _comp(self, e: Expr) -> GenCode:
        """Compile the non-static subterm ``e`` to continuation passing."""
        if isinstance(e, Lift):
            inner_d, inner = self._part(e.expr)
            if inner_d is not None:
                return lambda env, rt, k: k(
                    Dynamic(_triv(rt, inner_d(env, rt)))
                )
            return lambda env, rt, k: inner(
                env, rt, lambda v: k(Dynamic(_triv(rt, v)))
            )

        if isinstance(e, Let):
            var, body = e.var, self._code(e.body)
            rhs_d, rhs = self._part(e.rhs)
            if rhs_d is not None:
                return lambda env, rt, k: body(
                    {**env, var: rhs_d(env, rt)}, rt, k
                )
            return lambda env, rt, k: rhs(
                env, rt, lambda v: body({**env, var: v}, rt, k)
            )

        if isinstance(e, If):
            test_d, test = self._part(e.test)
            then, alt = self._code(e.then), self._code(e.alt)
            if test_d is not None:
                return lambda env, rt, k: (
                    then if _static_test(test_d(env, rt)) else alt
                )(env, rt, k)

            return lambda env, rt, k: test(
                env,
                rt,
                lambda v: (then if _static_test(v) else alt)(env, rt, k),
            )

        if isinstance(e, DIf):
            test_d, test = self._part(e.test)
            then, alt = self._code(e.then), self._code(e.alt)

            def dif_code(env, rt, k):
                def emit(v):
                    rt.charge()
                    return rt.backend.if_(
                        _triv(rt, v), then(env, rt, k), alt(env, rt, k)
                    )

                if test_d is not None:
                    return emit(test_d(env, rt))
                return test(env, rt, emit)

            return dif_code

        if isinstance(e, Prim):
            op, apply_ = e.op, _prim_spec(e.op).apply
            items = self._items(e.args)

            def prim_code(env, rt, k):
                return _seq(
                    items, 0, [], env, rt,
                    lambda vals: k(_apply_prim(op, apply_, vals)),
                )

            return prim_code

        if isinstance(e, DPrim):
            op = e.op
            items = self._items(e.args)

            def dprim_code(env, rt, k):
                def finish(vals):
                    serious = rt.backend.prim(
                        op, [_triv(rt, v) for v in vals]
                    )
                    return _insert_let(rt, serious, k)

                return _seq(items, 0, [], env, rt, finish)

            return dprim_code

        if isinstance(e, DLam):
            params = e.params
            body_code = self._code(e.body)

            def dlam_code(env, rt, k):
                rt.charge()
                fresh = tuple(rt.gensym.fresh(p) for p in params)
                inner = dict(env)
                for p, f in zip(params, fresh):
                    inner[p] = Dynamic(rt.backend.var(f))
                body = body_code(inner, rt, _TailCont(rt))
                return k(Dynamic(rt.backend.lam(fresh, body)))

            return dlam_code

        if isinstance(e, App):
            items = self._items((e.fn, *e.args))

            def app_code(env, rt, k):
                def finish(vals):
                    fn, args = vals[0], vals[1:]
                    if isinstance(fn, Static) and isinstance(
                        fn.value, GenClosure
                    ):
                        clo = fn.value
                        inner = rt.enter_unfold(
                            clo.name, clo.params, clo.env, args
                        )
                        try:
                            return clo.code(inner, rt, k)
                        finally:
                            rt.unfold_stack.pop()
                    if isinstance(fn, Static) and isinstance(
                        fn.value, (PrimSpec, PrimProcedure)
                    ):
                        spec = (
                            fn.value.spec
                            if isinstance(fn.value, PrimProcedure)
                            else fn.value
                        )
                        if spec.pure and all(
                            isinstance(a, Static) for a in args
                        ):
                            return k(_apply_prim(spec.name, spec.apply, args))
                        serious = rt.backend.prim(
                            spec.name, [_triv(rt, a) for a in args]
                        )
                        return _insert_let(rt, serious, k)
                    raise BindingTimeError(
                        "application of a non-closure in a static"
                        " application"
                    )

                return _seq(items, 0, [], env, rt, finish)

            return app_code

        if isinstance(e, DApp):
            items = self._items((e.fn, *e.args))

            def dapp_code(env, rt, k):
                def finish(vals):
                    serious = rt.backend.call(
                        _triv(rt, vals[0]), [_triv(rt, v) for v in vals[1:]]
                    )
                    return _insert_let(rt, serious, k)

                return _seq(items, 0, [], env, rt, finish)

            return dapp_code

        if isinstance(e, MemoCall):
            callee = self.annotated.lookup(e.name)
            items = self._items(e.args)
            dyn_positions = [i for i, bt in enumerate(callee.bts) if bt is D]

            def memo_code(env, rt, k):
                def finish(vals):
                    residual_name, _ = rt.memoize(callee, vals)
                    dyn_args = [_triv(rt, vals[i]) for i in dyn_positions]
                    serious = rt.backend.call(
                        rt.backend.global_ref(residual_name), dyn_args
                    )
                    return _insert_let(rt, serious, k)

                return _seq(items, 0, [], env, rt, finish)

            return memo_code

        raise SpecializationError(
            f"cogen cannot compile {type(e).__name__}"
        )

    def _items(self, exprs: Sequence[Expr]) -> tuple:
        """Compile argument expressions for :func:`_seq`."""
        return tuple(self._part(a) for a in exprs)


def _cps(direct: DirectCode) -> GenCode:
    """Continuation-passing code for a static subterm."""
    return lambda env, rt, k: k(direct(env, rt))


def _seq(
    items: tuple, i: int, acc: list, env: dict, rt: _Runtime, k: Callable
) -> Any:
    """Run compiled argument ``items`` from ``i`` on, collecting values.

    Leading static items are evaluated in a loop; a continuation is
    built only for the next non-static one.  A module function, not a
    self-recursive closure, so no call leaves a reference cycle.
    ``acc`` is fresh per call: a duplicated continuation may resume
    twice.
    """
    n = len(items)
    while i < n:
        direct, code = items[i]
        if direct is None:
            return code(
                env, rt, lambda v: _seq(items, i + 1, acc + [v], env, rt, k)
            )
        acc.append(direct(env, rt))
        i += 1
    return k(acc)


def _prim_spec(op: Symbol) -> PrimSpec:
    spec = PRIMITIVES.get(op)
    if spec is None:
        raise SpecializationError(f"unknown primitive {op}")
    return spec


def _apply_prim(op: Any, apply_: Callable, vals: list) -> Static:
    """Apply a static primitive at generation time."""
    args = []
    for v in vals:
        if not isinstance(v, Static):
            raise BindingTimeError(
                f"dynamic argument to static primitive {op}"
            )
        args.append(v.value)
    try:
        return Static(apply_(args))
    except SchemeError as exc:
        raise SpecializationError(
            f"generation-time error in ({op} ...): {exc}"
        ) from exc


def _static_test(v: Any) -> bool:
    """The truth of a static conditional's test value."""
    if not isinstance(v, Static):
        raise BindingTimeError("dynamic test in static conditional")
    return is_truthy(v.value)


def _freeze(value: Any, cache: FreezeCache) -> Any:
    if isinstance(value, GenClosure):
        return ("closure", id(value))
    return cache.freeze(value)


@traced("pe.cogen.compile")
def compile_generating_extension(
    annotated: AnnotatedProgram, cache_size: int = 128
) -> CompiledGeneratingExtension:
    """Compile an annotated program into a generating extension."""
    return CompiledGeneratingExtension(annotated, cache_size=cache_size)
