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

A generation is a :class:`~repro.pe.runstate.RunState` like a run of the
interpretive specializer: memoization, budgets, let-insertion, lifting,
static-primitive application and dynamic-conditional emission (both
``dif_strategy`` rules) are the same code, so the two engines produce
byte-identical residual programs and raise the same errors.  The
extension itself is immutable once compiled; concurrent generations
each run in their own state.  It keeps no cache:
:class:`~repro.rtcg.GeneratingExtension`, which compiles one at
construction and generates through it, owns the residual-code tiers.
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
from repro.interp import PrimProcedure
from repro.obs import traced
from repro.pe.annprog import AnnDef, AnnotatedProgram
from repro.pe.backend import Backend, ResidualProgram, SourceBackend
from repro.pe.errors import SpecializationError
from repro.pe.runstate import RunState, apply_prim, prim_spec, static_truth
from repro.pe.values import Dynamic, SpecClosure, Static
from repro.runtime.values import datum_to_value
from repro.sexp.datum import Symbol

# A compiled expression: (environment, runtime, continuation) -> body code.
GenCode = Callable[[dict, "_Runtime", Callable], Any]
# A compiled static subterm: (environment, runtime) -> value.
DirectCode = Callable[[dict, "_Runtime"], Any]


class _Runtime(RunState):
    """One run of a generating extension: bodies are compiled code."""

    def __init__(
        self,
        extension: "CompiledGeneratingExtension",
        backend: Backend,
        **options: Any,
    ):
        super().__init__(extension.annotated, backend, **options)
        # The compiled defs are reached through the runtime, never from
        # the compiled closures themselves, so the closure tree of an
        # extension holds no reference cycle.
        self.codes = extension._codes
        self.directs = extension._directs

    def spec(self, code: GenCode, env: dict, k: Callable) -> Any:
        return code(env, self, k)

    def def_body(self, d: AnnDef) -> GenCode:
        return self.codes[d.name]


class CompiledGeneratingExtension:
    """An annotated program compiled to a generating extension."""

    def __init__(self, annotated: AnnotatedProgram):
        self.annotated = annotated
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
        dif_strategy: str = "duplicate",
        max_unfold_depth: int = 5_000,
        max_residual_size: int = 1_000_000,
    ) -> ResidualProgram:
        """Map static input to a residual program built by ``backend``
        (a fresh :class:`~repro.pe.backend.SourceBackend` by default)."""
        return _Runtime(
            self,
            backend if backend is not None else SourceBackend(),
            max_residual_defs=max_residual_defs,
            dif_strategy=dif_strategy,
            max_unfold_depth=max_unfold_depth,
            max_residual_size=max_residual_size,
        ).run(static_args)

    __call__ = generate

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
            return _var(self.annotated, e.name)

        if isinstance(e, Lam):
            params = e.params
            body_code = self._code(e.body)
            return lambda env, rt: Static(
                SpecClosure(params, body_code, dict(env))
            )

        if isinstance(e, Let):
            var, rhs, body = e.var, self._direct(e.rhs), self._direct(e.body)
            return lambda env, rt: body({**env, var: rhs(env, rt)}, rt)

        if isinstance(e, If):
            test = self._direct(e.test)
            then, alt = self._direct(e.then), self._direct(e.alt)
            return lambda env, rt: (
                then if static_truth(test(env, rt)) else alt
            )(env, rt)

        if isinstance(e, Prim):
            op, spec = e.op, prim_spec(e.op)
            args = [self._direct(a) for a in e.args]
            return lambda env, rt: apply_prim(
                op, spec, [a(env, rt) for a in args]
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
            f"specializer cannot evaluate {type(e).__name__} statically"
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
                return lambda env, rt, k: k(Dynamic(rt.lift(inner_d(env, rt))))
            return lambda env, rt, k: inner(
                env, rt, lambda v: k(Dynamic(rt.lift(v)))
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
                    then if static_truth(test_d(env, rt)) else alt
                )(env, rt, k)
            return lambda env, rt, k: test(
                env,
                rt,
                lambda v: (then if static_truth(v) else alt)(env, rt, k),
            )

        if isinstance(e, DIf):
            test_d, test = self._part(e.test)
            then, alt = self._code(e.then), self._code(e.alt)
            if test_d is not None:
                return lambda env, rt, k: rt.emit_if(
                    test_d(env, rt), then, alt, env, k
                )
            return lambda env, rt, k: test(
                env, rt, lambda v: rt.emit_if(v, then, alt, env, k)
            )

        if isinstance(e, Prim):
            op, spec = e.op, prim_spec(e.op)
            items = self._items(e.args)
            return lambda env, rt, k: _seq(
                items, 0, [], env, rt,
                lambda vals: k(apply_prim(op, spec, vals)),
            )

        if isinstance(e, DPrim):
            op = e.op
            items = self._items(e.args)
            return lambda env, rt, k: _seq(
                items, 0, [], env, rt, lambda vals: rt.emit_prim(op, vals, k)
            )

        if isinstance(e, DLam):
            params = e.params
            body_code = self._code(e.body)
            return lambda env, rt, k: rt.emit_lambda(
                params, body_code, env, k
            )

        if isinstance(e, App):
            items = self._items((e.fn, *e.args))
            return lambda env, rt, k: _seq(
                items, 0, [], env, rt, lambda vals: rt.apply(vals, k)
            )

        if isinstance(e, DApp):
            items = self._items((e.fn, *e.args))
            return lambda env, rt, k: _seq(
                items, 0, [], env, rt, lambda vals: rt.emit_call(vals, k)
            )

        if isinstance(e, MemoCall):
            callee = self.annotated.lookup(e.name)
            items = self._items(e.args)
            return lambda env, rt, k: _seq(
                items, 0, [], env, rt,
                lambda vals: rt.emit_memo_call(callee, vals, k),
            )

        raise SpecializationError(
            f"specializer cannot handle {type(e).__name__}"
        )

    def _items(self, exprs: Sequence[Expr]) -> tuple:
        """Compile argument expressions for :func:`_seq`."""
        return tuple(self._part(a) for a in exprs)


def _cps(direct: DirectCode) -> GenCode:
    """Continuation-passing code for a static subterm."""
    return lambda env, rt, k: k(direct(env, rt))


def _var(annotated: AnnotatedProgram, name: Symbol) -> DirectCode:
    """A variable reference: the environment first, then a top-level
    def or a primitive (the specializer's ``_global_value``)."""
    if annotated.has(name):
        d = annotated.lookup(name)
        params, label = d.params, d.name.name

        def def_ref(env, rt):
            value = env.get(name)
            if value is None:
                value = Static(SpecClosure(params, rt.codes[name], {}, label))
            return value

        return def_ref
    spec = PRIMITIVES.get(name)
    if spec is not None:
        prim_value = Static(PrimProcedure(spec))

        def var_or_prim(env, rt):
            value = env.get(name)
            return value if value is not None else prim_value

        return var_or_prim

    def var_ref(env, rt):
        value = env.get(name)
        if value is None:
            raise SpecializationError(
                f"unbound variable at specialization: {name}"
            )
        return value

    return var_ref


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


@traced("pe.cogen.compile")
def compile_generating_extension(
    annotated: AnnotatedProgram,
) -> CompiledGeneratingExtension:
    """Compile an annotated program into a generating extension."""
    return CompiledGeneratingExtension(annotated)
