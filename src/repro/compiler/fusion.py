"""The composition: an object-code backend for the specializer.

"In practice, we parameterize [the specializer] over the (standard) syntax
constructors and provide alternative implementations for them: one that
constructs syntax and another one that corresponds to [the compiler]"
(§5.4).  This module is the second implementation: every method of
:class:`ObjectCodeBackend` answers the specializer with *object code
generators* built from the ``make-residual-...`` combinators derived from
the annotated compiler — the deforested composition ``compile ∘
specialize``.

Residual code handles:

* trivial code (:class:`TrivCode`) and serious code (:class:`SeriousCode`)
  carry an emission function ``(cenv, depth) -> fragment`` plus the set of
  residual variable names occurring free in them.  The free-name sets
  implement the paper's §6.4 resolution of "the duality between variable
  names and their compilators": the specializer passes names by default,
  and the compilator for ``lambda`` uses them to compute the list of
  captured variables at code-generation time.
* serious code has two emitters because ANF's control-flow distinction is
  resolved by the *consumer*: a let-rhs compiles to ``CALL`` and a tail
  position to ``TAIL_CALL``.

Completed residual definitions are assembled (relocated) into VM templates
and installed in a fresh :class:`~repro.vm.machine.Machine` — "code for
immediate execution by the run-time system" (§8.2).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Sequence

from repro.compiler.annotated import (
    DepthTracker,
    GenCenv,
    make_residual_call,
    make_residual_const,
    make_residual_if,
    make_residual_lambda,
    make_residual_let,
    make_residual_prim,
    make_residual_return,
    make_residual_tail_call,
    make_residual_variable,
)
from repro.compiler.cenv import CompileTimeEnv
from repro.lang.gensym import Gensym
from repro.lang.prims import PRIMITIVES
from repro.pe.backend import ResidualProgram
from repro.pe.errors import SpecializationError
from repro.sexp.datum import Symbol
from repro.vm.assembler import assemble
from repro.vm.machine import Machine, VmClosure
from repro.vm.opt import optimize_template
from repro.vm.template import Template
from repro.vm.verify import verify_template

_EMPTY: frozenset = frozenset()


class TrivCode:
    """Trivial residual code: emits a value into ``val``."""

    __slots__ = ("emit", "free")

    def __init__(self, emit: Callable[[GenCenv, int], Any], free: frozenset):
        self.emit = emit
        self.free = free


class SeriousCode:
    """Serious residual code: a call or primitive application."""

    __slots__ = ("emit_value", "emit_tail", "free")

    def __init__(
        self,
        emit_value: Callable[[GenCenv, int], Any],
        emit_tail: Callable[[GenCenv, int], Any],
        free: frozenset,
    ):
        self.emit_value = emit_value
        self.emit_tail = emit_tail
        self.free = free


class BodyCode:
    """Complete tail code for a residual function or branch."""

    __slots__ = ("emit", "free")

    def __init__(self, emit: Callable[[GenCenv, int], Any], free: frozenset):
        self.emit = emit
        self.free = free


class ObjectCodeBackend:
    """The fused backend: residual programs materialize as VM templates.

    ``verify`` runs the bytecode verifier over every template as it is
    relocated — RTCG-generated code is checked at generation time, before
    it is installed in the machine.  ``optimize`` then runs the dataflow
    bytecode optimizer (:mod:`repro.vm.opt`) over each verified template,
    so cached and persisted residual code is the optimized code; the
    optimizer's own translation validation re-verifies its output.
    """

    def __init__(self, verify: bool = True, optimize: bool = True) -> None:
        self.machine = Machine()
        self.templates: dict[Symbol, Template] = {}
        # Residual function names: one machine, one namespace.
        self.names = Gensym("f")
        self.verify = verify
        self.optimize = optimize
        # Wall-clock spent in the optimizer, for the caller's stage
        # accounting (it runs inside the specialize span otherwise).
        self.optimize_seconds = 0.0
        # Cache-key discriminator: verified/unverified and optimized/
        # unoptimized generation must not share residual-cache entries
        # (a hit skips generation, and with it generation-time
        # verification and optimization).
        kind = "object" if verify else "object-unverified"
        if not optimize:
            kind += "-noopt"
        self.kind = kind

    # -- trivial constructors ----------------------------------------------------

    def const(self, value: Any) -> TrivCode:
        return TrivCode(make_residual_const(value), _EMPTY)

    def var(self, name: Symbol) -> TrivCode:
        return TrivCode(make_residual_variable(name), frozenset((name,)))

    def global_ref(self, name: Symbol) -> TrivCode:
        # Residual functions and primitives resolve through the global
        # environment (or the literal frame, for primitives); they are
        # never captured by closures, so the free set stays empty.
        return TrivCode(make_residual_variable(name), _EMPTY)

    def lam(self, params: Sequence[Symbol], body: BodyCode) -> TrivCode:
        params = tuple(params)
        free = body.free - set(params)

        def emit(cenv: GenCenv, depth: int) -> Any:
            captured = tuple(
                sorted(
                    (v for v in free if cenv.env.is_bound_locally(v)),
                    key=lambda s: s.name,
                )
            )
            return make_residual_lambda(params, captured, body.emit)(
                cenv, depth
            )

        return TrivCode(emit, free)

    # -- serious constructors --------------------------------------------------------

    def prim(self, op: Symbol, args: Sequence[TrivCode]) -> SeriousCode:
        spec = PRIMITIVES.get(op)
        if spec is None:
            raise SpecializationError(f"unknown primitive {op}")
        emits = tuple(a.emit for a in args)
        value = make_residual_prim(spec, emits)
        return SeriousCode(
            emit_value=value,
            emit_tail=make_residual_return(value),
            free=_union(args),
        )

    def call(self, fn: TrivCode, args: Sequence[TrivCode]) -> SeriousCode:
        emits = tuple(a.emit for a in args)
        return SeriousCode(
            emit_value=make_residual_call(fn.emit, emits),
            emit_tail=make_residual_tail_call(fn.emit, emits),
            free=fn.free | _union(args),
        )

    # -- body constructors ---------------------------------------------------------------

    def let(self, var: Symbol, rhs: SeriousCode, body: BodyCode) -> BodyCode:
        rhs_emit = rhs.emit_value if isinstance(rhs, SeriousCode) else rhs.emit
        return BodyCode(
            make_residual_let(var, rhs_emit, body.emit),
            rhs.free | (body.free - {var}),
        )

    def if_(self, test: TrivCode, then: BodyCode, alt: BodyCode) -> BodyCode:
        return BodyCode(
            make_residual_if(test.emit, then.emit, alt.emit),
            test.free | then.free | alt.free,
        )

    def ret(self, triv: TrivCode) -> BodyCode:
        return BodyCode(make_residual_return(triv.emit), triv.free)

    def tail(self, serious: SeriousCode) -> BodyCode:
        return BodyCode(serious.emit_tail, serious.free)

    # -- definitions --------------------------------------------------------------------------

    def define(
        self, name: Symbol, params: Sequence[Symbol], body: BodyCode
    ) -> None:
        params = tuple(params)
        env = CompileTimeEnv.for_procedure(params)
        tracker = DepthTracker(len(params))
        fragment = body.emit(GenCenv(env, tracker), len(params))
        template = assemble(
            fragment, len(params), tracker.max_depth, name.name
        )
        if self.verify:
            verify_template(template)
        if self.optimize:
            t0 = time.perf_counter()
            template = optimize_template(
                template, assume_verified=self.verify
            )
            self.optimize_seconds += time.perf_counter() - t0
        self.templates[name] = template
        self.machine.define(name, VmClosure(template, ()))

    def finish(
        self, goal: Symbol, goal_params: tuple[Symbol, ...]
    ) -> ResidualProgram:
        return ResidualProgram(
            goal=goal, goal_params=goal_params, machine=self.machine
        )


def _union(handles: Sequence) -> frozenset:
    free: frozenset = _EMPTY
    for h in handles:
        if h.free:
            free = h.free if not free else free | h.free
    return free
