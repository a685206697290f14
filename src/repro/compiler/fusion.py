"""The composition: an object-code backend for the specializer.

"In practice, we parameterize [the specializer] over the (standard) syntax
constructors and provide alternative implementations for them: one that
constructs syntax and another one that corresponds to [the compiler]"
(§5.4).  This module is the second implementation: every method of
:class:`ObjectCodeBackend` answers the specializer with *object code
generators* built from the ``make-residual-...`` combinators of the
annotated compiler — the deforested composition ``compile ∘
specialize``.  The combinators are the *printed* ones (§6.3.2): the
module :mod:`repro.compiler.combinator_source` renders from the
compilators, loaded once at import.

Residual code handles:

* trivial code (:class:`TrivCode`), serious code (:class:`SeriousCode`)
  and bodies (:class:`BodyCode`) carry an emission function ``(cenv,
  depth) -> fragment`` plus the set of residual variable names occurring
  free in them.  The free-name sets implement the paper's §6.4
  resolution of "the duality between variable names and their
  compilators": the specializer passes names by default, and the
  compilator for ``lambda`` uses them to compute the list of captured
  variables at code-generation time.
* next to ``free`` each handle carries the other read facts of
  :mod:`repro.compiler.reads` (``head``, ``later``), from which
  :meth:`ObjectCodeBackend.let` picks one of the three let combinators —
  so no binding is stored that only its first read needs, and the
  residual templates are the fixpoint of the slot passes of
  :mod:`repro.vm.opt`, which generation never runs.
* serious code has two emitters because ANF's control-flow distinction is
  resolved by the *consumer*: a let-rhs compiles to ``CALL`` and a tail
  position to ``TAIL_CALL``.

Completed residual definitions are assembled (relocated) into VM templates
and installed in a fresh :class:`~repro.vm.machine.Machine` — "code for
immediate execution by the run-time system" (§8.2).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.compiler.annotated import DepthTracker, GenCenv
from repro.compiler.cenv import CompileTimeEnv
from repro.compiler.combinator_source import load_combinator_module
from repro.compiler.reads import (
    EMPTY as _EMPTY,
    HELD,
    STORED,
    if_reads,
    lambda_reads,
    let_reads,
    let_shape,
    sequence_reads,
)
from repro.lang.gensym import Gensym
from repro.lang.prims import PRIMITIVES
from repro.pe.backend import ResidualProgram
from repro.pe.errors import SpecializationError
from repro.sexp.datum import Symbol
from repro.vm.assembler import assemble
from repro.vm.machine import Machine, VmClosure
from repro.vm.template import Template
from repro.vm.verify import verify_template

# The printed combinators (§6.3.2), loaded once.
_PRINTED = load_combinator_module()
make_residual_call = _PRINTED["make_residual_call"]
make_residual_const = _PRINTED["make_residual_const"]
make_residual_if = _PRINTED["make_residual_if"]
make_residual_lambda = _PRINTED["make_residual_lambda"]
make_residual_let = _PRINTED["make_residual_let"]
make_residual_let_held = _PRINTED["make_residual_let_held"]
make_residual_let_unread = _PRINTED["make_residual_let_unread"]
make_residual_prim = _PRINTED["make_residual_prim"]
make_residual_return = _PRINTED["make_residual_return"]
make_residual_tail_call = _PRINTED["make_residual_tail_call"]
make_residual_variable = _PRINTED["make_residual_variable"]


class TrivCode:
    """Trivial residual code: emits a value into ``val``.

    ``free``/``head``/``later``/``holds`` are its read facts
    (:mod:`repro.compiler.reads`).
    """

    __slots__ = ("emit", "free", "head", "later", "holds")

    def __init__(
        self,
        emit: Callable[[GenCenv, int], Any],
        free: frozenset,
        head: Any = None,
        later: frozenset = _EMPTY,
        holds: bool = False,
    ):
        self.emit = emit
        self.free = free
        self.head = head
        self.later = later
        self.holds = holds


class SeriousCode:
    """Serious residual code: a call or primitive application."""

    __slots__ = ("emit_value", "emit_tail", "free", "head", "later")
    holds = False

    def __init__(
        self,
        emit_value: Callable[[GenCenv, int], Any],
        emit_tail: Callable[[GenCenv, int], Any],
        free: frozenset,
        head: Any,
        later: frozenset,
    ):
        self.emit_value = emit_value
        self.emit_tail = emit_tail
        self.free = free
        self.head = head
        self.later = later


class BodyCode:
    """Complete tail code for a residual function or branch."""

    __slots__ = ("emit", "free", "head", "later")
    holds = False

    def __init__(
        self,
        emit: Callable[[GenCenv, int], Any],
        free: frozenset,
        head: Any,
        later: frozenset,
    ):
        self.emit = emit
        self.free = free
        self.head = head
        self.later = later


class ObjectCodeBackend:
    """The fused backend: residual programs materialize as VM templates.

    Every template is run through the bytecode verifier as it is
    relocated — RTCG-generated code is checked at generation time, before
    it is installed in the machine.  The
    combinators already emit what the dataflow bytecode optimizer
    (:mod:`repro.vm.opt`) would keep of naive code, so no optimizer runs
    here.
    """

    kind = "object"

    def __init__(self) -> None:
        self.machine = Machine()
        self.templates: dict[Symbol, Template] = {}
        # Residual function names: one machine, one namespace.
        self.names = Gensym("f")

    # -- trivial constructors ----------------------------------------------------

    def const(self, value: Any) -> TrivCode:
        return TrivCode(make_residual_const(value), _EMPTY)

    def var(self, name: Symbol) -> TrivCode:
        return TrivCode(
            make_residual_variable(name), frozenset((name,)), name, _EMPTY,
            True,
        )

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

        return TrivCode(emit, free, *lambda_reads(free))

    # -- serious constructors --------------------------------------------------------

    def prim(self, op: Symbol, args: Sequence[TrivCode]) -> SeriousCode:
        spec = PRIMITIVES.get(op)
        if spec is None:
            raise SpecializationError(f"unknown primitive {op}")
        emits = tuple(a.emit for a in args)
        value = make_residual_prim(spec, emits)
        return SeriousCode(
            value, make_residual_return(value), *sequence_reads(args)
        )

    def call(self, fn: TrivCode, args: Sequence[TrivCode]) -> SeriousCode:
        emits = tuple(a.emit for a in args)
        return SeriousCode(
            make_residual_call(fn.emit, emits),
            make_residual_tail_call(fn.emit, emits),
            *sequence_reads((fn, *args)),
        )

    # -- body constructors ---------------------------------------------------------------

    def let(self, var: Symbol, rhs: SeriousCode, body: BodyCode) -> BodyCode:
        rhs_emit = rhs.emit_value if isinstance(rhs, SeriousCode) else rhs.emit
        shape = let_shape(var, body)
        if shape is STORED:
            emit = make_residual_let(var, rhs_emit, body.emit)
        elif shape is HELD:
            emit = make_residual_let_held(var, rhs_emit, body.emit)
        else:
            emit = make_residual_let_unread(rhs_emit, body.emit)
        return BodyCode(emit, *let_reads(var, shape, rhs, body))

    def if_(self, test: TrivCode, then: BodyCode, alt: BodyCode) -> BodyCode:
        return BodyCode(
            make_residual_if(test.emit, then.emit, alt.emit),
            *if_reads(test, then, alt),
        )

    def ret(self, triv: TrivCode) -> BodyCode:
        return BodyCode(
            make_residual_return(triv.emit), triv.free, triv.head, triv.later
        )

    def tail(self, serious: SeriousCode) -> BodyCode:
        return BodyCode(
            serious.emit_tail, serious.free, serious.head, serious.later
        )

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
        verify_template(template)
        self.templates[name] = template
        self.machine.define(name, VmClosure(template, ()))

    def finish(
        self, goal: Symbol, goal_params: tuple[Symbol, ...]
    ) -> ResidualProgram:
        return ResidualProgram(
            goal=goal, goal_params=goal_params, machine=self.machine
        )

