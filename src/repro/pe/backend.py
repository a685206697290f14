"""The residual-code constructor interface and the source backend.

The specializer is parameterized over the functions that construct residual
code — the paper's point (§5.4): "we parameterize [the specializer] over
the (standard) syntax constructors and provide alternative implementations
for them: one that constructs syntax and another one that corresponds to
the compiler".

:class:`SourceBackend` is the first implementation: it builds residual
*source* programs (CS abstract syntax in ANF).  The second implementation —
the object-code backend assembled from the compiler's code-generation
combinators — lives in :mod:`repro.compiler.fusion`; it is the composition
the paper is about.

Handle disciplines a backend must obey (the specializer relies on them):

* ``var``/``const``/``lam``/``global_ref`` produce *trivial* handles;
* ``prim``/``call`` produce *serious* handles, which the specializer
  immediately puts into ``let`` or ``tail`` position (the ANF discipline);
* ``let``/``if_``/``ret``/``tail`` produce *body* handles;
* ``define`` consumes a body for one residual top-level function, named
  from the backend's own supply (``names``);
* ``finish`` wraps the definitions up as a :class:`ResidualProgram`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol, Sequence

from repro.lang.ast import (
    App,
    Const,
    Def,
    Expr,
    If,
    Lam,
    Let,
    Prim,
    Program,
    Var,
)
from repro.lang.gensym import Gensym
from repro.runtime.values import value_to_datum
from repro.sexp.datum import Symbol


class Backend(Protocol):
    """What the specializer needs from a residual-code constructor set."""

    #: Cache-key discriminator: which artifact this backend produces
    #: (``"source"``, ``"object"``, ...).  Residual programs generated
    #: through different kinds must never share a memo-cache entry.
    kind: str

    #: The supply of residual function names.  The backend owns the
    #: namespace its definitions land in, so every run into one backend
    #: draws distinct names from it.
    names: Gensym

    def const(self, value: Any) -> Any: ...

    def var(self, name: Symbol) -> Any: ...

    def global_ref(self, name: Symbol) -> Any: ...

    def lam(self, params: Sequence[Symbol], body: Any) -> Any: ...

    def prim(self, op: Symbol, args: Sequence[Any]) -> Any: ...

    def call(self, fn: Any, args: Sequence[Any]) -> Any: ...

    def let(self, var: Symbol, rhs: Any, body: Any) -> Any: ...

    def if_(self, test: Any, then: Any, alt: Any) -> Any: ...

    def ret(self, triv: Any) -> Any: ...

    def tail(self, serious: Any) -> Any: ...

    def define(self, name: Symbol, params: Sequence[Symbol], body: Any) -> None: ...

    def finish(
        self, goal: Symbol, goal_params: tuple[Symbol, ...]
    ) -> "ResidualProgram": ...


@dataclass
class ResidualProgram:
    """What specialization produces, in backend-independent terms.

    ``goal`` names the entry point; ``goal_params`` are its (dynamic)
    parameters.  The concrete artifact depends on the backend:
    :attr:`program` for source, :attr:`machine` for object code.

    **Immutability contract**: once a ``ResidualProgram`` enters the
    residual cache it is shared across callers and threads and must
    never be mutated — in particular, ``stats`` on a cached object
    holds only *production* facts (``disk_hit``, image digest,
    residual size), written before publication.  Per-call facts
    (``cache_hit``, cache snapshots) belong on the shallow views
    minted by :meth:`with_call_stats`.
    """

    goal: Symbol
    goal_params: tuple[Symbol, ...]
    program: Program | None = None      # source backend
    machine: Any = None                 # object-code backend
    stats: dict = field(default_factory=dict)

    def run(self, args: Sequence[Any]) -> Any:
        """Run the residual program on dynamic arguments."""
        if self.machine is not None:
            return self.machine.call_named(self.goal, list(args))
        from repro.interp import run_program

        return run_program(self.program, list(args))

    def run_profiled(self, args: Sequence[Any], profile: Any) -> Any:
        """Run under the VM's counting dispatch loop (object code only).

        ``profile`` is a :class:`repro.vm.profile.VMProfile`; it
        accumulates per-opcode and per-template execution counts.  Raises
        for source-backed residual programs, which have no templates to
        profile.
        """
        if self.machine is None:
            raise ValueError(
                f"{self.goal}: run_profiled requires an object-code"
                " residual program (this one is source-backed)"
            )
        from repro.vm.profile import call_named_profiled

        return call_named_profiled(self.machine, self.goal, list(args), profile)

    def with_call_stats(self, **per_call: Any) -> "ResidualProgram":
        """A shallow per-call view with extra stats entries.

        Cached residual programs are **immutable after insertion** —
        concurrent callers share them, so per-call facts (``cache_hit``,
        cache snapshots) must never be written into the shared ``stats``
        dict.  This returns a new :class:`ResidualProgram` sharing the
        artifact (``program``/``machine``) but owning a fresh merged
        ``stats`` dict, so each caller sees its own metadata.
        """
        merged = dict(self.stats)
        merged.update(per_call)
        return ResidualProgram(
            goal=self.goal,
            goal_params=self.goal_params,
            program=self.program,
            machine=self.machine,
            stats=merged,
        )

    def fingerprint(self) -> str:
        """A stable textual identity for the residual artifact.

        Two residual programs with equal fingerprints contain the same
        code, byte for byte: the disassembly of every installed template
        (object code) or the unparsed definitions (source).  Used by the
        cache/concurrency tests to assert that regeneration and cache
        hits produce identical code.
        """
        if self.machine is not None:
            from repro.vm.disasm import disassemble
            from repro.vm.machine import VmClosure

            parts = []
            for name in sorted(self.machine.globals, key=lambda s: s.name):
                value = self.machine.globals[name]
                if isinstance(value, VmClosure):
                    parts.append(disassemble(value.template))
            return "\n".join(parts)
        from repro.lang.unparse import unparse_program
        from repro.sexp.writer import write

        return "\n".join(write(d) for d in unparse_program(self.program))


class SourceBackend:
    """Builds residual programs as CS abstract syntax (always in ANF)."""

    kind = "source"

    def __init__(self) -> None:
        self.defs: list[Def] = []
        self.names = Gensym("f")

    # -- trivial constructors ------------------------------------------------

    def const(self, value: Any) -> Expr:
        return Const(_freeze_datum(value))

    def var(self, name: Symbol) -> Expr:
        return Var(name)

    def global_ref(self, name: Symbol) -> Expr:
        return Var(name)

    def lam(self, params: Sequence[Symbol], body: Expr) -> Expr:
        return Lam(tuple(params), body)

    # -- serious constructors ---------------------------------------------------

    def prim(self, op: Symbol, args: Sequence[Expr]) -> Expr:
        return Prim(op, tuple(args))

    def call(self, fn: Expr, args: Sequence[Expr]) -> Expr:
        return App(fn, tuple(args))

    # -- body constructors ---------------------------------------------------------

    def let(self, var: Symbol, rhs: Expr, body: Expr) -> Expr:
        return Let(var, rhs, body)

    def if_(self, test: Expr, then: Expr, alt: Expr) -> Expr:
        return If(test, then, alt)

    def ret(self, triv: Expr) -> Expr:
        return triv

    def tail(self, serious: Expr) -> Expr:
        return serious

    # -- definitions ------------------------------------------------------------------

    def define(self, name: Symbol, params: Sequence[Symbol], body: Expr) -> None:
        self.defs.append(Def(name, tuple(params), body))

    def finish(self, goal: Symbol, goal_params: tuple[Symbol, ...]) -> ResidualProgram:
        program = Program(tuple(self.defs), goal)
        return ResidualProgram(goal=goal, goal_params=goal_params, program=program)


def _freeze_datum(value: Any) -> Any:
    """Convert a run-time value into frozen constant data for a Const."""
    datum = value_to_datum(value)
    return _tupleize(datum)


def _tupleize(datum: Any) -> Any:
    if isinstance(datum, list):
        return tuple(_tupleize(d) for d in datum)
    return datum
