"""The virtual machine interpreter.

Execution model: a current frame (template, pc, local slots, operand
stack, closure environment) plus a continuation stack of saved frames.
``TAIL_CALL`` replaces the current frame, so Scheme-level loops run in
constant space; ``CALL`` pushes the current frame as a return continuation,
implementing the non-tail ``(let (x (f ...)) M)`` forms of ANF.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.lang.prims import PrimSpec, register_procedure_type
from repro.runtime.errors import SchemeError
from repro.sexp.datum import Symbol
from repro.vm.template import Template


class VMError(SchemeError):
    """A run-time error raised by the VM itself."""


class VmClosure:
    """A procedure value of the VM: a template plus captured values."""

    __slots__ = ("template", "env")

    def __init__(self, template: Template, env: tuple):
        self.template = template
        self.env = env

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"#<vm-closure {self.template.name}/{self.template.arity}>"


register_procedure_type(VmClosure)


def entry_frame(fn: Any, args: Sequence[Any]) -> tuple[Template, list, tuple]:
    """``(template, locals, closed)`` of a top-level call of ``fn`` on ``args``.

    The one entry check of both dispatch loops: ``Machine.call`` and
    ``vm/profile.py::call_profiled`` raise the same errors.
    """
    if not isinstance(fn, VmClosure):
        raise VMError(f"attempt to apply non-procedure {fn!r}")
    template = fn.template
    if template.arity != len(args):
        raise VMError(
            f"{template.name}: expected {template.arity} arguments,"
            f" got {len(args)}"
        )
    locals_ = list(args) + [None] * (template.nlocals - template.arity)
    return template, locals_, fn.env


class Machine:
    """A VM instance with a global environment."""

    def __init__(self, globals_: dict[Symbol, Any] | None = None):
        self.globals: dict[Symbol, Any] = globals_ if globals_ is not None else {}

    def define(self, name: Symbol, value: Any) -> None:
        self.globals[name] = value

    def procedure(self, name: Symbol) -> Any:
        try:
            return self.globals[name]
        except KeyError:
            raise VMError(f"undefined global: {name}") from None

    def call(self, fn: Any, args: Sequence[Any]) -> Any:
        """Apply a VM procedure value to arguments and run to completion."""
        return self._run(*entry_frame(fn, args))

    def call_named(self, name: Symbol, args: Sequence[Any]) -> Any:
        return self.call(self.procedure(name), args)

    # -- the dispatch loop ---------------------------------------------------
    #
    # ``vm/profile.py::_run_counting`` is this loop plus its count lines;
    # ``tests/test_dispatch.py`` holds the two congruent.  Each arm tests
    # a plain int (``op == 1:  # CONST``): a named constant would cost a
    # global load on every arm test (DESIGN §5h).

    def _run(self, template, locals_, closed):
        """Run ``template`` to completion.

        Continuations are (template, pc, locals, stack, closed)."""
        code = template.code
        literals = template.literals
        pc = 0
        val = None
        stack = []
        conts = []
        globals_ = self.globals
        while True:
            instr = code[pc]
            op = instr[0]
            pc += 1
            if op == 1:  # CONST
                val = literals[instr[1]]
            elif op == 2:  # LOCAL
                val = locals_[instr[1]]
            elif op == 3:  # CLOSED
                val = closed[instr[1]]
            elif op == 4:  # GLOBAL
                name = literals[instr[1]]
                try:
                    val = globals_[name]
                except KeyError:
                    raise VMError(f"undefined global: {name}") from None
            elif op == 5:  # PUSH
                stack.append(val)
            elif op == 6:  # SETLOC
                locals_[instr[1]] = val
            elif op == 7:  # PRIM
                spec = literals[instr[1]]
                n = instr[2]
                if n:
                    args = stack[-n:]
                    del stack[-n:]
                else:
                    args = []
                val = spec.apply(args)
            elif op == 8:  # MAKE_CLOSURE
                sub = literals[instr[1]]
                n = instr[2]
                if n:
                    env = tuple(stack[-n:])
                    del stack[-n:]
                else:
                    env = ()
                val = VmClosure(sub, env)
            elif op == 9:  # JUMP
                pc = instr[1]
            elif op == 10:  # JUMP_IF_FALSE
                if val is False:
                    pc = instr[1]
            elif op == 12:  # TAIL_CALL
                n = instr[1]
                if n:
                    args = stack[-n:]
                    del stack[-n:]
                else:
                    args = []
                fn = stack.pop()
                if isinstance(fn, VmClosure):
                    template = fn.template
                    if template.arity != n:
                        raise VMError(
                            f"{template.name}: expected {template.arity}"
                            f" arguments, got {n}"
                        )
                    code = template.code
                    literals = template.literals
                    locals_ = args + [None] * (template.nlocals - n)
                    closed = fn.env
                    stack = []
                    pc = 0
                elif isinstance(fn, PrimSpec):
                    val = fn.apply(args)
                    if not conts:
                        return val
                    template, pc, locals_, stack, closed = conts.pop()
                    code = template.code
                    literals = template.literals
                else:
                    raise VMError(f"attempt to apply non-procedure {fn!r}")
            elif op == 11:  # CALL
                n = instr[1]
                if n:
                    args = stack[-n:]
                    del stack[-n:]
                else:
                    args = []
                fn = stack.pop()
                if isinstance(fn, VmClosure):
                    conts.append((template, pc, locals_, stack, closed))
                    template = fn.template
                    if template.arity != n:
                        raise VMError(
                            f"{template.name}: expected {template.arity}"
                            f" arguments, got {n}"
                        )
                    code = template.code
                    literals = template.literals
                    locals_ = args + [None] * (template.nlocals - n)
                    closed = fn.env
                    stack = []
                    pc = 0
                elif isinstance(fn, PrimSpec):
                    val = fn.apply(args)
                else:
                    raise VMError(f"attempt to apply non-procedure {fn!r}")
            elif op == 13:  # RETURN
                if not conts:
                    return val
                template, pc, locals_, stack, closed = conts.pop()
                code = template.code
                literals = template.literals
            else:  # pragma: no cover - unreachable, sound assembler
                raise VMError(f"unknown opcode {op!r}")
