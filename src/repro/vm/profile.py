"""Opt-in VM execution profiling: a *counting* variant of the dispatch.

The normal dispatch loop (:meth:`repro.vm.machine.Machine._run`) is the
hot path of everything this system produces, so it carries no
instrumentation at all — not even a disabled-check per instruction.
Profiling instead runs the program through :func:`call_profiled`, a
separate dispatch loop that is semantically identical (the VM edge-case
suite runs through both loops) but counts as it goes:

* per-opcode execution counts,
* per-template invocation counts and instruction counts,
* total instructions retired,

collected into a :class:`VMProfile`, whose :meth:`~VMProfile.hot_templates`
ranking answers the question Figs. 6-8 keep circling: *which* residual
code the time goes into.  The trust model is explicit: profiled numbers
come from a different loop than production runs, so they are execution
*counts* (exact, deterministic), not wall-clock attributions.

The counting loop is checked-in code like the production loop, and
``tests/test_dispatch.py`` keeps the two congruent: past the frame
set-up, :func:`_run_counting` must be ``Machine._run`` plus exactly its
count lines, and no arm of either may read an operand slot beyond
:data:`~repro.vm.instructions.OPERAND_COUNTS`.

Attribution identity
--------------------

Counts are keyed by :class:`TemplateIdent` — ``(name, content digest)``
— not by bare name.  Distinct templates that share a name (every nested
``anonymous`` closure, re-specialized twins) keep separate rows;
structurally identical twins (e.g. memo-shared copies) merge, which is
the right answer for "where does the time go".  ``report()``/``to_json()`` still
render human-readable names, adding a short digest suffix only when a
name is ambiguous within the profile.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Sequence

from repro.lang.prims import PrimSpec
from repro.sexp.datum import Symbol
from repro.vm.instructions import opcode_name
from repro.vm.machine import Machine, VmClosure, VMError, entry_frame
from repro.vm.template import Template


class TemplateIdent(NamedTuple):
    """Stable per-template identity: name plus content digest."""

    name: str
    digest: str

    @property
    def short(self) -> str:
        """``name#digest8`` — the unambiguous display form."""
        return f"{self.name}#{self.digest[:8]}"


class VMProfile:
    """Execution counts collected by the profiled dispatch loop."""

    def __init__(self) -> None:
        # Opcode keys are plain ints, as in template code.
        self.opcode_counts: dict[int, int] = {}
        self.template_invocations: dict[TemplateIdent, int] = {}
        self.template_instructions: dict[TemplateIdent, int] = {}
        self.calls = 0                 # top-level call_profiled entries
        # id(template) -> TemplateIdent.  The digest is content-stable,
        # but the id-keyed fast path must never dangle: ``_pinned``
        # holds a strong reference to every template seen, so an id
        # cannot be recycled for the lifetime of this profile.
        self._idents: dict[int, TemplateIdent] = {}
        self._pinned: list[Template] = []

    # -- attribution --------------------------------------------------------

    def _ident(self, template: Template) -> TemplateIdent:
        """The counting loops' per-frame key (id-cached digest)."""
        found = self._idents.get(id(template))
        if found is not None:
            return found
        ident = TemplateIdent(template.name, template.content_digest())
        self._idents[id(template)] = ident
        self._pinned.append(template)
        return ident

    def _display_names(self) -> dict[TemplateIdent, str]:
        """Bare names where unambiguous, ``name#digest8`` where not."""
        by_name: dict[str, int] = {}
        for ident in self.template_instructions:
            by_name[ident.name] = by_name.get(ident.name, 0) + 1
        for ident in self.template_invocations:
            if ident not in self.template_instructions:
                by_name[ident.name] = by_name.get(ident.name, 0) + 1
        return {
            ident: (ident.name if by_name.get(ident.name, 0) == 1 else ident.short)
            for ident in set(self.template_instructions)
            | set(self.template_invocations)
        }

    # -- accessors ----------------------------------------------------------

    @property
    def total_instructions(self) -> int:
        return sum(self.opcode_counts.values())

    def hot_templates(self, n: int = 10) -> list[tuple[str, int, int]]:
        """``(display name, instructions, invocations)`` by instructions.

        Rows are per template *identity*: same-named distinct templates
        stay separate (disambiguated as ``name#digest8``).
        """
        display = self._display_names()
        ranked = sorted(
            self.template_instructions.items(),
            key=lambda item: (-item[1], display[item[0]]),
        )
        return [
            (display[ident], instrs, self.template_invocations.get(ident, 0))
            for ident, instrs in ranked[:n]
        ]

    def to_json(self) -> dict[str, Any]:
        """Machine-readable profile; empty profiles render as empty maps,

        mirroring the text report's ``(none)`` rows (no placeholder
        entries, no shape change).
        """
        display = self._display_names()
        templates = {
            display[ident]: {
                "name": ident.name,
                "digest": ident.digest,
                "instructions": instrs,
                "invocations": self.template_invocations.get(ident, 0),
            }
            for ident, instrs in sorted(
                self.template_instructions.items(),
                key=lambda item: (-item[1], display[item[0]]),
            )
        }
        return {
            "calls": self.calls,
            "total_instructions": self.total_instructions,
            "opcodes": {
                opcode_name(op): count
                for op, count in sorted(
                    self.opcode_counts.items(),
                    key=lambda item: (-item[1], int(item[0])),
                )
            },
            "templates": templates,
        }

    def report(self, top: int = 10) -> str:
        """A plain-text profile: opcode mix plus the hot-template ranking."""
        lines = [
            f"calls: {self.calls}"
            f"   instructions retired: {self.total_instructions}",
            "",
            "opcode counts:",
        ]
        total = self.total_instructions or 1
        for op, count in sorted(
            self.opcode_counts.items(), key=lambda item: (-item[1], int(item[0]))
        ):
            lines.append(
                f"  {opcode_name(op):<16} {count:10d}"
                f"  {100.0 * count / total:5.1f}%"
            )
        if not self.opcode_counts:
            lines.append("  (none)")
        lines.append("")
        lines.append(f"hot templates (top {top} by instructions):")
        for name, instrs, invocations in self.hot_templates(top):
            lines.append(
                f"  {name:<28} {instrs:10d} instr"
                f"  {invocations:8d} invocation(s)"
            )
        if not self.template_instructions:
            lines.append("  (none)")
        return "\n".join(lines)


def call_profiled(
    machine: Machine, fn: Any, args: Sequence[Any], profile: VMProfile
) -> Any:
    """Apply a VM procedure under the counting dispatch loop.

    Mirrors :meth:`Machine.call`; results and raised errors are
    identical to the unprofiled loop.
    """
    template, locals_, closed = entry_frame(fn, args)
    profile.calls += 1
    return _run_counting(machine, template, locals_, closed, profile)


def call_named_profiled(
    machine: Machine, name: Symbol, args: Sequence[Any], profile: VMProfile
) -> Any:
    return call_profiled(machine, machine.procedure(name), args, profile)


def _run_counting(machine, template, locals_, closed, profile):
    """Counting twin of ``Machine._run``: the same loop plus its count
    lines (per opcode, per template, per frame entry), so an edit to an
    arm of one loop is made to both."""
    opcode_counts = profile.opcode_counts
    tmpl_instrs = profile.template_instructions
    tmpl_invocations = profile.template_invocations
    code = template.code
    literals = template.literals
    tkey = profile._ident(template)
    tmpl_invocations[tkey] = tmpl_invocations.get(tkey, 0) + 1
    pc = 0
    val = None
    stack = []
    conts = []
    globals_ = machine.globals
    while True:
        instr = code[pc]
        op = instr[0]
        pc += 1
        opcode_counts[op] = opcode_counts.get(op, 0) + 1
        tmpl_instrs[tkey] = tmpl_instrs.get(tkey, 0) + 1
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
                tkey = profile._ident(template)
                tmpl_invocations[tkey] = tmpl_invocations.get(tkey, 0) + 1
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
                tkey = profile._ident(template)
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
                tkey = profile._ident(template)
                tmpl_invocations[tkey] = tmpl_invocations.get(tkey, 0) + 1
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
            tkey = profile._ident(template)
        else:  # pragma: no cover - unreachable, sound assembler
            raise VMError(f"unknown opcode {op!r}")
