"""The declarative VM instruction table and its generated dispatch loops.

The production loop ``Machine._run`` has a *counting twin* that
``profile`` and the benchmarks use; keeping the two congruent by hand
does not scale, so this module is the single source of truth for
dispatch:

* :data:`TABLE` describes every opcode once — operand count and the
  handler body as template lines.  Hook markers (``%ENTER_TEMPLATE%``,
  ``%RESUME_TEMPLATE%``) expand to profiling updates in the counting
  loop and to nothing in the production loop.
* :func:`production_loop_source` / :func:`counting_loop_source` render
  complete dispatch-loop functions from the table.  The checked-in
  loops in ``vm/machine.py`` and ``vm/profile.py`` are exactly these
  renderings (between ``BEGIN/END GENERATED DISPATCH`` markers);
  ``python -m repro.vm.dispatch --check`` is the CI drift gate and
  ``--write`` regenerates them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.vm.instructions import Op

# --------------------------------------------------------------------------
# The instruction table
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class InstrSpec:
    """One opcode's declarative description.

    ``body`` lines may use ``{a0}``/``{a1}`` for operand slots (expanded
    to ``instr[1]``/``instr[2]``) and hook-marker lines (``%NAME%``)
    that expand per-mode.
    """

    op: Op
    operands: int
    body: tuple[str, ...]


def _spec(op: Op, operands: int, body: str) -> InstrSpec:
    return InstrSpec(op, operands, tuple(body.strip("\n").splitlines()))


_SPECS = (
    _spec(Op.CONST, 1, """
val = literals[{a0}]
"""),
    _spec(Op.LOCAL, 1, """
val = locals_[{a0}]
"""),
    _spec(Op.CLOSED, 1, """
val = closed[{a0}]
"""),
    _spec(Op.GLOBAL, 1, """
name = literals[{a0}]
try:
    val = globals_[name]
except KeyError:
    raise VMError(f"undefined global: {name}") from None
"""),
    _spec(Op.PUSH, 0, """
stack.append(val)
"""),
    _spec(Op.SETLOC, 1, """
locals_[{a0}] = val
"""),
    _spec(Op.PRIM, 2, """
spec = literals[{a0}]
n = {a1}
if n:
    args = stack[-n:]
    del stack[-n:]
else:
    args = []
val = spec.apply(args)
"""),
    _spec(Op.MAKE_CLOSURE, 2, """
sub = literals[{a0}]
n = {a1}
if n:
    env = tuple(stack[-n:])
    del stack[-n:]
else:
    env = ()
val = VmClosure(sub, env)
"""),
    _spec(Op.JUMP, 1, """
pc = {a0}
"""),
    _spec(Op.JUMP_IF_FALSE, 1, """
if val is False:
    pc = {a0}
"""),
    _spec(Op.TAIL_CALL, 1, """
n = {a0}
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
    %ENTER_TEMPLATE%
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
    %RESUME_TEMPLATE%
else:
    raise VMError(f"attempt to apply non-procedure {fn!r}")
"""),
    _spec(Op.CALL, 1, """
n = {a0}
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
    %ENTER_TEMPLATE%
    locals_ = args + [None] * (template.nlocals - n)
    closed = fn.env
    stack = []
    pc = 0
elif isinstance(fn, PrimSpec):
    val = fn.apply(args)
else:
    raise VMError(f"attempt to apply non-procedure {fn!r}")
"""),
    _spec(Op.RETURN, 0, """
if not conts:
    return val
template, pc, locals_, stack, closed = conts.pop()
code = template.code
literals = template.literals
%RESUME_TEMPLATE%
"""),
)

#: Dispatch-chain order (hottest opcodes first).
ORDER: tuple[Op, ...] = tuple(spec.op for spec in _SPECS)

#: Opcode -> spec.  Keyed by ``Op`` members, which hash and compare
#: like their int values, so template opcodes index it directly.
TABLE: dict[int, InstrSpec] = {spec.op: spec for spec in _SPECS}


def operand_count(op: int) -> int:
    """Operand slots of an opcode, from the table."""
    return TABLE[op].operands


# --------------------------------------------------------------------------
# Source rendering
# --------------------------------------------------------------------------

_HOOKS: dict[str, dict[str, tuple[str, ...]]] = {
    "production": {
        "%ENTER_TEMPLATE%": (),
        "%RESUME_TEMPLATE%": (),
    },
    "counting": {
        "%ENTER_TEMPLATE%": (
            "tkey = profile._ident(template)",
            "tmpl_invocations[tkey] = tmpl_invocations.get(tkey, 0) + 1",
        ),
        "%RESUME_TEMPLATE%": (
            "tkey = profile._ident(template)",
        ),
    },
}


def _expand(lines: Iterable[str], mode: str) -> list[str]:
    """Expand hooks and operand placeholders (operands start at instr[1])."""
    out: list[str] = []
    for line in lines:
        stripped = line.strip()
        if stripped.startswith("%") and stripped.endswith("%"):
            pad = line[: len(line) - len(stripped)]
            out.extend(pad + repl for repl in _HOOKS[mode][stripped])
            continue
        for slot in range(4):
            line = line.replace("{a%d}" % slot, f"instr[{1 + slot}]")
        out.append(line)
    return out


def _loop_lines(counting: bool) -> list[str]:
    mode = "counting" if counting else "production"
    out: list[str] = []

    if counting:
        out.append("def _run_counting(machine, template, locals_, closed, profile):")
        out.append('    """Counting twin of ``Machine._run``.')
        out.append("")
        out.append("    Generated from the instruction table in")
        out.append("    ``repro.vm.dispatch`` -- semantics match the")
        out.append("    production loop by construction; the only additions")
        out.append("    are the count updates (opcodes and per-template")
        out.append('    attribution by content identity)."""')
        out.append("    opcode_counts = profile.opcode_counts")
        out.append("    tmpl_instrs = profile.template_instructions")
        out.append("    tmpl_invocations = profile.template_invocations")
        out.append("    code = template.code")
        out.append("    literals = template.literals")
        out.append("    tkey = profile._ident(template)")
        out.append("    tmpl_invocations[tkey] = tmpl_invocations.get(tkey, 0) + 1")
        out.append("    pc = 0")
        out.append("    val = None")
        out.append("    stack = []")
        out.append("    conts = []")
        out.append("    globals_ = machine.globals")
    else:
        out.append("def _run(self, template, locals_, closed):")
        out.append('    """Run ``template`` to completion.')
        out.append("")
        out.append("    Generated from the instruction table in")
        out.append("    ``repro.vm.dispatch`` -- do not edit by hand.")
        out.append('    Continuations are (template, pc, locals, stack, closed)."""')
        out.append("    code = template.code")
        out.append("    literals = template.literals")
        out.append("    pc = 0")
        out.append("    val = None")
        out.append("    stack = []")
        out.append("    conts = []")
        out.append("    globals_ = self.globals")

    out.append("    while True:")
    out.append("        instr = code[pc]")
    out.append("        op = instr[0]")
    out.append("        pc += 1")
    if counting:
        out.append("        opcode_counts[op] = opcode_counts.get(op, 0) + 1")
        out.append("        tmpl_instrs[tkey] = tmpl_instrs.get(tkey, 0) + 1")

    keyword = "if"
    for op in ORDER:
        out.append(f"        {keyword} op == {op.value}:  # {op.name}")
        out.extend("            " + line for line in _expand(TABLE[op].body, mode))
        keyword = "elif"
    out.append("        else:  # pragma: no cover - unreachable, sound assembler")
    out.append('            raise VMError(f"unknown opcode {op!r}")')
    return out


def _indented(lines: list[str], indent: int) -> str:
    pad = " " * indent
    return "\n".join(pad + line if line else line for line in lines)


def production_loop_source(indent: int = 0) -> str:
    """Source text of the production dispatch loop (``def _run(self, ...)``)."""
    return _indented(_loop_lines(counting=False), indent)


def counting_loop_source(indent: int = 0) -> str:
    """Source text of the counting dispatch loop (``def _run_counting(...)``)."""
    return _indented(_loop_lines(counting=True), indent)


# --------------------------------------------------------------------------
# Checked-in loop regions: drift gate
# --------------------------------------------------------------------------

_GENERATED_TARGETS: tuple[tuple[str, str, Callable[[], str]], ...] = (
    ("machine.py", "production loop", lambda: production_loop_source(indent=4)),
    ("profile.py", "counting loop", lambda: counting_loop_source(indent=0)),
)


def _markers(label: str) -> tuple[str, str]:
    return (
        f"# --- BEGIN GENERATED DISPATCH: {label} ---",
        f"# --- END GENERATED DISPATCH: {label} ---",
    )


def _split_region(text: str, label: str, filename: str) -> tuple[str, str, str]:
    begin, end = _markers(label)
    lines = text.splitlines(keepends=True)
    start = stop = -1
    for i, line in enumerate(lines):
        if line.strip() == begin:
            start = i
        elif line.strip() == end:
            stop = i
    if start < 0 or stop < 0 or stop <= start:
        raise RuntimeError(f"{filename}: generated-dispatch markers not found")
    head = "".join(lines[: start + 1])
    body = "".join(lines[start + 1 : stop])
    tail = "".join(lines[stop:])
    return head, body, tail


def check_drift() -> list[str]:
    """Compare the checked-in loops against the table rendering.

    Returns a list of human-readable mismatch descriptions (empty when
    the tree is in sync) — the CI dispatch-drift gate.
    """
    here = Path(__file__).resolve().parent
    problems: list[str] = []
    for filename, label, render in _GENERATED_TARGETS:
        path = here / filename
        text = path.read_text(encoding="utf-8")
        try:
            _head, body, _tail = _split_region(text, label, filename)
        except RuntimeError as exc:
            problems.append(str(exc))
            continue
        expected = render() + "\n"
        if body != expected:
            problems.append(
                f"{filename}: checked-in {label} differs from the "
                f"instruction-table rendering (run `python -m "
                f"repro.vm.dispatch --write`)"
            )
    return problems


def write_generated() -> list[str]:
    """Regenerate the checked-in loop regions; returns rewritten files."""
    here = Path(__file__).resolve().parent
    rewritten: list[str] = []
    for filename, label, render in _GENERATED_TARGETS:
        path = here / filename
        text = path.read_text(encoding="utf-8")
        head, body, tail = _split_region(text, label, filename)
        expected = render() + "\n"
        if body != expected:
            path.write_text(head + expected + tail, encoding="utf-8")
            rewritten.append(filename)
    return rewritten


def main(argv: Sequence[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.vm.dispatch",
        description=(
            "Regenerate or check the dispatch loops generated from the "
            "declarative instruction table."
        ),
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) if the checked-in loops drifted from the table",
    )
    group.add_argument(
        "--write",
        action="store_true",
        help="rewrite the generated loop regions in machine.py/profile.py",
    )
    group.add_argument(
        "--print",
        choices=["production", "counting"],
        dest="print_mode",
        help="print one generated loop to stdout",
    )
    args = parser.parse_args(argv)

    if args.print_mode:
        if args.print_mode == "production":
            print(production_loop_source())
        else:
            print(counting_loop_source())
        return 0
    if args.write:
        rewritten = write_generated()
        if rewritten:
            print("regenerated: " + ", ".join(rewritten))
        else:
            print("generated dispatch loops already in sync")
        return 0
    problems = check_drift()
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print("generated dispatch loops in sync with the instruction table")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
