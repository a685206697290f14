"""The declarative VM instruction table and its generated dispatch loops.

PR 5 added a *counting twin* of ``Machine._run`` and kept the two loops
congruent by hand (pinned by the edge-case suite).  That discipline does
not survive superinstructions: fused handlers are synthesized per
:class:`FusionPlan`, so hand-maintained twins would multiply.  Instead,
this module is the single source of truth for dispatch:

* :data:`TABLE` describes every base opcode once — operand count,
  fusability, and the handler body as template lines.  Hook markers
  (``%ENTER_TEMPLATE%``, ``%RESUME_TEMPLATE%``) expand to profiling
  updates in the counting loop and to nothing in the production loop.
* :func:`production_loop_source` / :func:`counting_loop_source` render
  complete dispatch-loop functions from the table.  The checked-in
  loops in ``vm/machine.py`` and ``vm/profile.py`` are exactly these
  renderings (between ``BEGIN/END GENERATED DISPATCH`` markers);
  ``python -m repro.vm.dispatch --check`` is the CI drift gate and
  ``--write`` regenerates them.
* :func:`build_loop` ``exec``-compiles the same rendering at run time,
  optionally extended with fused handlers for a :class:`FusionPlan` —
  this is how ``vm/superinst.py`` obtains production and counting loops
  for superinstruction-enabled machines.  Congruence between all
  generated loops is therefore by construction, not by review.

Fused opcodes are allocated from :data:`FUSED_BASE` upward (the base
ISA stops well below it) and interned process-wide by opcode sequence,
so templates fused under different plans agree on opcode meaning and
the disassembler can name any fused instruction via :func:`opcode_name`.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.vm.instructions import OP_NAMES, Op

# --------------------------------------------------------------------------
# The instruction table
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class InstrSpec:
    """One opcode's declarative description.

    ``body`` lines may use ``{a0}``/``{a1}`` for operand slots (expanded
    to ``instr[k]`` with the right offset, also when concatenated into a
    fused handler) and hook-marker lines (``%NAME%``) that expand
    per-mode.  ``fusable`` marks straight-line handlers that neither
    branch nor switch frames; only those may join a superinstruction.
    """

    op: Op
    operands: int
    fusable: bool
    body: tuple[str, ...]


def _spec(op: Op, operands: int, fusable: bool, body: str) -> InstrSpec:
    return InstrSpec(op, operands, fusable, tuple(body.strip("\n").splitlines()))


_SPECS = (
    _spec(Op.CONST, 1, True, """
val = literals[{a0}]
"""),
    _spec(Op.LOCAL, 1, True, """
val = locals_[{a0}]
"""),
    _spec(Op.CLOSED, 1, True, """
val = closed[{a0}]
"""),
    _spec(Op.GLOBAL, 1, True, """
name = literals[{a0}]
try:
    val = globals_[name]
except KeyError:
    raise VMError(f"undefined global: {name}") from None
"""),
    _spec(Op.PUSH, 0, True, """
stack.append(val)
"""),
    _spec(Op.SETLOC, 1, True, """
locals_[{a0}] = val
"""),
    _spec(Op.PRIM, 2, True, """
spec = literals[{a0}]
n = {a1}
if n:
    args = stack[-n:]
    del stack[-n:]
else:
    args = []
val = spec.apply(args)
"""),
    _spec(Op.MAKE_CLOSURE, 2, True, """
sub = literals[{a0}]
n = {a1}
if n:
    env = tuple(stack[-n:])
    del stack[-n:]
else:
    env = ()
val = VmClosure(sub, env)
"""),
    _spec(Op.JUMP, 1, False, """
pc = {a0}
"""),
    _spec(Op.JUMP_IF_FALSE, 1, False, """
if val is False:
    pc = {a0}
"""),
    _spec(Op.TAIL_CALL, 1, False, """
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
    _spec(Op.CALL, 1, False, """
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
    _spec(Op.RETURN, 0, False, """
if not conts:
    return val
template, pc, locals_, stack, closed = conts.pop()
code = template.code
literals = template.literals
%RESUME_TEMPLATE%
"""),
)

#: Dispatch-chain order (hottest base opcodes first, matching the PR-5 loops).
ORDER: tuple[Op, ...] = tuple(spec.op for spec in _SPECS)

#: Opcode -> spec.  Keyed by ``Op`` members, which hash and compare
#: like their int values, so template opcodes index it directly.
TABLE: dict[int, InstrSpec] = {spec.op: spec for spec in _SPECS}

#: Straight-line opcodes eligible for superinstruction fusion (plain
#: ints, like the opcodes in template code).
FUSABLE_OPS: frozenset[int] = frozenset(
    spec.op.value for spec in _SPECS if spec.fusable
)


def operand_count(op: int) -> int:
    """Operand slots of a *base* opcode, from the table."""
    return TABLE[op].operands


# --------------------------------------------------------------------------
# Superinstructions: process-wide interned fused opcodes
# --------------------------------------------------------------------------

#: First fused opcode id; the base ISA (``Op``) stays well below this.
FUSED_BASE = 64

_registry_lock = threading.Lock()
_fused_by_seq: dict[tuple[int, ...], "Superinstruction"] = {}
_fused_by_opcode: dict[int, "Superinstruction"] = {}


@dataclass(frozen=True, slots=True)
class Superinstruction:
    """A fused handler for an adjacent run of base opcodes.

    ``opcode`` is a plain int outside the ``Op`` range and ``ops`` are
    the member opcodes as plain ints; the fused instruction's operands
    are the member operands concatenated in order, so lowering back to
    the base ISA is a pure un-concatenation.
    """

    opcode: int
    ops: tuple[int, ...]
    name: str

    @property
    def operands(self) -> int:
        return sum(operand_count(op) for op in self.ops)

    @property
    def dispatches_saved(self) -> int:
        """Dispatches removed per execution relative to the base sequence."""
        return len(self.ops) - 1


def superinstruction(ops: Sequence[int]) -> Superinstruction:
    """Intern a fused opcode for ``ops`` (2–4 fusable base opcodes)."""
    seq = tuple(int(o) for o in ops)
    if not 2 <= len(seq) <= 4:
        raise ValueError(f"superinstruction length must be 2-4, got {len(seq)}")
    for op in seq:
        if op not in FUSABLE_OPS:
            raise ValueError(f"opcode {opcode_name(op)} is not fusable")
    with _registry_lock:
        found = _fused_by_seq.get(seq)
        if found is not None:
            return found
        opcode = FUSED_BASE + len(_fused_by_seq)
        made = Superinstruction(
            opcode, seq, "+".join(OP_NAMES[op] for op in seq)
        )
        _fused_by_seq[seq] = made
        _fused_by_opcode[opcode] = made
        return made


def fused_for_opcode(opcode: int) -> Superinstruction | None:
    """The interned superinstruction behind a fused opcode id, if any."""
    return _fused_by_opcode.get(int(opcode))


def opcode_name(op: Any) -> str:
    """Human-readable name for a base or fused opcode value."""
    name = OP_NAMES.get(op)
    if name is not None:
        return name
    found = _fused_by_opcode.get(int(op))
    return found.name if found is not None else f"FUSED_{int(op)}"


@dataclass(frozen=True, slots=True)
class FusionPlan:
    """An ordered selection of superinstructions to fuse and dispatch."""

    fused: tuple[Superinstruction, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.fused)

    def key(self) -> tuple[int, ...]:
        return tuple(s.opcode for s in self.fused)

    def by_length_desc(self) -> tuple[Superinstruction, ...]:
        """Match order for fusion: longest pattern first, then plan order."""
        return tuple(
            sorted(self.fused, key=lambda s: (-len(s.ops), s.opcode))
        )


def make_plan(seqs: Iterable[Sequence[int]]) -> FusionPlan:
    """Intern every sequence and return the plan (dedup, order-preserving)."""
    fused: list[Superinstruction] = []
    for seq in seqs:
        made = superinstruction(seq)
        if made not in fused:
            fused.append(made)
    return FusionPlan(tuple(fused))


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


def _expand(lines: Iterable[str], mode: str, base: int) -> list[str]:
    """Expand hooks and operand placeholders; operands start at instr[base]."""
    out: list[str] = []
    for line in lines:
        stripped = line.strip()
        if stripped.startswith("%") and stripped.endswith("%"):
            pad = line[: len(line) - len(stripped)]
            out.extend(pad + repl for repl in _HOOKS[mode][stripped])
            continue
        for slot in range(4):
            line = line.replace("{a%d}" % slot, f"instr[{base + slot}]")
        out.append(line)
    return out


def _fused_arm(fused: Superinstruction, mode: str) -> list[str]:
    lines: list[str] = []
    base = 1
    for op in fused.ops:
        spec = TABLE[op]
        lines.extend(_expand(spec.body, mode, base))
        base += spec.operands
    return lines


def _loop_lines(plan: FusionPlan | None, counting: bool) -> list[str]:
    mode = "counting" if counting else "production"
    fused = tuple(plan.fused) if plan is not None else ()
    out: list[str] = []

    if counting:
        out.append("def _run_counting(machine, template, locals_, closed, profile):")
        out.append('    """Counting twin of ``Machine._run``.')
        out.append("")
        out.append("    Generated from the instruction table in")
        out.append("    ``repro.vm.dispatch`` -- semantics match the")
        out.append("    production loop by construction; the only additions")
        out.append("    are the count updates (opcodes, per-template")
        out.append("    attribution by content identity, and adjacent")
        out.append("    pair/triple frequencies feeding superinstruction")
        out.append('    selection)."""')
        out.append("    opcode_counts = profile.opcode_counts")
        out.append("    tmpl_instrs = profile.template_instructions")
        out.append("    tmpl_invocations = profile.template_invocations")
        out.append("    pair_counts = profile.pair_counts")
        out.append("    triple_counts = profile.triple_counts")
        out.append("    code = template.code")
        out.append("    literals = template.literals")
        out.append("    tkey = profile._ident(template)")
        out.append("    tmpl_invocations[tkey] = tmpl_invocations.get(tkey, 0) + 1")
        out.append("    pc = 0")
        out.append("    val = None")
        out.append("    stack = []")
        out.append("    conts = []")
        out.append("    globals_ = machine.globals")
        out.append("    prev1 = None")
        out.append("    prev2 = None")
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
        out.append("        if prev1 is not None:")
        out.append("            pair = (prev1, op)")
        out.append("            pair_counts[pair] = pair_counts.get(pair, 0) + 1")
        out.append("            if prev2 is not None:")
        out.append("                run3 = (prev2, prev1, op)")
        out.append(
            "                triple_counts[run3] = triple_counts.get(run3, 0) + 1"
        )
        out.append("        prev2 = prev1")
        out.append("        prev1 = op if op in _FUSABLE else None")

    keyword = "if"
    for s in fused:
        out.append(f"        {keyword} op == {s.opcode}:  # {s.name}")
        out.extend("            " + line for line in _fused_arm(s, mode))
        keyword = "elif"
    for op in ORDER:
        out.append(f"        {keyword} op == {op.value}:  # {op.name}")
        out.extend("            " + line for line in _expand(TABLE[op].body, mode, 1))
        keyword = "elif"
    out.append("        else:  # pragma: no cover - unreachable, sound assembler")
    out.append('            raise VMError(f"unknown opcode {op!r}")')
    return out


def _indented(lines: list[str], indent: int) -> str:
    pad = " " * indent
    return "\n".join(pad + line if line else line for line in lines)


def production_loop_source(plan: FusionPlan | None = None, indent: int = 0) -> str:
    """Source text of the production dispatch loop (``def _run(self, ...)``)."""
    return _indented(_loop_lines(plan, counting=False), indent)


def counting_loop_source(plan: FusionPlan | None = None, indent: int = 0) -> str:
    """Source text of the counting dispatch loop (``def _run_counting(...)``)."""
    return _indented(_loop_lines(plan, counting=True), indent)


# --------------------------------------------------------------------------
# Run-time loop construction (superinstruction plans)
# --------------------------------------------------------------------------

_loop_cache_lock = threading.Lock()
_loop_cache: dict[tuple[tuple[int, ...], bool], Callable] = {}


def build_loop(plan: FusionPlan | None = None, counting: bool = False) -> Callable:
    """Compile a dispatch loop for ``plan`` (cached per plan key and mode).

    Returns an unbound function: the production variant has signature
    ``(self, template, locals_, closed)`` (bind with ``__get__`` onto a
    machine), the counting variant ``(machine, template, locals_,
    closed, profile)``.
    """
    key = ((plan.key() if plan is not None else ()), counting)
    with _loop_cache_lock:
        found = _loop_cache.get(key)
    if found is not None:
        return found
    # Late imports avoid a cycle: machine.py does not import this module.
    from repro.lang.prims import PrimSpec
    from repro.vm.machine import VMError, VmClosure

    mode = "counting" if counting else "production"
    source = counting_loop_source(plan) if counting else production_loop_source(plan)
    namespace: dict[str, Any] = {
        "PrimSpec": PrimSpec,
        "VMError": VMError,
        "VmClosure": VmClosure,
        "_FUSABLE": FUSABLE_OPS,
    }
    exec(compile(source, f"<generated dispatch: {mode} {key[0]}>", "exec"), namespace)
    made = namespace["_run_counting" if counting else "_run"]
    with _loop_cache_lock:
        _loop_cache.setdefault(key, made)
        return _loop_cache[key]


# --------------------------------------------------------------------------
# Checked-in loop regions: drift gate
# --------------------------------------------------------------------------

_GENERATED_TARGETS: tuple[tuple[str, str, int, Callable[[], str]], ...] = (
    (
        "machine.py",
        "production loop",
        8,
        lambda: production_loop_source(indent=4),
    ),
    (
        "profile.py",
        "counting loop",
        0,
        lambda: counting_loop_source(indent=0),
    ),
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
    for filename, label, _marker_indent, render in _GENERATED_TARGETS:
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
    for filename, label, _marker_indent, render in _GENERATED_TARGETS:
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
