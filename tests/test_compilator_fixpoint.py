"""The compilators emit no slot traffic naive code would have (DESIGN §1 item 7).

Naive let code stores every binding and reloads it: ``SETLOC k; LOCAL
k``.  The compilators track what the VM's ``val`` register holds and
pick each let's shape from its body's reads, so a residual template has
none of that slack.  :func:`slack` reads a template tree and names every
instance of the three patterns naive code leaves:

* a ``CONST``, ``LOCAL k`` or ``SETLOC k`` that moves a value to
  where it already is — the ``SETLOC k; LOCAL k`` of a binding read
  only by the next instruction, or a second load of a slot or constant
  ``val`` still holds;
* a ``SETLOC k`` whose value no path reads before ``k`` is stored again
  or the template exits;
* ``nlocals`` counting a temporary slot no instruction uses.

It reads the emitted code directly, so no other pass (constant folding
among them) has to run first.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.__main__ import _builtin_run_args, _builtin_targets
from repro.rtcg import GeneratingExtension, make_generating_extension
from repro.runtime.values import constant_key
from repro.vm.instructions import (
    CONST,
    JUMP,
    JUMP_IF_FALSE,
    LOCAL,
    PUSH,
    RETURN,
    SETLOC,
    TAIL_CALL,
    opcode_name,
)
from repro.vm.machine import VmClosure
from repro.vm.template import Template
from repro.workloads import (
    MIXWELL_SIGNATURE,
    mixwell_interpreter,
    mixwell_tm_program,
)
from tests.strategies import arith_exprs, higher_order_exprs


def _tree(template: Template) -> list[Template]:
    """``template`` and every template nested in its literals, once each."""
    seen: dict[int, Template] = {}
    todo = [template]
    while todo:
        t = todo.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            todo.extend(v for v in t.literals if isinstance(v, Template))
    return list(seen.values())


def _meet(pc: int, facts: list[tuple], width: int) -> list:
    """The state where the branches ``facts`` meet at ``pc``: a location
    they disagree on holds a value named by the label."""
    if not facts:  # no branch reaches ``pc``
        return [("join", pc, i) for i in range(width)]
    return [
        names[0] if all(n == names[0] for n in names) else ("join", pc, i)
        for i, names in enumerate(zip(*facts))
    ]


def _redundant_loads(t: Template) -> list[str]:
    """A ``CONST``, ``LOCAL k`` or ``SETLOC k`` that moves a value to
    where it already is.

    A forward value numbering in code order.  A state names the value in
    ``val`` (index 0) and in each slot ``k`` (index ``k + 1``): a
    constant's :func:`~repro.runtime.values.constant_key`, or the pc
    that computed it.  The compilators jump forward only, so the
    branches into a label have all been seen when the pass reaches it.
    """
    found = []
    into: dict[int, list[tuple]] = {}
    width = 1 + t.nlocals
    falls: tuple | None = tuple(("entry", i) for i in range(width))
    for pc, ins in enumerate(t.code):
        facts = into.pop(pc, []) + ([falls] if falls is not None else [])
        state = _meet(pc, facts, width)
        op = ins[0]
        if op in (CONST, LOCAL, SETLOC):
            if op == CONST:
                key = constant_key(t.literals[ins[1]])
                moved = ("pc", pc) if key is None else ("const", key)
            else:
                moved = state[1 + ins[1]]
            if moved == state[0]:
                name = opcode_name(op)
                found.append(f"{t.name}@{pc}: {name} {ins[1]} moves nothing")
            if op == SETLOC:
                state[1 + ins[1]] = state[0]
            else:
                state[0] = moved
        elif op not in (PUSH, JUMP, JUMP_IF_FALSE, RETURN, TAIL_CALL):
            state[0] = ("pc", pc)
        falls = tuple(state)
        if op in (JUMP, JUMP_IF_FALSE):
            into.setdefault(ins[1], []).append(falls)
        if op in (JUMP, RETURN, TAIL_CALL):
            falls = None
    return found


def _read_before_overwrite(code: tuple, start: int, slot: int) -> bool:
    """Does some path from ``start`` read ``slot`` before storing it
    again or leaving the template?"""
    seen: set[int] = set()
    todo = [start]
    while todo:
        pc = todo.pop()
        if pc in seen or pc >= len(code):
            continue
        seen.add(pc)
        op = code[pc][0]
        if op == LOCAL and code[pc][1] == slot:
            return True
        if op in (RETURN, TAIL_CALL) or (op == SETLOC and code[pc][1] == slot):
            continue
        if op in (JUMP, JUMP_IF_FALSE):
            todo.append(code[pc][1])
        if op != JUMP:
            todo.append(pc + 1)
    return False


def _dead_stores(t: Template) -> list[str]:
    return [
        f"{t.name}@{pc}: SETLOC {ins[1]} is never read"
        for pc, ins in enumerate(t.code)
        if ins[0] == SETLOC and not _read_before_overwrite(t.code, pc + 1, ins[1])
    ]


def _spare_slots(t: Template) -> list[str]:
    used = {
        ins[1] for ins in t.code
        if ins[0] in (LOCAL, SETLOC) and ins[1] >= t.arity
    }
    spare = t.nlocals - t.arity - len(used)
    return [f"{t.name}: {spare} unused local slot(s)"] if spare else []


def slack(template: Template) -> list[str]:
    """Every instance of naive slot traffic in ``template``'s tree."""
    return [
        finding
        for t in _tree(template)
        for check in (_redundant_loads, _dead_stores, _spare_slots)
        for finding in check(t)
    ]


def _residual_templates(residual) -> list[Template]:
    return [
        value.template
        for value in residual.machine.globals.values()
        if isinstance(value, VmClosure)
    ]


@given(
    body=st.one_of(
        arith_exprs(depth=4, env=("a", "b")),
        higher_order_exprs(depth=4, env=("a", "b")),
    ),
    sig=st.sampled_from(["DD", "SD", "DS"]),
    static=st.integers(min_value=-5, max_value=5),
)
@settings(max_examples=40, deadline=None)
def test_random_residuals_need_no_slot_pass(body, sig, static):
    source = f"(define (main a b) {body})"
    gen = make_generating_extension(source, sig, goal="main", analyze="off")
    residual = gen.to_object_code([static] if "S" in sig else [])
    for template in _residual_templates(residual):
        assert slack(template) == [], (source, sig)


def test_builtin_targets_need_no_slot_pass():
    targets = _builtin_targets("all")
    assert len(targets) == 5
    for label, program, sig, goal in targets:
        statics, _dynamics = _builtin_run_args(label)
        residual = GeneratingExtension(program, sig, goal=goal).to_object_code(
            statics
        )
        for template in _residual_templates(residual):
            assert slack(template) == [], (label, template.name)


def test_slack_names_each_pattern():
    naive = Template(
        code=(
            (LOCAL, 0), (SETLOC, 1), (LOCAL, 1),  # reload of val
            (SETLOC, 2),                           # stored, never read
            (CONST, 0), (PUSH,), (CONST, 0),       # reload of a constant
            (RETURN,),
        ),
        literals=(7,), arity=1, nlocals=4, name="naive",  # slot 3 unused
    )
    assert slack(naive) == [
        "naive@2: LOCAL 1 moves nothing",
        "naive@6: CONST 0 moves nothing",
        "naive@3: SETLOC 2 is never read",
        "naive: 1 unused local slot(s)",
    ]


def test_default_generation_verifies_each_template_once():
    gen = make_generating_extension(mixwell_interpreter(), MIXWELL_SIGNATURE)
    residual = gen.to_object_code([mixwell_tm_program()])
    stages = gen.cache_stats()["stages"]
    assert "vm.optimize" not in stages
    assert stages["vm.verify"]["count"] == residual.stats["residual_defs"]
