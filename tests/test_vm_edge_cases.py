"""VM dispatch edge cases, run through BOTH dispatch loops.

These lock in the semantics the production and counting loops must
both preserve: first-class ``PrimSpec`` in non-tail ``CALL`` position,
``TAIL_CALL`` of a prim with an empty continuation stack, and
``JUMP_IF_FALSE`` treating only ``#f`` as false.
Every test is parametrized over ``Machine.call`` (the production loop)
and :func:`~repro.vm.profile.call_profiled` (the counting twin), so a
divergence between the two fails here by construction.
"""

import pytest

from repro.lang.prims import PRIMITIVES
from repro.sexp import sym
from repro.vm import (
    Machine,
    Op,
    Template,
    TemplateIdent,
    VMError,
    VMProfile,
    VmClosure,
    assemble,
    call_profiled,
    instruction,
    instruction_using_label,
    attach_label,
    make_label,
    sequentially,
    Lit,
)


def run_plain(template, args=(), globals_=None):
    machine = Machine(globals_)
    return machine.call(VmClosure(template, ()), list(args))


def run_counting(template, args=(), globals_=None):
    machine = Machine(globals_)
    profile = VMProfile()
    result = call_profiled(
        machine, VmClosure(template, ()), list(args), profile
    )
    assert profile.total_instructions > 0
    return result


RUNNERS = [
    pytest.param(run_plain, id="production-loop"),
    pytest.param(run_counting, id="counting-loop"),
]


def simple(*fragments, arity=0, nlocals=None, name="test"):
    frag = sequentially(*fragments, instruction(Op.RETURN))
    return assemble(
        frag, arity, nlocals if nlocals is not None else max(arity, 4), name
    )


PLUS = PRIMITIVES[sym("+")]


@pytest.mark.parametrize("run", RUNNERS)
class TestPrimAsFirstClassValue:
    def test_prim_in_non_tail_call_position(self, run):
        # (let (t (+ 3 4)) (+ t 10)) with + fetched as a *value* from a
        # global and applied via CALL: the prim result must flow back
        # into the same frame, not unwind it.
        t = simple(
            instruction(Op.GLOBAL, Lit(sym("add"))),
            instruction(Op.PUSH),
            instruction(Op.CONST, Lit(3)),
            instruction(Op.PUSH),
            instruction(Op.CONST, Lit(4)),
            instruction(Op.PUSH),
            instruction(Op.CALL, 2),       # val = 7, same frame continues
            instruction(Op.PUSH),
            instruction(Op.CONST, Lit(10)),
            instruction(Op.PUSH),
            instruction(Op.PRIM, Lit(PLUS), 2),
        )
        assert run(t, [], {sym("add"): PLUS}) == 17

    def test_tail_call_of_prim_with_empty_conts(self, run):
        # TAIL_CALL of a prim at the outermost frame: the continuation
        # stack is empty, so the prim's value is the call's result.
        frag = sequentially(
            instruction(Op.GLOBAL, Lit(sym("add"))),
            instruction(Op.PUSH),
            instruction(Op.CONST, Lit(20)),
            instruction(Op.PUSH),
            instruction(Op.CONST, Lit(22)),
            instruction(Op.PUSH),
            instruction(Op.TAIL_CALL, 2),
        )
        t = assemble(frag, 0, 0, "tailprim")
        assert run(t, [], {sym("add"): PLUS}) == 42

    def test_tail_call_of_prim_pops_continuation(self, run):
        # A closure whose body tail-calls a prim, itself invoked via
        # CALL: the prim's value must return through the popped
        # continuation into the caller's frame.
        inner_frag = sequentially(
            instruction(Op.GLOBAL, Lit(sym("add"))),
            instruction(Op.PUSH),
            instruction(Op.LOCAL, 0),
            instruction(Op.PUSH),
            instruction(Op.CONST, Lit(1)),
            instruction(Op.PUSH),
            instruction(Op.TAIL_CALL, 2),
        )
        inner = assemble(inner_frag, 1, 1, "inc")
        t = simple(
            instruction(Op.MAKE_CLOSURE, Lit(inner), 0),
            instruction(Op.PUSH),
            instruction(Op.CONST, Lit(5)),
            instruction(Op.PUSH),
            instruction(Op.CALL, 1),       # inc(5) -> 6, back here
            instruction(Op.PUSH),
            instruction(Op.CONST, Lit(100)),
            instruction(Op.PUSH),
            instruction(Op.PRIM, Lit(PLUS), 2),
        )
        assert run(t, [], {sym("add"): PLUS}) == 106

    def test_non_procedure_operator_raises(self, run):
        t = simple(
            instruction(Op.CONST, Lit(99)),
            instruction(Op.PUSH),
            instruction(Op.TAIL_CALL, 0),
        )
        with pytest.raises(VMError, match="non-procedure"):
            run(t)


@pytest.mark.parametrize("run", RUNNERS)
class TestJumpIfFalseStrictness:
    def _brancher(self, test_value):
        # if <test> then 'taken else 'fell
        label = make_label()
        t = simple(
            instruction(Op.CONST, Lit(test_value)),
            instruction_using_label(Op.JUMP_IF_FALSE, label),
            instruction(Op.CONST, Lit("then")),
            instruction(Op.RETURN),
            attach_label(label, instruction(Op.CONST, Lit("else"))),
        )
        return t

    def test_false_branches(self, run):
        assert run(self._brancher(False)) == "else"

    @pytest.mark.parametrize(
        "truthy", [0, "", (), None, 0.0, [], "f"],
        ids=["zero", "empty-string", "empty-tuple", "none", "zero-float",
             "nil-list", "string-f"],
    )
    def test_only_hash_f_is_false(self, run, truthy):
        # Scheme semantics: everything except #f is true — 0, "", '()
        # and even Python None must take the then-branch.
        assert run(self._brancher(truthy)) == "then"


@pytest.mark.parametrize("run", RUNNERS)
class TestArityAndFrames:
    def test_arity_mismatch_in_call(self, run):
        inner = assemble(
            sequentially(instruction(Op.LOCAL, 0), instruction(Op.RETURN)),
            1, 1, "one-arg",
        )
        t = simple(
            instruction(Op.MAKE_CLOSURE, Lit(inner), 0),
            instruction(Op.PUSH),
            instruction(Op.TAIL_CALL, 0),  # zero args to a 1-ary closure
        )
        with pytest.raises(VMError, match="expected 1"):
            run(t)

    def test_locals_frame_padded_beyond_arity(self, run):
        # nlocals > arity: the extra slots start as None-initialized
        # temporaries (SETLOC/LOCAL round-trip through slot arity+1).
        t = simple(
            instruction(Op.CONST, Lit(11)),
            instruction(Op.SETLOC, 2),
            instruction(Op.LOCAL, 2),
            arity=1,
            nlocals=3,
        )
        assert run(t, [0]) == 11


class TestCountingLoopAccounting:
    def test_per_template_counts(self):
        inner = assemble(
            sequentially(instruction(Op.LOCAL, 0), instruction(Op.RETURN)),
            1, 1, "identity",
        )
        outer = simple(
            instruction(Op.MAKE_CLOSURE, Lit(inner), 0),
            instruction(Op.PUSH),
            instruction(Op.CONST, Lit(5)),
            instruction(Op.PUSH),
            instruction(Op.CALL, 1),
            name="outer",
        )
        machine = Machine()
        profile = VMProfile()
        assert (
            call_profiled(machine, VmClosure(outer, ()), [], profile) == 5
        )
        # Counts are keyed by stable per-template identity (name +
        # content digest), not bare name.
        assert {k.name for k in profile.template_invocations} == {
            "outer", "identity",
        }
        assert all(
            isinstance(k, TemplateIdent) and v == 1
            for k, v in profile.template_invocations.items()
        )
        inner_ident = TemplateIdent("identity", inner.content_digest())
        assert profile.template_instructions[inner_ident] == 2
        assert profile.opcode_counts[Op.CALL] == 1
        ranked = profile.hot_templates()
        assert ranked[0][0] == "outer"   # display name stays readable
        json_form = profile.to_json()
        by_name = {
            entry["name"]: entry
            for entry in json_form["templates"].values()
        }
        assert by_name["identity"]["invocations"] == 1
        assert "hot templates" in profile.report()

    def test_same_named_templates_attributed_separately(self):
        # Regression: two distinct templates that share a name must not
        # have their counts merged — attribution is by content identity.
        def make(literal):
            return simple(instruction(Op.CONST, Lit(literal)), name="twin")

        first, second = make(1), make(2)
        machine = Machine()
        profile = VMProfile()
        assert call_profiled(machine, VmClosure(first, ()), [], profile) == 1
        assert call_profiled(machine, VmClosure(second, ()), [], profile) == 2
        assert call_profiled(machine, VmClosure(first, ()), [], profile) == 1
        invocations = {
            k: v for k, v in profile.template_invocations.items()
            if k.name == "twin"
        }
        assert sorted(invocations.values()) == [1, 2]
        # Human-readable output disambiguates colliding names with the
        # digest suffix instead of silently merging them.
        names = [name for name, _, _ in profile.hot_templates()]
        assert all(name.startswith("twin#") for name in names)
        assert len(set(names)) == 2
        report = profile.report()
        assert "twin#" in report

    def test_object_identity_does_not_split_counts(self):
        # The flip side: structurally identical copies are ONE template
        # as far as attribution goes, even as distinct Python objects.
        t = simple(instruction(Op.CONST, Lit(7)), name="same")
        copy = Template(
            code=t.code, literals=t.literals, arity=t.arity,
            nlocals=t.nlocals, name=t.name,
        )
        assert copy is not t
        machine = Machine()
        profile = VMProfile()
        call_profiled(machine, VmClosure(t, ()), [], profile)
        call_profiled(machine, VmClosure(copy, ()), [], profile)
        ident = TemplateIdent("same", t.content_digest())
        assert profile.template_invocations[ident] == 2

    def test_empty_profile_renders_consistently(self):
        # Regression: a never-run profile must produce the same "empty"
        # story in text and JSON — "(none)" sections and empty maps.
        profile = VMProfile()
        report = profile.report()
        assert report.count("(none)") == 2
        json_form = profile.to_json()
        assert json_form["calls"] == 0
        assert json_form["total_instructions"] == 0
        assert json_form["opcodes"] == {}
        assert json_form["templates"] == {}

    def test_results_identical_to_production_loop(self):
        # The same computation through both loops, same answer.
        n = 10
        t = simple(
            instruction(Op.LOCAL, 0),
            instruction(Op.PUSH),
            instruction(Op.LOCAL, 0),
            instruction(Op.PUSH),
            instruction(Op.PRIM, Lit(PRIMITIVES[sym("*")]), 2),
            arity=1,
        )
        machine = Machine()
        plain = machine.call(VmClosure(t, ()), [n])
        profile = VMProfile()
        counted = call_profiled(machine, VmClosure(t, ()), [n], profile)
        assert plain == counted == 100


class TestTemplateValidation:
    def test_template_rejects_nlocals_below_arity(self):
        with pytest.raises(ValueError, match="nlocals 1 < arity 2"):
            Template(
                code=((Op.RETURN,),),
                literals=(),
                arity=2,
                nlocals=1,
                name="bad",
            )

    def test_template_rejects_negative_arity(self):
        with pytest.raises(ValueError, match="negative arity"):
            Template(
                code=((Op.RETURN,),),
                literals=(),
                arity=-1,
                nlocals=0,
                name="bad",
            )

    def test_assembler_rejects_nlocals_below_arity(self):
        from repro.vm.assembler import AssemblyError

        with pytest.raises(AssemblyError, match="nlocals"):
            assemble(
                sequentially(instruction(Op.RETURN)), 2, 1, "short-frame"
            )
