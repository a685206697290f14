"""Tests for the shared basic-block CFG builder (:mod:`repro.vm.cfg`).

The builder is the substrate both the verifier's dataflow pass and the
bytecode optimizer stand on, so its invariants are pinned directly:
leader identification, block boundaries, successor/predecessor edges,
reachability, and the fall-through-past-the-end marker.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.compiler.program import compile_program
from repro.lang.parser import parse_program
from repro.vm.cfg import TERMINATOR_OPS, build_cfg, leaders
from repro.vm.instructions import Op
from repro.vm.template import Template
from tests.strategies import arith_exprs, higher_order_exprs


def _tmpl(code, literals=(), arity=0, nlocals=0, name="cfg-test"):
    return Template(
        code=tuple(code),
        literals=tuple(literals),
        arity=arity,
        nlocals=nlocals,
        name=name,
    )


# A diamond: entry branches, both arms join at a RETURN block.
#
#     0: CONST 0
#     1: JUMP_IF_FALSE 4
#     2: CONST 0
#     3: JUMP 5
#     4: CONST 1
#     5: RETURN
DIAMOND = _tmpl(
    [
        (Op.CONST, 0),
        (Op.JUMP_IF_FALSE, 4),
        (Op.CONST, 0),
        (Op.JUMP, 5),
        (Op.CONST, 1),
        (Op.RETURN,),
    ],
    literals=(True, False),
)


class TestLeaders:
    def test_entry_is_always_a_leader(self):
        assert leaders([(Op.CONST, 0), (Op.RETURN,)]) == [0]

    def test_branch_targets_and_fallthroughs_are_leaders(self):
        assert leaders(DIAMOND.code) == [0, 2, 4, 5]

    def test_pc_after_terminator_is_a_leader_even_when_unreachable(self):
        code = [(Op.CONST, 0), (Op.RETURN,), (Op.CONST, 0), (Op.RETURN,)]
        assert leaders(code) == [0, 2]

    def test_no_leader_after_final_terminator(self):
        assert leaders([(Op.RETURN,)]) == [0]


class TestBuildCfg:
    def test_diamond_blocks_and_edges(self):
        cfg = build_cfg(DIAMOND)
        assert cfg.order == (0, 2, 4, 5)
        assert cfg.entry == 0
        # Fall-through edge first, matching machine order.
        assert cfg.blocks[0].succs == (2, 4)
        assert cfg.blocks[2].succs == (5,)
        assert cfg.blocks[4].succs == (5,)
        assert cfg.blocks[5].succs == ()

    def test_block_instruction_slices_cover_the_code(self):
        cfg = build_cfg(DIAMOND)
        flat = []
        for leader in cfg.order:
            block = cfg.blocks[leader]
            assert block.start == leader
            assert block.end == leader + len(block.instrs)
            flat.extend(block.instrs)
        assert tuple(flat) == DIAMOND.code

    def test_predecessors_invert_successors(self):
        cfg = build_cfg(DIAMOND)
        preds = cfg.predecessors()
        assert preds[0] == ()
        assert preds[2] == (0,)
        assert preds[4] == (0,)
        assert preds[5] == (2, 4)

    def test_reachable_excludes_orphan_blocks(self):
        code = [(Op.CONST, 0), (Op.RETURN,), (Op.CONST, 0), (Op.RETURN,)]
        cfg = build_cfg(_tmpl(code, literals=(1,)))
        assert set(cfg.order) == {0, 2}
        assert cfg.reachable() == {0}

    def test_terminator_property(self):
        cfg = build_cfg(DIAMOND)
        assert cfg.blocks[0].terminator == (Op.JUMP_IF_FALSE, 4)
        assert cfg.blocks[5].terminator == (Op.RETURN,)

    def test_falls_off_end_is_marked_not_rejected(self):
        cfg = build_cfg([(Op.CONST, 0), (Op.PUSH,)])
        assert cfg.blocks[0].falls_off
        assert cfg.blocks[0].succs == ()

    def test_conditional_at_end_falls_off(self):
        cfg = build_cfg([(Op.CONST, 0), (Op.JUMP_IF_FALSE, 0)])
        assert cfg.blocks[0].falls_off
        assert cfg.blocks[0].succs == (0,)

    def test_int_opcodes_are_normalized(self):
        # Image-decoded code carries raw ints; the builder must still
        # classify terminators.
        code = tuple(
            (int(instr[0]), *instr[1:]) for instr in DIAMOND.code
        )
        cfg = build_cfg(code)
        assert cfg.order == (0, 2, 4, 5)
        assert cfg.blocks[0].succs == (2, 4)

    def test_empty_code_is_an_error(self):
        with pytest.raises(ValueError):
            build_cfg(())


class TestCfgOnCompilerOutput:
    @given(expr=arith_exprs())
    @settings(max_examples=25, deadline=None)
    def test_blocks_partition_code(self, expr):
        program = parse_program(f"(define (main) {expr})")
        compiled = compile_program(program, compiler="auto")
        for template in compiled.templates.values():
            cfg = build_cfg(template)
            flat = []
            for leader in cfg.order:
                flat.extend(cfg.blocks[leader].instrs)
            assert tuple(flat) == template.code

    @given(expr=higher_order_exprs())
    @settings(max_examples=25, deadline=None)
    def test_every_edge_lands_on_a_leader(self, expr):
        program = parse_program(f"(define (main) {expr})")
        compiled = compile_program(program, compiler="auto")
        for template in compiled.templates.values():
            cfg = build_cfg(template)
            preds = cfg.predecessors()
            for leader in cfg.order:
                for succ in cfg.blocks[leader].succs:
                    assert succ in cfg.blocks
                    assert leader in preds[succ]
                terminator = cfg.blocks[leader].terminator
                op = terminator[0]
                if op not in TERMINATOR_OPS and not cfg.blocks[leader].falls_off:
                    # Straight-line block: single fall-through edge.
                    assert cfg.blocks[leader].succs == (cfg.blocks[leader].end,)
