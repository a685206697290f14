"""Tests for the top-level RTCG API and end-to-end properties."""

from hypothesis import given, settings, strategies as st

from repro.interp import run_program
from repro.lang import parse_program
from repro.rtcg import (
    GeneratingExtension,
    make_generating_extension,
    run_specialized,
    specialize_to_object_code,
    specialize_to_source,
)
from repro.runtime.values import scheme_equal
from tests.strategies import arith_exprs, higher_order_exprs

POWER = "(define (power x n) (if (zero? n) 1 (* x (power x (- n 1)))))"


class TestAPI:
    def test_extension_from_source_text(self):
        gen = make_generating_extension(POWER, "DS", goal="power")
        assert gen.to_object_code([3]).run([2]) == 8

    def test_extension_from_parsed_program(self):
        program = parse_program(POWER, goal="power")
        gen = GeneratingExtension(program, "DS")
        assert gen.to_source([4]).run([2]) == 16

    def test_call_shorthand_is_object_code(self):
        gen = make_generating_extension(POWER, "DS", goal="power")
        rp = gen([6])
        assert rp.machine is not None
        assert rp.run([2]) == 64

    def test_one_shot_source(self):
        rp = specialize_to_source(POWER, "DS", [5], goal="power")
        assert rp.program is not None
        assert rp.run([3]) == 243

    def test_one_shot_object(self):
        rp = specialize_to_object_code(POWER, "DS", [5], goal="power")
        assert rp.machine is not None
        assert rp.run([3]) == 243

    def test_run_specialized(self):
        assert run_specialized(POWER, "DS", [10], [2], goal="power") == 1024

    def test_hints_are_forwarded(self):
        gen = make_generating_extension(
            POWER, "DS", goal="power", memo_hints=["power"]
        )
        rp = gen.to_source([4])
        # Memoized: one residual definition per exponent value.
        assert len(rp.program.defs) == 5

    def test_goal_params_reported(self):
        gen = make_generating_extension(POWER, "DS", goal="power")
        rp = gen.to_source([2])
        assert len(rp.goal_params) == 1


class TestResidualProgramContainer:
    def test_source_run_uses_interpreter(self):
        rp = specialize_to_source(POWER, "DS", [3], goal="power")
        assert rp.run([5]) == 125

    def test_stats_populated(self):
        rp = specialize_to_source(POWER, "SD", [2], goal="power")
        assert rp.stats["residual_defs"] >= 1
        assert rp.stats["memo_entries"] >= 1


def _wrap_goal(body_source: str, params: tuple[str, ...]) -> str:
    return f"(define (goal {' '.join(params)}) {body_source})"


class TestAllDynamicIsSemanticPreserving:
    """With every input dynamic, specialization must preserve semantics:
    the residual program is the original, staged."""

    @given(arith_exprs(depth=3, env=("a", "b")),
           st.integers(-50, 50), st.integers(-50, 50))
    @settings(max_examples=40, deadline=None)
    def test_random_arith(self, body, a, b):
        src = _wrap_goal(body, ("a", "b"))
        program = parse_program(src, goal="goal")
        expected = run_program(program, [a, b])
        rp = specialize_to_object_code(src, "DD", [], goal="goal")
        assert rp.run([a, b]) == expected

    @given(higher_order_exprs(depth=3, env=("a",)), st.integers(-20, 20))
    @settings(max_examples=40, deadline=None)
    def test_random_higher_order(self, body, a):
        src = _wrap_goal(body, ("a",))
        program = parse_program(src, goal="goal")
        expected = run_program(program, [a])
        rp = specialize_to_object_code(src, "D", [], goal="goal")
        assert rp.run([a]) == expected

    @given(arith_exprs(depth=3, env=("a", "b")),
           st.integers(-50, 50), st.integers(-50, 50))
    @settings(max_examples=30, deadline=None)
    def test_partially_static(self, body, a, b):
        # a static, b dynamic: must agree with full evaluation.
        src = _wrap_goal(body, ("a", "b"))
        program = parse_program(src, goal="goal")
        expected = run_program(program, [a, b])
        rp = specialize_to_object_code(src, "SD", [a], goal="goal")
        assert rp.run([b]) == expected

    @given(arith_exprs(depth=3, env=("a", "b")),
           st.integers(-50, 50), st.integers(-50, 50))
    @settings(max_examples=30, deadline=None)
    def test_source_and_object_agree(self, body, a, b):
        src = _wrap_goal(body, ("a", "b"))
        gen = make_generating_extension(src, "SD", goal="goal")
        rp_src = gen.to_source([a])
        rp_obj = gen.to_object_code([a])
        assert scheme_equal(rp_src.run([b]), rp_obj.run([b]))
