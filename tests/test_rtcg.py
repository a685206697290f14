"""Tests for the top-level RTCG API (its routes agree with the
interpreter in ``tests/test_routes.py``)."""

from repro.lang import parse_program
from repro.rtcg import (
    GeneratingExtension,
    make_generating_extension,
    run_specialized,
    specialize_to_object_code,
    specialize_to_source,
)

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
