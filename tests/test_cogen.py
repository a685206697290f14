"""Tests for the compiled generating extensions (cogen path).  That it
emits the interpretive specializer's code under every backend and dif
strategy is ``tests/test_engines.py``'s check; here the section-7 inputs
go through this module's own entry point and are compared as written
source."""

import pytest

from repro.compiler import ObjectCodeBackend
from repro.lang import parse_program, unparse_program
from repro.pe import SourceBackend, Specializer, analyze
from repro.pe.cogen import compile_generating_extension
from repro.pe.errors import SpecializationError
from repro.sexp import write
from repro.workloads import (
    LAZY_GOAL,
    LAZY_SIGNATURE,
    LAZY_SOURCE,
    MIXWELL_GOAL,
    MIXWELL_SIGNATURE,
    MIXWELL_SOURCE,
    lazy_primes_program,
    mixwell_tm_program,
)

POWER = "(define (power x n) (if (zero? n) 1 (* x (power x (- n 1)))))"


def residual_text(rp):
    return "\n".join(write(d) for d in unparse_program(rp.program))


def assert_identical_residuals(src, signature, static_args, goal):
    """The specializer and the compiled extension write the same program."""
    res = analyze(parse_program(src, goal=goal), signature)
    rp_spec = Specializer(res.annotated, SourceBackend()).run(static_args)
    rp_cogen = compile_generating_extension(res.annotated).generate(static_args)
    assert residual_text(rp_spec) == residual_text(rp_cogen)


class TestCogenEquivalence:
    def test_mixwell_identical(self):
        assert_identical_residuals(
            MIXWELL_SOURCE, MIXWELL_SIGNATURE, [mixwell_tm_program()],
            MIXWELL_GOAL,
        )

    def test_lazy_identical(self):
        assert_identical_residuals(
            LAZY_SOURCE, LAZY_SIGNATURE, [lazy_primes_program()], LAZY_GOAL
        )


class TestCogenReuse:
    def test_one_extension_many_inputs(self):
        program = parse_program(POWER, goal="power")
        res = analyze(program, "DS")
        extension = compile_generating_extension(res.annotated)
        for n in (0, 1, 5, 9):
            rp = extension.generate([n])
            assert rp.run([2]) == 2**n

    def test_extension_with_object_backend(self):
        program = parse_program(POWER, goal="power")
        res = analyze(program, "DS")
        extension = compile_generating_extension(res.annotated)
        rp = extension.generate([8], backend=ObjectCodeBackend())
        assert rp.machine is not None
        assert rp.run([2]) == 256

    def test_callable_shorthand(self):
        program = parse_program(POWER, goal="power")
        res = analyze(program, "DS")
        extension = compile_generating_extension(res.annotated)
        assert extension([3]).run([5]) == 125


class TestCogenErrors:
    def test_static_arg_count(self):
        program = parse_program(POWER, goal="power")
        res = analyze(program, "DS")
        extension = compile_generating_extension(res.annotated)
        with pytest.raises(SpecializationError, match="static arguments"):
            extension.generate([1, 2])

    def test_divergence_bound(self):
        src = "(define (grow n d) (if (zero? d) n (grow (+ n 1) d)))"
        program = parse_program(src, goal="grow")
        res = analyze(program, "SD", memo_hints=["grow"])
        extension = compile_generating_extension(res.annotated)
        with pytest.raises(SpecializationError, match="exceeded"):
            extension.generate([0], max_residual_defs=30)

    def test_generation_time_error(self):
        src = "(define (f d) (+ (car '()) d))"
        program = parse_program(src, goal="f")
        res = analyze(program, "D")
        extension = compile_generating_extension(res.annotated)
        with pytest.raises(SpecializationError, match="car"):
            extension.generate([])


class TestRtcgCogenIntegration:
    def test_gen_ext_compiled_accessor(self):
        from repro.rtcg import make_generating_extension

        gen = make_generating_extension(POWER, "DS", goal="power")
        compiled = gen.compiled()
        rp = compiled.generate([4])
        assert rp.run([3]) == 81
