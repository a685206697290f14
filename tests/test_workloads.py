"""Tests for the MIXWELL and LAZY workloads: direct runs, Futamura
projections through both backends, and the interpreter-size claims.
The first Futamura equation on every route is ``tests/test_routes.py``'s."""

import pytest

from repro.compiler import compile_program
from repro.runtime.values import datum_to_value, value_to_datum
from repro.rtcg import make_generating_extension
from repro.workloads import (
    LAZY_PRIMES_PROGRAM,
    LAZY_SIGNATURE,
    LAZY_SOURCE,
    MIXWELL_SIGNATURE,
    MIXWELL_SOURCE,
    MIXWELL_TM_PROGRAM,
    lazy_interpreter,
    lazy_primes_program,
    mixwell_interpreter,
    mixwell_tm_program,
    run_lazy,
    run_mixwell,
)


def increment_oracle(bits):
    n = int("".join(map(str, bits)), 2) + 1
    return [int(c) for c in bin(n)[2:]]


PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


class TestMixwellDirect:
    @pytest.mark.parametrize(
        "bits", [[0], [1], [1, 0], [1, 1], [1, 0, 1], [1, 1, 1, 1], [1, 0, 0, 1, 0]]
    )
    def test_tm_increment(self, bits):
        out = run_mixwell(mixwell_tm_program(), datum_to_value(bits))
        assert value_to_datum(out) == increment_oracle(bits)

    def test_interpreter_size_matches_paper(self):
        # "The MIXWELL interpreter is 93 lines long and was run on a
        # 62-line input program."
        assert 80 <= len(MIXWELL_SOURCE.strip().splitlines()) <= 105
        assert 50 <= len(MIXWELL_TM_PROGRAM.strip().splitlines()) <= 75

    def test_unknown_primitive_errors(self):
        from repro.runtime.errors import SchemeError
        from repro.sexp import read

        bad = datum_to_value(read("((main (x) = (frobnicate x)))"))
        with pytest.raises(SchemeError):
            run_mixwell(bad, 1)

    def test_on_vm_via_stock_compiler(self):
        cp = compile_program(mixwell_interpreter(), compiler="stock")
        out = cp.run([mixwell_tm_program(), datum_to_value([1, 0, 1])])
        assert value_to_datum(out) == [1, 1, 0]

    def test_on_vm_via_anf_compiler(self):
        cp = compile_program(mixwell_interpreter(), compiler="auto")
        out = cp.run([mixwell_tm_program(), datum_to_value([1, 1])])
        assert value_to_datum(out) == [1, 0, 0]


class TestLazyDirect:
    @pytest.mark.parametrize("i", range(5))
    def test_primes(self, i):
        assert run_lazy(lazy_primes_program(), i) == PRIMES[i]

    def test_interpreter_size_matches_paper(self):
        # "the LAZY interpreter has 127 lines of code and was run on a
        # 26-line input program."
        assert 110 <= len(LAZY_SOURCE.strip().splitlines()) <= 140
        assert 15 <= len(LAZY_PRIMES_PROGRAM.strip().splitlines()) <= 35

    def test_laziness_is_essential(self):
        # `from` builds an infinite stream; a strict interpreter would
        # diverge immediately.  Taking element 0 must terminate.
        from repro.sexp import read

        prog = datum_to_value(
            read("((main (n) = (car (call from n))) (from (k) = (cons k (call from (+ k 1)))))")
        )
        assert run_lazy(prog, 5) == 5

    def test_on_vm(self):
        cp = compile_program(lazy_interpreter(), compiler="auto")
        assert cp.run([lazy_primes_program(), 3]) == 7


class TestMixwellFutamura:
    @pytest.fixture(scope="class")
    def gen(self):
        return make_generating_extension(
            mixwell_interpreter(), MIXWELL_SIGNATURE
        )

    @pytest.fixture(scope="class")
    def residual_source(self, gen):
        return gen.to_source([mixwell_tm_program()])

    @pytest.fixture(scope="class")
    def residual_object(self, gen):
        return gen.to_object_code([mixwell_tm_program()])

    @pytest.mark.parametrize("bits", [[1], [1, 0, 1], [1, 1, 1], [1, 0, 0, 1]])
    def test_residual_source_correct(self, residual_source, bits):
        out = residual_source.run([datum_to_value(bits)])
        assert value_to_datum(out) == increment_oracle(bits)

    @pytest.mark.parametrize("bits", [[1], [1, 0, 1], [1, 1, 1], [1, 0, 0, 1]])
    def test_residual_object_correct(self, residual_object, bits):
        out = residual_object.run([datum_to_value(bits)])
        assert value_to_datum(out) == increment_oracle(bits)

    def test_residual_is_anf(self, residual_source):
        from repro.anf import is_anf_program

        assert is_anf_program(residual_source.program)

    def test_interpretation_overhead_removed(self, residual_source):
        # The residual program must not mention the interpreter's
        # dispatch machinery: no eq?-on-quoted-operator tests survive.
        from repro.lang import Const, walk
        from repro.sexp import sym

        for d in residual_source.program.defs:
            for node in walk(d.body):
                if isinstance(node, Const):
                    assert node.value not in (
                        sym("quote"),
                        sym("call"),
                    ), "interpreter dispatch survived specialization"

    def test_residual_defs_track_tm_program_functions(self, residual_source):
        # One residual function per (reachable, looping) MIXWELL function
        # — the hallmark of compiling by specialization.  The TM program
        # has 12 definitions; the residual program must stay in that
        # region (not one def per expression!).
        assert 2 <= len(residual_source.program.defs) <= 16


class TestLazyFutamura:
    @pytest.fixture(scope="class")
    def gen(self):
        return make_generating_extension(lazy_interpreter(), LAZY_SIGNATURE)

    @pytest.fixture(scope="class")
    def residual_source(self, gen):
        return gen.to_source([lazy_primes_program()])

    @pytest.fixture(scope="class")
    def residual_object(self, gen):
        return gen.to_object_code([lazy_primes_program()])

    @pytest.mark.parametrize("i", range(4))
    def test_residual_source_correct(self, residual_source, i):
        assert residual_source.run([i]) == PRIMES[i]

    @pytest.mark.parametrize("i", range(5))
    def test_residual_object_correct(self, residual_object, i):
        assert residual_object.run([i]) == PRIMES[i]

    def test_residual_contains_closures(self, residual_source):
        # Laziness compiles into residual lambdas (thunks).
        from repro.lang import Lam, walk

        assert any(
            isinstance(n, Lam)
            for d in residual_source.program.defs
            for n in walk(d.body)
        )

    def test_residual_is_anf(self, residual_source):
        from repro.anf import is_anf_program

        assert is_anf_program(residual_source.program)

    def test_one_residual_def_per_lazy_function(self, residual_source):
        # The primes program has 5 definitions.
        assert 3 <= len(residual_source.program.defs) <= 8
