"""Ablation A1: the ANF route of compile_program vs the stock compiler (§6.1).

"Removing the compile-time continuation simplifies the compiler, and also
speeds up later code generation, as it could not be removed by fusion."

Both routes compile the same residual (ANF) programs, with the same
front-end checks and verification.  The ANF route folds the syntax into
the fused backend's combinators, which track the ``val`` register, so it
emits no more code than the stock compiler; which one is faster is
measured, not asserted (EXPERIMENTS.md, A1).
"""

import pytest

from repro.compiler import compile_program
from repro.pe import SourceBackend


@pytest.fixture(scope="module")
def residual_programs(mixwell_ext, mixwell_static, lazy_ext, lazy_static):
    return {
        "mixwell": mixwell_ext.generate(
            [mixwell_static], backend=SourceBackend()
        ).program,
        "lazy": lazy_ext.generate(
            [lazy_static], backend=SourceBackend()
        ).program,
    }


class TestA1CompilationSpeed:
    @pytest.mark.parametrize("workload", ["mixwell", "lazy"])
    def test_anf_compiler(self, benchmark, residual_programs, workload):
        compiled = benchmark(compile_program, residual_programs[workload])
        assert compiled.templates

    @pytest.mark.parametrize("workload", ["mixwell", "lazy"])
    def test_stock_compiler(self, benchmark, residual_programs, workload):
        compiled = benchmark(
            compile_program, residual_programs[workload], "stock"
        )
        assert compiled.templates


class TestA1CodeQuality:
    @pytest.mark.parametrize("workload", ["mixwell", "lazy"])
    def test_anf_compiler_emits_no_more_code(self, residual_programs, workload):
        program = residual_programs[workload]
        anf = compile_program(program).instruction_count()
        stock = compile_program(program, "stock").instruction_count()
        assert anf <= stock

    @pytest.mark.parametrize("workload", ["mixwell", "lazy"])
    def test_same_behaviour(self, residual_programs, workload):
        from repro.runtime.values import datum_to_value, scheme_equal

        program = residual_programs[workload]
        args = {
            "mixwell": [datum_to_value([1, 1, 0])],
            "lazy": [4],
        }[workload]
        results = [
            compile_program(program, compiler).run(args)
            for compiler in ("auto", "stock")
        ]
        assert scheme_equal(results[0], results[1])
