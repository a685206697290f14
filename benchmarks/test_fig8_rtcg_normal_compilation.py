"""Figure 8: Using RTCG for normal compilation.

Paper (seconds)::

               BTA     Load   Generate   Compile
    MIXWELL   2.730   4.026    0.652      0.964
    LAZY      2.253   3.217    0.568      0.604

"For normal compilation, the system takes all inputs to a program as
dynamic. ...  The BTA column shows the time needed for binding-time
analysis and creation of the object code generator, Load is the time
needed for loading (and compiling) the object code generator, and Generate
the time for running it.  Compile is the time needed to load and compile
the original interpreter using the stock Scheme 48 compiler."

Correspondence here, with every input dynamic (signature ``DD``):

* **BTA** — front end + binding-time analysis of the interpreter;
* **Load** — building the compiled generating extension (the cogen path:
  our analogue of loading/compiling the generator);
* **Generate** — running the extension with the fused object-code backend;
* **Compile** — the stock (compile-time-continuation) compiler on the
  interpreter.

Expected shape: BTA + Load is a one-time cost, clearly larger than a
single Generate; Generate and Compile are the same order of magnitude.
"""

import pytest

from repro.compiler import ObjectCodeBackend, StockCompiler
from repro.pe import analyze
from repro.pe.cogen import compile_generating_extension
from repro.runtime.values import datum_to_value, value_to_datum
from repro.workloads import (
    lazy_interpreter,
    lazy_primes_program,
    mixwell_interpreter,
    mixwell_tm_program,
)

_INTERPRETERS = {
    "mixwell": mixwell_interpreter,
    "lazy": lazy_interpreter,
}


@pytest.fixture(scope="module", params=["mixwell", "lazy"])
def workload(request):
    program = _INTERPRETERS[request.param]()
    bta = analyze(program, "DD")
    extension = compile_generating_extension(bta.annotated)
    return request.param, program, bta, extension


class TestFig8Columns:
    def test_bta(self, benchmark, workload):
        name, program, _, _ = workload
        result = benchmark(analyze, program, "DD")
        assert result.annotated.defs

    def test_load(self, benchmark, workload):
        name, _, bta, _ = workload
        extension = benchmark(compile_generating_extension, bta.annotated)
        assert extension is not None

    def test_generate(self, benchmark, workload):
        name, _, _, extension = workload

        def generate():
            return extension.generate([], backend=ObjectCodeBackend())

        rp = benchmark(generate)
        assert rp.machine is not None

    def test_generate_cached(self, benchmark, workload):
        """The residual-cache column: the same Generate, served from the
        generating extension's L1 residual cache once the static input
        (here: none — normal compilation) has been seen."""
        from repro.rtcg import make_generating_extension

        name, program, _, _ = workload
        gen = make_generating_extension(program, "DD")

        def generate_cached():
            return gen.to_object_code([])

        generate_cached()  # warm
        rp = benchmark(generate_cached)
        assert rp.machine is not None
        assert rp.stats["cache_hit"]

    def test_generate_warm_start(self, benchmark, workload, tmp_path_factory):
        """The warm-start column: Generate served from a populated
        on-disk image store — what a *fresh process* pays (index lookup,
        decode, bytecode re-verification) instead of BTA + Load +
        Generate."""
        from repro.rtcg import make_generating_extension

        name, program, _, _ = workload
        store = tmp_path_factory.mktemp(f"fig8-{name}-store")
        make_generating_extension(
            program, "DD", store_dir=store
        ).to_object_code([])  # populate

        gen = make_generating_extension(program, "DD", store_dir=store)

        def generate_from_disk():
            gen.cache_clear()
            return gen.to_object_code([])

        rp = benchmark(generate_from_disk)
        assert rp.machine is not None
        assert rp.stats["disk_hit"]
        assert gen.cache_stats()["specializer_runs"] == 0

    def test_compile(self, benchmark, workload):
        name, program, _, _ = workload
        stock = StockCompiler()
        names = frozenset(d.name for d in program.defs)

        def compile_all():
            return {
                d.name: stock.compile_procedure(
                    d.params, d.body, name=d.name.name, program=names
                )
                for d in program.defs
            }

        templates = benchmark(compile_all)
        assert templates


class TestFig8Correctness:
    """The RTCG-compiled interpreter behaves like the stock-compiled one."""

    def test_mixwell_rtcg_compilation_is_a_compiler(self):
        program = mixwell_interpreter()
        bta = analyze(program, "DD")
        ext = compile_generating_extension(bta.annotated)
        rp = ext.generate([], backend=ObjectCodeBackend())
        tape = datum_to_value([1, 0, 1])
        out = rp.run([mixwell_tm_program(), tape])
        assert value_to_datum(out) == [1, 1, 0]

    def test_lazy_rtcg_compilation_is_a_compiler(self):
        program = lazy_interpreter()
        bta = analyze(program, "DD")
        ext = compile_generating_extension(bta.annotated)
        rp = ext.generate([], backend=ObjectCodeBackend())
        assert rp.run([lazy_primes_program(), 3]) == 7

    def test_one_time_cost_amortizes(self, workload):
        # BTA+Load happen once; Generate repeats.  The amortized story of
        # the paper requires Generate to be much cheaper than BTA+Load
        # would be per use.
        import time

        name, program, _, extension = workload

        t0 = time.perf_counter()
        analyze(program, "DD")
        compile_generating_extension(analyze(program, "DD").annotated)
        setup = time.perf_counter() - t0

        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            extension.generate([], backend=ObjectCodeBackend())
            times.append(time.perf_counter() - t0)
        generate = min(times)
        assert generate < setup * 3, (
            f"{name}: generate {generate:.4f}s vs one-time setup"
            f" {setup:.4f}s"
        )
