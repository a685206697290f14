"""Figure 6: Generation speed.

Paper (Pentium/90, Scheme 48 0.46, cumulative seconds)::

                source code    object code
    MIXWELL        3.072          3.770
    LAZY           1.832          3.451

"Figure 6 shows timings for generating both Scheme source and object code
directly for compilers generated from the interpreters ...  Object code
generation is up to a factor of 2 slower than generating source, since
Scheme 48 uses a higher-order representation for the object code that
still needs to be converted to actual byte codes — that conversion is also
part of the timings."

Here: the compiled generating extension (the compiler generated from the
interpreter) runs once per round, emitting residual source through the
source backend and residual object code through the fused backend.  The
object-code timing includes the assembly/relocation step, exactly as in
the paper.  Expected shape: object code generation slower than source,
within a small constant factor.

A third column measures the bytecode verifier's overhead: object-code
generation with every emitted template verified at generation time
(``ObjectCodeBackend(verify=True)``) against the bare paper-faithful
timing (``verify=False``).

A fourth column measures the **residual cache**: applying the
``GeneratingExtension`` to an already-seen static input through its L1
residual cache — the amortized cost of the paper's "applied any number
of times" once the memo table is warm.

A fifth column measures the **warm start** from the on-disk image store:
the in-memory cache is dropped before every application, so each one
decodes (and re-verifies) the persisted image — the cost a fresh process
pays when the store is already populated, instead of specializing.

A sixth column measures the **specialization-safety analysis**
(``repro.analysis``): the one-time, per-program cost of proving the
extension safe to specialize, which `GeneratingExtension` pays at
construction.  The shape suite asserts it stays well under a single
cold specialization run.

A seventh column measures the **dataflow bytecode optimizer**
(``repro.vm.opt``), on by default in the production pipeline: object
code generation with every template verified *and* optimized (with
translation validation).  The bare/verified columns pin
``optimize=False`` so each column still isolates one cost; the shape
suite bounds the optimizer's wall-clock share of cold generation.
"""

import pytest

from repro.analysis import analyze_bta
from repro.compiler import ObjectCodeBackend
from repro.pe import SourceBackend


def _generate_source(ext, static):
    return ext.generate([static], backend=SourceBackend())


def _generate_object(ext, static):
    return ext.generate(
        [static], backend=ObjectCodeBackend(verify=False, optimize=False)
    )


def _generate_object_verified(ext, static):
    return ext.generate(
        [static], backend=ObjectCodeBackend(verify=True, optimize=False)
    )


def _generate_object_optimized(ext, static):
    return ext.generate(
        [static], backend=ObjectCodeBackend(verify=True, optimize=True)
    )


def _generate_object_cached(gen, static):
    return gen.to_object_code([static])


def _generate_object_disk(gen, static):
    # Dropping L1 before each application forces the store (L2) path:
    # index lookup, decode, bytecode re-verification.
    gen.cache_clear()
    return gen.to_object_code([static])


class TestFig6MIXWELL:
    def test_mixwell_source_code(self, benchmark, mixwell_ext, mixwell_static):
        result = benchmark(_generate_source, mixwell_ext, mixwell_static)
        assert result.program is not None

    def test_mixwell_object_code(self, benchmark, mixwell_ext, mixwell_static):
        result = benchmark(_generate_object, mixwell_ext, mixwell_static)
        assert result.machine is not None

    def test_mixwell_object_code_verified(
        self, benchmark, mixwell_ext, mixwell_static
    ):
        result = benchmark(
            _generate_object_verified, mixwell_ext, mixwell_static
        )
        assert result.machine is not None

    def test_mixwell_object_code_optimized(
        self, benchmark, mixwell_ext, mixwell_static
    ):
        result = benchmark(
            _generate_object_optimized, mixwell_ext, mixwell_static
        )
        assert result.machine is not None

    def test_mixwell_object_code_cached(
        self, benchmark, mixwell_gen, mixwell_static
    ):
        _generate_object_cached(mixwell_gen, mixwell_static)  # warm
        result = benchmark(
            _generate_object_cached, mixwell_gen, mixwell_static
        )
        assert result.machine is not None
        assert result.stats["cache_hit"]

    def test_mixwell_object_code_disk_hit(
        self, benchmark, mixwell_store_gen, mixwell_static
    ):
        mixwell_store_gen.to_object_code([mixwell_static])  # populate store
        result = benchmark(
            _generate_object_disk, mixwell_store_gen, mixwell_static
        )
        assert result.machine is not None
        assert result.stats["disk_hit"]

    def test_mixwell_safety_analysis(self, benchmark, mixwell_gen):
        report = benchmark(analyze_bta, mixwell_gen.bta)
        assert report.safe


class TestFig6LAZY:
    def test_lazy_source_code(self, benchmark, lazy_ext, lazy_static):
        result = benchmark(_generate_source, lazy_ext, lazy_static)
        assert result.program is not None

    def test_lazy_object_code(self, benchmark, lazy_ext, lazy_static):
        result = benchmark(_generate_object, lazy_ext, lazy_static)
        assert result.machine is not None

    def test_lazy_object_code_verified(self, benchmark, lazy_ext, lazy_static):
        result = benchmark(_generate_object_verified, lazy_ext, lazy_static)
        assert result.machine is not None

    def test_lazy_object_code_optimized(
        self, benchmark, lazy_ext, lazy_static
    ):
        result = benchmark(_generate_object_optimized, lazy_ext, lazy_static)
        assert result.machine is not None

    def test_lazy_object_code_cached(self, benchmark, lazy_gen, lazy_static):
        _generate_object_cached(lazy_gen, lazy_static)  # warm
        result = benchmark(_generate_object_cached, lazy_gen, lazy_static)
        assert result.machine is not None
        assert result.stats["cache_hit"]

    def test_lazy_object_code_disk_hit(
        self, benchmark, lazy_store_gen, lazy_static
    ):
        lazy_store_gen.to_object_code([lazy_static])  # populate store
        result = benchmark(_generate_object_disk, lazy_store_gen, lazy_static)
        assert result.machine is not None
        assert result.stats["disk_hit"]

    def test_lazy_safety_analysis(self, benchmark, lazy_gen):
        report = benchmark(analyze_bta, lazy_gen.bta)
        assert report.safe


class TestFig6Shape:
    """The paper's qualitative claim, asserted (not just reported)."""

    @pytest.mark.parametrize("workload", ["mixwell", "lazy"])
    def test_object_generation_within_small_factor_of_source(
        self, workload, mixwell_ext, mixwell_static, lazy_ext, lazy_static
    ):
        import time

        ext, static = {
            "mixwell": (mixwell_ext, mixwell_static),
            "lazy": (lazy_ext, lazy_static),
        }[workload]

        def best_of(fn, n=5):
            times = []
            for _ in range(n):
                t0 = time.perf_counter()
                fn(ext, static)
                times.append(time.perf_counter() - t0)
            return min(times)

        t_source = best_of(_generate_source)
        t_object = best_of(_generate_object)
        # Paper: object up to 2x slower than source.  Allow headroom for
        # host noise, but object generation must not be an order of
        # magnitude off source generation.
        assert t_object < 4.0 * t_source, (
            f"{workload}: object {t_object:.4f}s vs source {t_source:.4f}s"
        )

    @pytest.mark.parametrize("workload", ["mixwell", "lazy"])
    def test_verifier_overhead_is_bounded(
        self, workload, mixwell_ext, mixwell_static, lazy_ext, lazy_static
    ):
        """Verifying generated templates stays a small constant factor.

        The verifier is one structural scan plus a linear worklist
        fixpoint per template, so verified generation must stay within a
        small multiple of bare generation — it is cheap enough to leave
        on by default.
        """
        import time

        ext, static = {
            "mixwell": (mixwell_ext, mixwell_static),
            "lazy": (lazy_ext, lazy_static),
        }[workload]

        def best_of(fn, n=5):
            times = []
            for _ in range(n):
                t0 = time.perf_counter()
                fn(ext, static)
                times.append(time.perf_counter() - t0)
            return min(times)

        t_bare = best_of(_generate_object)
        t_verified = best_of(_generate_object_verified)
        assert t_verified < 3.0 * t_bare, (
            f"{workload}: verified {t_verified:.4f}s"
            f" vs bare {t_bare:.4f}s"
        )

    def test_optimizer_overhead_under_15_percent_of_cold_generation(
        self, mixwell_gen, mixwell_static, lazy_gen, lazy_static
    ):
        """The opt-in optimizer must ride along nearly for free: in
        aggregate over both fig6 workloads, its wall-clock stays under
        15% of cold object-code generation.

        Methodology: "cold generation" is the production path the rest
        of fig6 uses for cold starts — ``gen.to_object_code`` after
        ``gen.cache_clear()``, with the optimizer pinned off.  The
        optimizer's own cost is read back from the pipeline's stage
        accounting (``cache_stats()["stages"]["vm.optimize"]``) on an
        identical cold run with ``optimize=True`` passed, with the
        content memo cleared so every template is optimized from
        scratch.  Both quantities are min-of-5 per workload and summed
        across workloads before comparing: the bound is an aggregate
        property of the fig6 suite (per-template fixed costs make tiny
        workloads noisier), matching how the reduction criterion in
        fig7 is stated.
        """
        import time

        from repro.vm import opt

        t_cold = 0.0
        t_opt = 0.0
        for gen, static in (
            (mixwell_gen, mixwell_static),
            (lazy_gen, lazy_static),
        ):
            colds = []
            for _ in range(5):
                gen.cache_clear()
                t0 = time.perf_counter()
                gen.to_object_code([static], optimize=False)
                colds.append(time.perf_counter() - t0)
            opts = []
            for _ in range(5):
                gen.cache_clear()
                opt.clear_memo()
                stages = gen.cache_stats()["stages"]
                before = stages.get("vm.optimize", {}).get("seconds", 0.0)
                gen.to_object_code([static], optimize=True)
                after = gen.cache_stats()["stages"]["vm.optimize"]["seconds"]
                opts.append(after - before)
            t_cold += min(colds)
            t_opt += min(opts)
        assert t_opt < 0.15 * t_cold, (
            f"optimizer {t_opt:.4f}s vs cold generation {t_cold:.4f}s"
            f" ({t_opt / t_cold:.1%} aggregate share)"
        )

    @pytest.mark.parametrize("workload", ["mixwell", "lazy"])
    def test_cache_hit_is_10x_faster_than_regeneration(
        self, workload, mixwell_gen, mixwell_static, lazy_gen, lazy_static
    ):
        """The amortization claim, asserted: applying a generating
        extension to an already-seen static input through the residual
        cache must be at least an order of magnitude faster than
        regenerating the object code."""
        import time

        gen, static = {
            "mixwell": (mixwell_gen, mixwell_static),
            "lazy": (lazy_gen, lazy_static),
        }[workload]

        def best_of(fn, target, n=5):
            times = []
            for _ in range(n):
                t0 = time.perf_counter()
                fn(target, static)
                times.append(time.perf_counter() - t0)
            return min(times)

        _generate_object_cached(gen, static)  # warm the cache
        t_regen = best_of(_generate_object_verified, gen.compiled())
        t_hit = best_of(_generate_object_cached, gen)
        assert t_hit * 10.0 < t_regen, (
            f"{workload}: cache hit {t_hit:.6f}s"
            f" vs regeneration {t_regen:.6f}s"
        )

    @pytest.mark.parametrize("workload", ["mixwell", "lazy"])
    def test_warm_start_beats_cold_start(
        self,
        workload,
        mixwell_store_gen,
        mixwell_static,
        lazy_store_gen,
        lazy_static,
    ):
        """The persistence claim, asserted: a process that finds the image
        store populated (decode + re-verify) starts faster than one that
        must run the specializer — even ignoring cold BTA costs."""
        import time

        gen, static = {
            "mixwell": (mixwell_store_gen, mixwell_static),
            "lazy": (lazy_store_gen, lazy_static),
        }[workload]
        gen.to_object_code([static])  # populate the store

        def best_of(fn, n=5):
            times = []
            for _ in range(n):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            return min(times)

        def warm():
            gen.cache_clear()
            rp = gen.to_object_code([static])
            assert rp.stats["disk_hit"]
            return rp

        # Cold timing uses an extension without a store so its produce()
        # path cannot probe L2 — it always runs the specializer.
        from repro.rtcg import make_generating_extension
        from repro.workloads import (
            LAZY_SIGNATURE,
            MIXWELL_SIGNATURE,
            lazy_interpreter,
            mixwell_interpreter,
        )

        cold_gen = {
            "mixwell": lambda: make_generating_extension(
                mixwell_interpreter(), MIXWELL_SIGNATURE
            ),
            "lazy": lambda: make_generating_extension(
                lazy_interpreter(), LAZY_SIGNATURE
            ),
        }[workload]()
        t_cold = best_of(
            lambda: cold_gen.to_object_code([static], use_cache=False)
        )
        t_warm = best_of(warm)
        assert t_warm < t_cold, (
            f"{workload}: warm start {t_warm:.4f}s"
            f" vs cold specialization {t_cold:.4f}s"
        )

    @pytest.mark.parametrize("workload", ["mixwell", "lazy"])
    def test_analysis_overhead_under_quarter_of_cold_spec(
        self, workload, mixwell_gen, mixwell_static, lazy_gen, lazy_static
    ):
        """The safety analysis must stay cheap relative to the work it
        rides along with: `GeneratingExtension` runs it once at
        construction, so the relevant baseline is the cold path from
        interpreter source to residual object code (BTA + congruence +
        specialization) on a fresh extension.  One whole-program
        analysis run must cost less than a quarter of that — leaving
        ``analyze="warn"`` on by default is a fraction of the first
        generation."""
        import time

        from repro.rtcg import make_generating_extension
        from repro.workloads import (
            LAZY_SIGNATURE,
            MIXWELL_SIGNATURE,
            lazy_interpreter,
            mixwell_interpreter,
        )

        gen, static = {
            "mixwell": (mixwell_gen, mixwell_static),
            "lazy": (lazy_gen, lazy_static),
        }[workload]
        program, signature = {
            "mixwell": (mixwell_interpreter, MIXWELL_SIGNATURE),
            "lazy": (lazy_interpreter, LAZY_SIGNATURE),
        }[workload]

        def best_of(fn, n=5):
            times = []
            for _ in range(n):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            return min(times)

        def cold_spec():
            cold = make_generating_extension(
                program(), signature, analyze="off"
            )
            return cold.to_object_code([static], use_cache=False)

        t_analysis = best_of(lambda: analyze_bta(gen.bta))
        t_cold_spec = best_of(cold_spec)
        assert t_analysis < 0.25 * t_cold_spec, (
            f"{workload}: analysis {t_analysis:.4f}s"
            f" vs cold specialization {t_cold_spec:.4f}s"
        )
