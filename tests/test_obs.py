"""The observability layer: tracer, metrics, facade, and instrumentation.

Covers the span tracer (nesting, threads, Chrome trace-event export,
text report, stage totals), the metrics registry, the module-level no-op
facade (disabled by default, reentrant installation), and the pipeline
instrumentation: one fig6-style cold generation must produce spans for
every stage — BTA, congruence lint, safety analysis, specialize,
assemble, bytecode verify — plus L1/L2 cache counters.
"""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

POWER = "(define (power x n) (if (zero? n) 1 (* x (power x (- n 1)))))"


class TestTracer:
    def test_spans_record_name_duration_attrs(self):
        tracer = Tracer()
        with tracer.span("stage.one", goal="power"):
            pass
        assert len(tracer) == 1
        (r,) = tracer.records
        assert r.name == "stage.one"
        assert r.duration >= 0
        assert r.attrs == {"goal": "power"}

    def test_nesting_depth_from_with_stack(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner2"):
                pass
        by_name = {r.name: r for r in tracer.records}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        assert by_name["inner2"].depth == 1

    def test_set_attaches_attributes_mid_span(self):
        tracer = Tracer()
        with tracer.span("s") as sp:
            sp.set(result=7)
        assert tracer.records[0].attrs["result"] == 7

    def test_threads_get_independent_stacks(self):
        tracer = Tracer()

        def work(i):
            with tracer.span(f"t{i}.outer"):
                with tracer.span(f"t{i}.inner"):
                    pass

        with ThreadPoolExecutor(max_workers=4) as ex:
            list(ex.map(work, range(4)))
        assert len(tracer) == 8
        for r in tracer.records:
            assert r.depth == (0 if r.name.endswith("outer") else 1)
        tids = {r.tid for r in tracer.records}
        for tid in tids:
            names = [r.name for r in tracer.records if r.tid == tid]
            # Both spans of one task live on one thread.
            assert len(names) % 2 == 0

    def test_chrome_trace_format(self):
        tracer = Tracer()
        with tracer.span("pe.bta", goal="power"):
            with tracer.span("vm.assemble"):
                pass
        trace = tracer.chrome_trace()
        # Valid JSON all the way down.
        parsed = json.loads(json.dumps(trace))
        assert parsed["displayTimeUnit"] == "ms"
        events = parsed["traceEvents"]
        assert len(events) == 2
        for ev in events:
            assert ev["ph"] == "X"
            assert {"name", "ts", "dur", "pid", "tid", "cat", "args"} <= set(ev)
            assert ev["ts"] >= 0 and ev["dur"] >= 0
        bta = next(e for e in events if e["name"] == "pe.bta")
        assert bta["cat"] == "pe"
        assert bta["args"] == {"goal": "power"}

    def test_report_tree_indents_children(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        report = tracer.report()
        lines = report.splitlines()
        outer = next(ln for ln in lines if "outer" in ln)
        inner = next(ln for ln in lines if "inner" in ln)
        assert len(inner) - len(inner.lstrip()) > len(outer) - len(
            outer.lstrip()
        )
        assert "ms" in outer

    def test_stage_totals_aggregate(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("stage.a"):
                pass
        totals = tracer.stage_totals()
        assert totals["stage.a"]["count"] == 3
        assert totals["stage.a"]["seconds"] >= 0

    def test_empty_report(self):
        assert "no spans" in Tracer().report()


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        m = MetricsRegistry()
        m.count("hits")
        m.count("hits", 2)
        assert m.counter_value("hits") == 3
        assert m.counter_value("absent") == 0

    def test_histograms_summarize(self):
        m = MetricsRegistry()
        for v in (1.0, 2.0, 3.0):
            m.observe("size", v)
        s = m.snapshot()["histograms"]["size"]
        assert s["count"] == 3
        assert s["min"] == 1.0 and s["max"] == 3.0 and s["mean"] == 2.0

    def test_thread_safety_of_counts(self):
        m = MetricsRegistry()

        def bump(_):
            for _ in range(500):
                m.count("c")

        with ThreadPoolExecutor(max_workers=8) as ex:
            list(ex.map(bump, range(8)))
        assert m.counter_value("c") == 4000

    def test_report_lists_everything(self):
        m = MetricsRegistry()
        m.count("cache.l1.hits", 5)
        m.observe("gen.seconds", 0.25)
        report = m.report()
        assert "cache.l1.hits" in report and "gen.seconds" in report
        assert "(no metrics recorded)" == MetricsRegistry().report()


class TestFacade:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        # The disabled span is a shared no-op object.
        s1 = obs.span("anything", k=1)
        s2 = obs.span("else")
        assert s1 is s2
        with s1:
            s1.set(x=1)  # still a no-op
        obs.count("nothing")
        obs.observe("nothing", 1.0)

    def test_tracing_installs_and_restores(self):
        assert not obs.enabled()
        with obs.tracing() as (tracer, metrics):
            assert obs.enabled()
            assert obs.current_tracer() is tracer
            assert obs.current_metrics() is metrics
            with obs.span("s"):
                obs.count("c")
        assert not obs.enabled()
        assert len(tracer) == 1
        assert metrics.counter_value("c") == 1

    def test_tracing_is_reentrant(self):
        with obs.tracing() as (outer, _):
            with obs.tracing() as (inner, _):
                with obs.span("x"):
                    pass
            assert obs.current_tracer() is outer
            with obs.span("y"):
                pass
        assert [r.name for r in inner.records] == ["x"]
        assert [r.name for r in outer.records] == ["y"]

    def test_traced_decorator(self):
        @obs.traced("mod.fn")
        def fn(a, b=0):
            return a + b

        assert fn(1, b=2) == 3  # disabled: plain call
        with obs.tracing() as (tracer, _):
            assert fn(4) == 4
        assert [r.name for r in tracer.records] == ["mod.fn"]

    def test_exceptions_still_recorded_and_propagate(self):
        with obs.tracing() as (tracer, _):
            with pytest.raises(ValueError):
                with obs.span("failing"):
                    raise ValueError("x")
        assert len(tracer) == 1


class TestRecording:
    def test_records_spans_without_a_tracer(self):
        @obs.traced("mod.fn")
        def fn():
            with obs.span("mod.inner") as sp:
                sp.set(x=1)

        registry = MetricsRegistry()
        with obs.recording(registry):
            fn()
            fn()
        assert not obs.enabled()
        totals = obs.stage_totals(registry)
        assert {name: e["count"] for name, e in totals.items()} == {
            "mod.fn": 2, "mod.inner": 2,
        }
        # Nested spans count in full: the outer total covers the inner.
        assert totals["mod.fn"]["seconds"] >= totals["mod.inner"]["seconds"]
        # Outside the binding the shared no-op comes back.
        assert obs.span("a") is obs.span("b")

    def test_records_alongside_an_installed_tracer(self):
        registry = MetricsRegistry()
        with obs.tracing() as (tracer, _), obs.recording(registry):
            with obs.span("s", k=1) as sp:
                sp.set(j=2)
        (record,) = tracer.records
        assert record.attrs == {"k": 1, "j": 2}
        assert obs.stage_totals(registry)["s"]["count"] == 1

    def test_wraps_a_tracer_that_only_hands_out_spans(self):
        # The contract a foreign tracer relies on: recording calls only
        # ``span`` on it, and ``set``/``__enter__``/``__exit__`` on what
        # that returns.
        class Minimal:
            entered = 0

            def span(self, name, **attrs):
                return self

            def set(self, **attrs):
                pass

            def __enter__(self):
                Minimal.entered += 1
                return self

            def __exit__(self, *exc):
                pass

        registry = MetricsRegistry()
        with obs.tracing(tracer=Minimal()), obs.recording(registry):
            with obs.span("s") as sp:
                sp.set(x=1)
        assert Minimal.entered == 1
        assert obs.stage_totals(registry)["s"]["count"] == 1

    def test_binding_is_per_thread_and_restored(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()

        def elsewhere():
            with obs.span("other.thread"):
                pass

        with obs.recording(outer):
            with obs.recording(inner):
                with obs.span("inner"):
                    pass
            thread = threading.Thread(target=elsewhere)
            thread.start()
            thread.join(5)
            assert not thread.is_alive()
            with obs.span("outer"):
                pass
        assert list(obs.stage_totals(inner)) == ["inner"]
        assert list(obs.stage_totals(outer)) == ["outer"]


class TestPipelineInstrumentation:
    # Every pipeline stage must appear in the trace of a cold
    # generation — the tentpole's "text report covering every stage".
    EXPECTED_STAGES = (
        "pe.bta",
        "pe.congruence",
        "analysis.safety",
        "rtcg.generate",
        "pe.specialize",
        "vm.assemble",
        "vm.verify",
    )

    def test_cold_generation_covers_every_stage(self):
        from repro.rtcg import GeneratingExtension

        with obs.tracing() as (tracer, metrics):
            gen = GeneratingExtension(POWER, "DS", goal="power")
            rp = gen.to_object_code([5])
            assert rp.run([2]) == 32
        names = {r.name for r in tracer.records}
        for stage in self.EXPECTED_STAGES:
            assert stage in names, f"missing span for stage {stage}"
        # The specializer span nests under the rtcg.generate request.
        spec = next(r for r in tracer.records if r.name == "pe.specialize")
        assert spec.depth > 0
        assert metrics.counter_value("cache.l1.misses") == 1
        report = tracer.report()
        for stage in self.EXPECTED_STAGES:
            assert stage in report

    def test_bta_counts_explain_its_walks(self, monkeypatch):
        # The dirty-definition schedule walks fewer definitions than a
        # full sweep per round would: Σ rounds × defs over the solves.
        from repro.pe.bta import _Analysis
        from repro.rtcg import GeneratingExtension
        from repro.workloads import MIXWELL_SIGNATURE, mixwell_interpreter

        full_sweeps = []
        solve = _Analysis.solve

        def counting_solve(self):
            before = obs.current_metrics().counter_value("pe.bta.rounds")
            solve(self)
            rounds = obs.current_metrics().counter_value("pe.bta.rounds")
            full_sweeps.append((rounds - before) * len(self.program.defs))

        monkeypatch.setattr(_Analysis, "solve", counting_solve)
        with obs.tracing() as (_, metrics):
            GeneratingExtension(mixwell_interpreter(), MIXWELL_SIGNATURE)
        assert metrics.counter_value("pe.bta.solves") == len(full_sweeps) > 1
        assert 0 < metrics.counter_value("pe.bta.walks") < sum(full_sweeps)
        # Demand is pushed before the walk descends; the post-order
        # reference walk of test_bta_pins.py takes 83 rounds and 230
        # walks.
        assert metrics.counter_value("pe.bta.rounds") == 27
        assert metrics.counter_value("pe.bta.walks") == 152

    def test_l1_hit_and_miss_counters(self):
        from repro.rtcg import GeneratingExtension

        with obs.tracing() as (_, metrics):
            gen = GeneratingExtension(POWER, "DS", goal="power")
            gen.to_object_code([5])
            gen.to_object_code([5])
        assert metrics.counter_value("cache.l1.misses") == 1
        assert metrics.counter_value("cache.l1.hits") == 1

    def test_l2_store_spans_and_counters(self, tmp_path):
        from repro.rtcg import GeneratingExtension

        with obs.tracing() as (tracer, metrics):
            gen = GeneratingExtension(
                POWER, "DS", goal="power", store_dir=tmp_path / "store"
            )
            gen.to_object_code([5])
            # A fresh extension over the same program warm-starts from L2.
            gen2 = GeneratingExtension(
                POWER, "DS", goal="power", store_dir=tmp_path / "store"
            )
            rp = gen2.to_object_code([5])
            assert rp.stats.get("disk_hit")
        names = {r.name for r in tracer.records}
        assert "image.probe" in names
        assert "image.put" in names
        assert "image.load" in names
        assert "image.verify_on_load" in names
        assert metrics.counter_value("image.l2.writes") == 1
        assert metrics.counter_value("image.l2.hits") == 1
        assert metrics.counter_value("image.l2.misses") >= 1

    def test_single_flight_wait_counter(self):
        from repro.pe.residual_cache import ResidualCache

        started = threading.Event()
        release = threading.Event()

        def slow():
            started.set()
            release.wait(5)
            return "v"

        with obs.tracing() as (tracer, metrics):
            cache = ResidualCache(4)
            with ThreadPoolExecutor(max_workers=2) as ex:
                leader = ex.submit(cache.get_or_generate, "k", slow)
                assert started.wait(5)
                waiter = ex.submit(cache.get_or_generate, "k", slow)
                while metrics.counter_value("cache.l1.waits") == 0:
                    if waiter.done():
                        break
                release.set()
                leader.result(5)
                waiter.result(5)
        assert metrics.counter_value("cache.l1.waits") == 1
        assert any(r.name == "cache.l1.wait" for r in tracer.records)

    @staticmethod
    def _counts(totals):
        return {name: entry["count"] for name, entry in totals.items()}

    def test_stage_totals_are_the_extensions_span_totals(self, tmp_path):
        # One cold generation, then an L2 warm start: each extension's
        # ``stages`` are exactly the spans its construction and
        # generation opened, keyed by span name.
        from repro.rtcg import GeneratingExtension

        store = tmp_path / "store"
        for expect_disk_hit in (False, True):
            with obs.tracing() as (tracer, _):
                gen = GeneratingExtension(
                    POWER, "DS", goal="power", store_dir=store
                )
                rp = gen.to_object_code([5])
            assert bool(rp.stats.get("disk_hit")) is expect_disk_hit
            stages = gen.cache_stats()["stages"]
            assert self._counts(stages) == self._counts(tracer.stage_totals())
            for name in ("pe.bta", "pe.congruence", "analysis.safety",
                         "pe.cogen.compile", "rtcg.generate", "image.probe"):
                assert stages[name]["count"] == 1
                assert stages[name]["seconds"] > 0
            spec = "image.load" if expect_disk_hit else "pe.specialize"
            assert stages[spec]["count"] == 1

    def test_stage_totals_sum_over_threads(self):
        from repro.rtcg import GeneratingExtension

        gen = GeneratingExtension(POWER, "DS", goal="power")
        before = self._counts(gen.cache_stats()["stages"])
        barrier = threading.Barrier(2)

        def generate(n):
            barrier.wait(5)
            gen.to_object_code([n])

        with obs.tracing() as (tracer, _):
            threads = [
                threading.Thread(target=generate, args=(n,)) for n in (5, 6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
                assert not thread.is_alive()
        traced = self._counts(tracer.stage_totals())
        assert traced["pe.specialize"] == 2
        after = self._counts(gen.cache_stats()["stages"])
        moved = {name: n - before.get(name, 0) for name, n in after.items()}
        assert {name: n for name, n in moved.items() if n} == traced
