"""Observability overhead on the Figure 6 cold path.

The tentpole contract for :mod:`repro.obs` is that instrumentation is
free when no tracer is installed: every ``obs.span``/``obs.count`` site
reduces to one global load plus a ``None`` test.  This suite makes the
contract a regression assertion instead of a comment.

Methodology: run one cold object-code generation (the Figure 6 MIXWELL
cold path) under a real tracer and count every observability event it
emits — K spans plus M counter/histogram updates.  Then time K+M
disabled facade calls back-to-back and compare against the measured
cold-generation time itself.  The disabled facade must cost less than
3% of the work it instruments.

A generating extension records its own spans all the time (the
``obs.recording`` binding behind ``cache_stats()["stages"]``), so the
second case replays the K spans inside a bound registry with no tracer
installed, under the same budget.
"""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.rtcg import make_generating_extension
from repro.workloads import (
    MIXWELL_SIGNATURE,
    mixwell_interpreter,
    mixwell_tm_program,
)

OVERHEAD_BUDGET = 0.03
ROUNDS = 5


def _best_of(fn, rounds=ROUNDS):
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def _cold_generate(gen, static):
    gen.cache_clear()
    return gen.to_object_code([static])


@pytest.fixture(scope="module")
def fig6_cold():
    """(spans K, updates M, best cold generation seconds) of the fig6
    MIXWELL cold path."""
    gen = make_generating_extension(mixwell_interpreter(), MIXWELL_SIGNATURE)
    static = mixwell_tm_program()
    _cold_generate(gen, static)  # JIT-warm caches, import costs, etc.

    # Count the observability events one cold generation emits.
    with obs.tracing() as (tracer, metrics):
        _cold_generate(gen, static)
    snapshot = metrics.snapshot()
    spans = len(tracer)
    updates = sum(snapshot["counters"].values()) + sum(
        h["count"] for h in snapshot["histograms"].values()
    )
    assert spans > 0 and updates > 0

    assert not obs.enabled()
    cold = _best_of(lambda: _cold_generate(gen, static))
    return spans, updates, cold


class TestDisabledOverhead:
    def test_disabled_facade_under_three_percent_of_fig6_cold_path(
        self, fig6_cold
    ):
        spans, updates, cold = fig6_cold

        def disabled_facade():
            for _ in range(spans):
                with obs.span("bench.noop", key="value"):
                    pass
            for _ in range(updates):
                obs.count("bench.noop")

        disabled = _best_of(disabled_facade)

        assert disabled < OVERHEAD_BUDGET * cold, (
            f"disabled obs facade cost {disabled * 1e6:.1f}us for "
            f"{spans} spans + {updates} updates, against a "
            f"{cold * 1e3:.2f}ms cold generation "
            f"({disabled / cold:.1%} > {OVERHEAD_BUDGET:.0%})"
        )

    def test_recorded_spans_under_three_percent_of_fig6_cold_path(
        self, fig6_cold
    ):
        spans, _updates, cold = fig6_cold
        registry = obs.MetricsRegistry()

        def recorded_spans():
            with obs.recording(registry):
                for _ in range(spans):
                    with obs.span("bench.recorded", key="value"):
                        pass

        assert not obs.enabled()
        recorded = _best_of(recorded_spans)

        assert recorded < OVERHEAD_BUDGET * cold, (
            f"recording {spans} spans cost {recorded * 1e6:.1f}us, against"
            f" a {cold * 1e3:.2f}ms cold generation"
            f" ({recorded / cold:.1%} > {OVERHEAD_BUDGET:.0%})"
        )

    def test_disabled_span_is_a_shared_noop(self):
        # The mechanism behind the budget: no allocation per call site.
        assert obs.span("a") is obs.span("b", attr=1)
