"""Observability for the RTCG pipeline: spans, metrics, and profiling.

Every stage of the pipeline — BTA, congruence lint, safety analysis,
compiling the generating extension, specialize, assemble,
bytecode-verify, residual-cache L1, image-store L2/L3, and the VM's
profiled dispatch — and the stand-alone bytecode optimizer are
instrumented through this module's *module-level* facade:

    from repro import obs

    with obs.span("pe.bta", goal="power"):
        ...
    obs.count("cache.l1.hits")

The facade is a **no-op by default**: until a tracer/registry is
installed (and outside a :func:`recording` binding), :func:`span`
returns a shared do-nothing context manager and :func:`count`/
:func:`observe` return after one global load and a ``None`` test.  The
disabled path is benchmarked (< 3% of a fig6 cold generation; see
``benchmarks/test_obs_overhead.py``), which is why the instrumentation
can stay in the production code paths unconditionally.

Enable collection for a region with :func:`tracing`::

    with obs.tracing() as (tracer, metrics):
        gen = make_generating_extension(src, "SD")
        gen.to_object_code([static])
    print(tracer.report())            # text tree, one line per span
    json.dump(tracer.chrome_trace(), fh)   # chrome://tracing / Perfetto
    print(metrics.report())

Installation is process-global (all threads trace into the installed
tracer — concurrent generation is precisely what needs watching) and
reentrant: nested :func:`tracing` blocks restore the outer collectors on
exit.

Per-component stage totals come from the same spans.  Inside
``with obs.recording(registry):`` every span opened *on that thread*
also observes its duration into ``registry`` as a histogram named after
the span, whether or not a tracer is installed; :func:`stage_totals`
reads them back.  A generating extension binds its own registry around
construction and generation, so ``cache_stats()["stages"]`` is the
extension's share of what a tracer would report.

The CLI exposes this as ``python -m repro trace`` (pipeline spans) and
``python -m repro profile`` (VM opcode/template execution counts via
:mod:`repro.vm.profile`).
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, TypeVar

from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.trace import SpanRecord, Tracer

__all__ = [
    "Counter",
    "Counters",
    "Histogram",
    "MetricsRegistry",
    "SpanRecord",
    "Tracer",
    "count",
    "current_metrics",
    "current_tracer",
    "enabled",
    "install",
    "observe",
    "recording",
    "span",
    "stage_totals",
    "traced",
    "tracing",
    "uninstall",
]

_F = TypeVar("_F", bound=Callable[..., Any])

# The installed collectors.  ``None`` means disabled — the common case —
# and every facade function tests exactly that before doing any work.
_tracer: Tracer | None = None
_metrics: MetricsRegistry | None = None
_install_lock = threading.Lock()


class _NoopSpan:
    """The shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass

    def set(self, **attrs: Any) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class _Binding(threading.local):
    """The registry :func:`recording` bound on this thread, if any."""

    registry: MetricsRegistry | None = None


_bound = _Binding()


class _RecordedSpan:
    """A span that also observes its duration into a bound registry.

    It wraps whatever the installed tracer hands out (or the no-op) and
    relies only on that object's ``set``/``__enter__``/``__exit__``.
    """

    __slots__ = ("registry", "name", "inner", "_t0")

    def __init__(self, registry: MetricsRegistry, name: str, inner: Any):
        self.registry = registry
        self.name = name
        self.inner = inner

    def __enter__(self) -> "_RecordedSpan":
        self.inner.__enter__()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.registry.observe(self.name, time.perf_counter() - self._t0)
        self.inner.__exit__(*exc)

    def set(self, **attrs: Any) -> None:
        self.inner.set(**attrs)


def span(name: str, **attrs: Any):
    """A span context manager, or the shared no-op when disabled.

    Inside a :func:`recording` binding the span also observes its
    duration into the bound registry.
    """
    tracer = _tracer
    registry = _bound.registry
    if registry is not None:
        inner = _NOOP_SPAN if tracer is None else tracer.span(name, **attrs)
        return _RecordedSpan(registry, name, inner)
    if tracer is None:
        return _NOOP_SPAN
    return tracer.span(name, **attrs)


@contextmanager
def recording(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Record every span this thread opens in the block into ``registry``.

    Each span's duration is observed as a histogram named after the
    span; nested spans count in full, as in :meth:`Tracer.stage_totals`.
    The binding is per thread and restores the previous one on exit.
    """
    previous = _bound.registry
    _bound.registry = registry
    try:
        yield registry
    finally:
        _bound.registry = previous


def stage_totals(registry: MetricsRegistry) -> dict[str, dict[str, float]]:
    """The spans recorded into ``registry``: ``{name: {count, seconds}}``."""
    return {
        name: {"count": h["count"], "seconds": h["sum"]}
        for name, h in registry.snapshot()["histograms"].items()
    }


def count(name: str, n: int = 1) -> None:
    """Increment a counter, if a metrics registry is installed."""
    metrics = _metrics
    if metrics is not None:
        metrics.count(name, n)


class Counters:
    """One component's event counters, always on.

    :meth:`count` records an event in the component's own registry,
    which its ``stats()`` reads through :meth:`snapshot`, and — when a
    registry is installed — in that one as ``<prefix>.<key>``.  So an
    event is counted by one call under one spelling: the stats key is
    the ``obs`` suffix.  ``keys`` are shown from zero.
    """

    __slots__ = ("prefix", "registry")

    def __init__(self, prefix: str, keys: Iterable[str] = ()):
        self.prefix = prefix
        self.registry = MetricsRegistry()
        for key in keys:
            self.registry.count(key, 0)

    def count(self, key: str, n: int = 1) -> None:
        self.registry.count(key, n)
        metrics = _metrics
        if metrics is not None:
            metrics.count(f"{self.prefix}.{key}", n)

    def snapshot(self) -> dict[str, int]:
        """Every counter by key, zeros included."""
        return self.registry.snapshot()["counters"]


def observe(name: str, value: float) -> None:
    """Record a histogram observation, if a registry is installed."""
    metrics = _metrics
    if metrics is not None:
        metrics.observe(name, value)


def enabled() -> bool:
    """Is any collector installed?"""
    return _tracer is not None or _metrics is not None


def current_tracer() -> Tracer | None:
    return _tracer


def current_metrics() -> MetricsRegistry | None:
    return _metrics


def traced(name: str, **attrs: Any) -> Callable[[_F], _F]:
    """Decorator: run the function under :func:`span` when tracing or
    a :func:`recording` binding is active.

    The disabled cost is a global load, a thread-local read and two
    ``None`` tests on top of the call — cheap enough for every pipeline
    stage (never used inside the VM dispatch loop; the profiler has its
    own counting loop).
    """

    def decorate(fn: _F) -> _F:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if _tracer is None and _bound.registry is None:
                return fn(*args, **kwargs)
            with span(name, **attrs):
                return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate


def install(
    tracer: Tracer | None = None, metrics: MetricsRegistry | None = None
) -> tuple[Tracer, MetricsRegistry]:
    """Install collectors process-wide; returns the installed pair."""
    global _tracer, _metrics
    with _install_lock:
        _tracer = tracer if tracer is not None else Tracer()
        _metrics = metrics if metrics is not None else MetricsRegistry()
        return _tracer, _metrics


def uninstall() -> None:
    """Return to the disabled (no-op) state."""
    global _tracer, _metrics
    with _install_lock:
        _tracer = None
        _metrics = None


@contextmanager
def tracing(
    tracer: Tracer | None = None, metrics: MetricsRegistry | None = None
) -> Iterator[tuple[Tracer, MetricsRegistry]]:
    """Collect spans and metrics for the duration of the block.

    Restores whatever was installed before (usually: nothing), so nested
    ``tracing`` blocks and test suites compose.
    """
    global _tracer, _metrics
    with _install_lock:
        previous = (_tracer, _metrics)
    installed = install(tracer, metrics)
    try:
        yield installed
    finally:
        with _install_lock:
            _tracer, _metrics = previous
