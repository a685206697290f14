"""Per-layer timing for the traced run, from outside the program.

:class:`LayerTracer` replaces a module's public entry points with timing
wrappers.  Each wrapper is installed at the name the *caller* looks up:
``repro.rtcg.system`` imports ``parse_program`` into its own namespace,
so the wrapper goes on ``repro.rtcg.system.parse_program``, not on
``repro.lang.parser``.  Methods are wrapped on their class, which every
caller reaches through.

Each wrapper keeps a per-thread stack, so a layer's **self time** is its
call's duration minus the time of the wrapped calls made inside it.  Self
times of all layers therefore add up to the time spent inside wrapped
calls, with nothing counted twice; time in un-wrapped code lands in the
self time of the nearest wrapped caller.  A layer's **total** time, its
calls' whole durations, is kept as well.
"""

from __future__ import annotations

import functools
import gc
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator


def count_instructions(residual: Any) -> int:
    """Instructions in a residual's templates, nested closure templates
    included (exact, deterministic)."""
    from repro.vm.machine import VmClosure
    from repro.vm.template import Template

    seen: set[int] = set()
    total = 0
    stack = [v.template for v in residual.machine.globals.values()
             if isinstance(v, VmClosure)]
    while stack:
        template = stack.pop()
        if id(template) in seen:
            continue
        seen.add(id(template))
        total += len(template.code)
        stack.extend(v for v in template.literals if isinstance(v, Template))
    return total


# Counters the program itself keeps in ``repro.obs``, read at every
# snapshot: the optimizer's memo hits and the L3 write-behind drops.
OBS_COUNTERS = ("vm.optimize.memo_hit", "image.l3.write_behind.drop")


class _NoSpans:
    """An ``obs`` tracer that records nothing: the traced run reads the
    program's counters but times layers with its own wrappers."""

    def span(self, name: str, **attrs: Any) -> "_NoSpans":
        return self

    def set(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NoSpans":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass


class LayerTracer:
    """Self time, call counts and extra counters per layer.

    ``active`` gates recording: untimed work inside a traced run (the
    oracle check of a residual, say) runs under :meth:`paused`.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.seconds: dict[str, float] = defaultdict(float)
        self.total: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.active = True
        self.metrics: Any = None  # the obs registry, once installed
        # Garbage collection, from ``gc.callbacks``.  The callback takes
        # no lock: it may run inside any allocation, even one made while
        # ``_lock`` is held, and collections never overlap.
        self.gc_seconds = 0.0
        self.gc_full = 0
        self._gc_start = 0.0

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self.active:
            self.gc_seconds += time.perf_counter() - self._gc_start
            self.gc_full += info["generation"] == 2

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        on_result: "Callable[[LayerTracer, Any, tuple], None] | None" = None,
    ) -> None:
        """Time every call of ``owner.attr`` as ``layer``; ``on_result``
        sees each result (and the call's arguments) to count work."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return original(*args, **kwargs)
            stack = tracer._stack()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with tracer._lock:
                    tracer.seconds[layer] += elapsed - children
                    tracer.total[layer] += elapsed
                    tracer.calls[layer] += 1
            if on_result is not None:
                on_result(tracer, result, args)
            return result

        setattr(owner, attr, wrapper)

    @contextmanager
    def paused(self) -> Iterator[None]:
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def snapshot(self) -> dict[str, dict[str, float]]:
        with self._lock:
            counts = dict(self.counts)
            snap = {"seconds": dict(self.seconds), "total": dict(self.total),
                    "calls": dict(self.calls)}
        if self.metrics is not None:
            for name in OBS_COUNTERS:
                counts[name] = self.metrics.counter_value(name)
        counts["python.gc_s"] = self.gc_seconds
        counts["python.gc_full"] = self.gc_full
        snap["counts"] = counts
        return snap


def delta(after: dict, before: dict) -> dict[str, dict[str, float]]:
    """What a phase added: ``after - before`` per field and name."""
    return {
        field: {
            name: value - before[field].get(name, 0)
            for name, value in after[field].items()
        }
        for field in after
    }


def install(tracer: LayerTracer) -> None:
    """Wrap every layer's entry points at the names their callers use,
    and install an ``obs`` metrics registry for :data:`OBS_COUNTERS`."""
    import repro.analysis
    import repro.compiler.fusion as fusion
    import repro.image.remote as remote
    import repro.image.store as store
    import repro.pe.check as check
    import repro.rtcg.system as system
    import repro.serve.server as server
    import repro.vm.opt as opt
    from repro.image.remote import RemoteStoreClient, TieredStore
    from repro.image.store import ImageStore
    from repro.pe.residual_cache import ResidualCache
    from repro.pe.specializer import Specializer
    from repro.rtcg import GeneratingExtension
    from repro import obs
    from repro.obs import MetricsRegistry
    from repro.vm.machine import Machine

    tracer.metrics = MetricsRegistry()
    obs.install(tracer=_NoSpans(), metrics=tracer.metrics)  # type: ignore[arg-type]
    gc.callbacks.append(tracer.on_gc)

    def variants(t: LayerTracer, result: Any, args: tuple) -> None:
        t.add("pe.bta.variants", len(result.variants))

    def verified_one(t: LayerTracer, result: Any, args: tuple) -> None:
        t.add("vm.verify.templates")

    def verified_residual(t: LayerTracer, result: Any, args: tuple) -> None:
        machine = args[0].machine
        if machine is not None:
            t.add("vm.verify.templates", len(machine.globals))

    def optimized(t: LayerTracer, result: Any, args: tuple) -> None:
        t.add("vm.opt.instrs_removed", result.removed)

    def encoded(t: LayerTracer, result: Any, args: tuple) -> None:
        t.add("image.bytes", len(result))

    def cache_probe(t: LayerTracer, result: Any, args: tuple) -> None:
        t.add("pe.cache.hits" if result[1] else "pe.cache.misses")

    def store_probe(t: LayerTracer, result: Any, args: tuple) -> None:
        t.add("image.store.hits" if result is not None
              else "image.store.misses")

    def l3_probe(t: LayerTracer, result: Any, args: tuple) -> None:
        t.add("image.l3.hits" if result is not None else "image.l3.misses")

    def residual_made(t: LayerTracer, result: Any, args: tuple) -> None:
        t.add("pe.specializer.residual_defs",
              result.stats.get("residual_defs", 0))

    # lang: the front end, as the extension and the server call it.
    tracer.wrap(system, "parse_program", "lang.parse")
    tracer.wrap(server, "parse_program", "lang.parse")
    # pe.bta, pe.check, analysis: the rest of extension construction.
    tracer.wrap(system, "bta_analyze", "pe.bta", variants)
    tracer.wrap(check, "verify_annotated", "pe.check")
    tracer.wrap(repro.analysis, "analyze_bta", "analysis.safety")
    # pe.specializer and the object-code backend it drives.
    tracer.wrap(Specializer, "run", "pe.specializer", residual_made)
    tracer.wrap(fusion, "assemble", "compiler.assemble")
    tracer.wrap(fusion, "verify_template", "vm.verify", verified_one)
    tracer.wrap(opt, "optimize", "vm.opt", optimized)
    # pe.values and pe.residual_cache: the L1 tier.
    tracer.wrap(system, "freeze_static", "pe.freeze")
    tracer.wrap(ResidualCache, "get_or_generate", "pe.residual_cache",
                cache_probe)
    # image: codec, L2 store, L3 client, verify-on-load.
    tracer.wrap(store, "encode_residual", "image.encode", encoded)
    tracer.wrap(store, "decode_residual", "image.decode")
    tracer.wrap(remote, "decode_residual", "image.decode")
    tracer.wrap(store, "verify_residual", "vm.verify", verified_residual)
    tracer.wrap(remote, "verify_residual", "vm.verify", verified_residual)
    tracer.wrap(ImageStore, "put", "image.store.put")
    tracer.wrap(ImageStore, "adopt", "image.store.put")
    tracer.wrap(ImageStore, "get", "image.store.get", store_probe)
    tracer.wrap(TieredStore, "get", "image.tier")
    tracer.wrap(RemoteStoreClient, "fetch", "image.l3.fetch", l3_probe)
    # vm.machine: residual runs.
    tracer.wrap(Machine, "call_named", "vm.run")
    # rtcg: the generating extension's own work around all of the above.
    tracer.wrap(GeneratingExtension, "to_object_code", "rtcg")
    # serve: the server's handling of one decoded frame, up to the
    # response it sends; its total time is the request's server time.
    tracer.wrap(server.SpecializationServer, "_dispatch", "serve.dispatch")
