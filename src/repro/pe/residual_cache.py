"""A cross-invocation cache for generated residual programs.

The paper's central payoff is that a generating extension is "built once
... then applied any number of times to static inputs" (§3).  Amortizing
the build cost requires the *application* side to be cheap too: applying
an extension twice to the same static input should not re-run the
specializer and re-assemble identical object code.  This module provides
the memo table that makes repeated application a lookup.

:class:`ResidualCache` is a bounded LRU keyed by

    ``(frozen static arguments, dif strategy, backend kind)``

where the static arguments are frozen with §6.4's static-value freezing
(:func:`repro.pe.values.freeze_static` — fully hashable canonical
tuples), so two structurally equal static inputs share one entry.

Concurrency: a single lock guards the table, and generation is
*single-flight* — when several threads miss on the same key at once,
exactly one runs the specializer while the others wait and receive the
same :class:`~repro.pe.backend.ResidualProgram` object.  This both
avoids duplicated work and guarantees byte-identical residual code per
static input under concurrent load.

Its events (hits, misses, evictions, single-flight waits) count through
one :class:`repro.obs.Counters` under the prefix ``cache.l1``: each
:meth:`ResidualCache.stats` key is the ``obs`` counter's suffix.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

from repro import obs


class _Flight:
    """One in-progress generation, awaited by late-arriving threads."""

    __slots__ = ("done", "result", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result: Any = None
        self.error: BaseException | None = None


class ResidualCache:
    """A bounded, thread-safe LRU of generated residual programs.

    ``maxsize`` bounds the number of retained residual programs; the
    least recently used entry is evicted first.  ``maxsize <= 0``
    disables the cache (every :meth:`get_or_generate` generates).
    """

    def __init__(self, maxsize: int = 128) -> None:
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._inflight: dict[Hashable, _Flight] = {}
        self.metrics = obs.Counters(
            "cache.l1", ("hits", "misses", "evictions", "waits")
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def peek(self, key: Hashable) -> Any | None:
        """A read-only probe that does **not** promote LRU recency.

        :meth:`get_or_generate` moves a hit to the most-recently-used
        end — correct for callers that *use* the residual, wrong for
        stats/inspection paths: a monitor polling the cache would keep
        every polled key artificially warm and reshape eviction order.
        ``peek`` reads the entry (no recency update, no hit/miss
        counters), so observing the cache never perturbs it.
        """
        with self._lock:
            return self._entries.get(key)

    def get_or_generate(
        self, key: Hashable, produce: Callable[[], Any]
    ) -> tuple[Any, bool]:
        """Return ``(residual, hit)`` for ``key``, generating on a miss.

        Concurrent misses on one key coalesce: one caller runs
        ``produce``, the rest block until it completes and share its
        result (counted as hits — they did not generate).  If the
        producer raises, every waiter sees the same exception and
        nothing is cached.
        """
        if self.maxsize <= 0:
            return produce(), False
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.metrics.count("hits")
                return entry, True
            flight = self._inflight.get(key)
            if flight is None:
                flight = _Flight()
                self._inflight[key] = flight
                leader = True
            else:
                leader = False
        if not leader:
            # Single-flight failure discipline: the leader pops the key
            # from ``_inflight`` *before* setting ``done``, so a waiter
            # that observes the error re-raises it, while a thread
            # arriving after the pop starts a fresh flight — the key is
            # never poisoned and nobody can deadlock on a dead flight.
            self.metrics.count("waits")
            with obs.span("cache.l1.wait"):
                flight.done.wait()
            if flight.error is not None:
                raise flight.error
            self.metrics.count("hits")
            return flight.result, True
        self.metrics.count("misses")
        try:
            result = produce()
        except BaseException as exc:
            flight.error = exc
            with self._lock:
                self._inflight.pop(key, None)
            flight.done.set()
            raise
        flight.result = result
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            evicted = len(self._entries) - self.maxsize
            for _ in range(evicted):
                self._entries.popitem(last=False)
            self._inflight.pop(key, None)
        flight.done.set()
        if evicted > 0:
            self.metrics.count("evictions", evicted)
        return result, False

    def stats(self) -> dict[str, Any]:
        """A snapshot of the cache counters."""
        stats: dict[str, Any] = self.metrics.snapshot()
        stats["entries"] = len(self)
        stats["maxsize"] = self.maxsize
        return stats

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        with self._lock:
            self._entries.clear()
