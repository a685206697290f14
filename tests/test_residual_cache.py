"""The residual-code cache and thread-safe generating extensions.

Covers the tentpole of "built once ... applied any number of times"
(§3): a cache hit returns the already-generated residual program, the
LRU bound is respected, keys separate per dif-strategy and backend
kind, generation is single-flight under concurrency, and the
recursion-limit handling is a process-wide one-time floor instead of
the non-reentrant save/restore dance.
"""

import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import obs
from repro.pe import SourceBackend, Specializer
from repro.pe.errors import BudgetExceeded
from repro.pe.limits import RECURSION_FLOOR, ensure_recursion_limit
from repro.pe.residual_cache import ResidualCache
from repro.rtcg import GeneratingExtension, run_specialized

POWER = "(define (power x n) (if (zero? n) 1 (* x (power x (- n 1)))))"
DIF = "(define (f s d) (* s (+ (if (zero? d) 10 20) 1)))"


# -- the cache data structure ---------------------------------------------------


class TestResidualCacheUnit:
    def test_hit_returns_same_object(self):
        cache = ResidualCache(4)
        r1, hit1 = cache.get_or_generate("k", lambda: object())
        r2, hit2 = cache.get_or_generate("k", lambda: object())
        assert r2 is r1
        assert (hit1, hit2) == (False, True)

    def test_lru_bound_and_eviction_order(self):
        cache = ResidualCache(2)
        cache.get_or_generate("a", lambda: "A")
        cache.get_or_generate("b", lambda: "B")
        cache.get_or_generate("a", lambda: "A2")  # refresh a
        cache.get_or_generate("c", lambda: "C")   # evicts b, not a
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1
        assert cache.peek("a") == "A"
        assert cache.peek("b") is None

    def test_counters(self):
        cache = ResidualCache(4)
        cache.get_or_generate("k", lambda: 1)
        cache.get_or_generate("k", lambda: 1)
        cache.get_or_generate("j", lambda: 2)
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 2
        assert stats["entries"] == 2

    def test_disabled_cache_always_generates(self):
        cache = ResidualCache(0)
        calls = []
        for _ in range(3):
            _, hit = cache.get_or_generate("k", lambda: calls.append(1))
            assert not hit
        assert len(calls) == 3

    def test_producer_error_is_not_cached(self):
        cache = ResidualCache(4)
        with pytest.raises(ValueError):
            cache.get_or_generate("k", lambda: (_ for _ in ()).throw(ValueError()))
        result, hit = cache.get_or_generate("k", lambda: "ok")
        assert (result, hit) == ("ok", False)

    def test_peek_does_not_promote_lru_recency(self):
        # A monitor polling the cache must not keep polled keys warm:
        # after peeking the LRU entry, a capacity-exceeding insert
        # still evicts that entry, not a younger one.
        cache = ResidualCache(2)
        cache.get_or_generate("old", lambda: "O")
        cache.get_or_generate("young", lambda: "Y")
        assert cache.peek("old") == "O"       # no recency update
        cache.get_or_generate("new", lambda: "N")  # evicts "old"
        assert cache.peek("old") is None
        assert cache.peek("young") == "Y"
        assert cache.peek("new") == "N"

    def test_peek_does_not_touch_hit_miss_counters(self):
        cache = ResidualCache(2)
        cache.get_or_generate("k", lambda: "V")
        before = cache.stats()
        cache.peek("k")
        cache.peek("absent")
        after = cache.stats()
        assert (after["hits"], after["misses"]) == (
            before["hits"], before["misses"]
        )

    def test_single_flight_coalesces_concurrent_misses(self):
        cache = ResidualCache(4)
        calls = []
        started = threading.Event()
        release = threading.Event()

        def slow_produce():
            calls.append(1)
            started.set()
            release.wait(5)
            return "value"

        with ThreadPoolExecutor(max_workers=2) as ex:
            leader = ex.submit(cache.get_or_generate, "k", slow_produce)
            assert started.wait(5)
            follower = ex.submit(cache.get_or_generate, "k", slow_produce)
            time.sleep(0.05)  # let the follower block on the flight
            release.set()
            assert leader.result(5) == ("value", False)
            assert follower.result(5) == ("value", True)
        assert len(calls) == 1


def _case_hit(cache):
    cache.get_or_generate("k", lambda: "V")
    return lambda: cache.get_or_generate("k", lambda: "V")


def _case_miss(cache):
    return lambda: cache.get_or_generate("k", lambda: "V")


def _case_failed_miss(cache):
    def failing():
        raise ValueError("boom")

    def action():
        with pytest.raises(ValueError):
            cache.get_or_generate("k", failing)

    return action


def _case_eviction(cache):
    for key in ("a", "b"):
        cache.get_or_generate(key, lambda: key)
    return lambda: cache.get_or_generate("c", lambda: "C")


def _case_wait(cache):
    started, release = threading.Event(), threading.Event()

    def slow():
        started.set()
        release.wait(5)
        return "V"

    def action():
        with ThreadPoolExecutor(max_workers=2) as ex:
            leader = ex.submit(cache.get_or_generate, "k", slow)
            assert started.wait(5)
            waiter = ex.submit(cache.get_or_generate, "k", slow)
            deadline = time.monotonic() + 5
            while cache.stats()["waits"] == 0 and time.monotonic() < deadline:
                time.sleep(0.001)
            release.set()
            assert leader.result(5) == ("V", False)
            assert waiter.result(5) == ("V", True)

    return action


L1_COUNTERS = ("hits", "misses", "evictions", "waits")


@pytest.mark.parametrize("case, key", [
    (_case_hit, "hits"),
    (_case_miss, "misses"),
    (_case_failed_miss, "misses"),
    (_case_eviction, "evictions"),
    (_case_wait, "waits"),
], ids=lambda v: v.__name__[6:] if callable(v) else v)
def test_each_event_counts_once_in_stats_and_obs(case, key):
    """Every L1 event moves its ``stats()`` key and the installed
    ``obs`` counter ``cache.l1.<key>`` by the same amount, and no other."""
    cache = ResidualCache(2)
    action = case(cache)
    before = cache.stats()
    with obs.tracing() as (_tracer, metrics):
        action()
    after = cache.stats()
    moved = {k: after[k] - before[k] for k in L1_COUNTERS}
    assert moved[key] >= 1
    assert moved == {
        k: metrics.counter_value(f"cache.l1.{k}") for k in L1_COUNTERS
    }


# -- the generating-extension integration ---------------------------------------


class TestExtensionCache:
    def test_hit_returns_identical_residual(self):
        gen = GeneratingExtension(POWER, "DS", goal="power")
        r1 = gen.to_object_code([5])
        r2 = gen.to_object_code([5])
        # Each call gets its own stats view; the machine (the actual
        # residual code) is the shared cached artifact.
        assert r2.machine is r1.machine
        assert r1.run([2]) == 32
        assert r2.stats["cache_hit"]
        assert not r1.stats["cache_hit"]
        stats = gen.cache_stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)

    def test_call_shorthand_shares_the_cache(self):
        # Regression: __call__ used to drop dif_strategy on the floor,
        # so ge(args) and ge.to_object_code(args, ...) could disagree.
        # Now they are literally the same cached object.
        gen = GeneratingExtension(POWER, "DS", goal="power")
        assert gen([5]).machine is gen.to_object_code([5]).machine
        assert (
            gen([5], dif_strategy="join").machine
            is gen.to_object_code([5], dif_strategy="join").machine
        )

    def test_keys_separate_per_dif_strategy(self):
        gen = GeneratingExtension(DIF, "SD", goal="f")
        dup = gen.to_object_code([7], dif_strategy="duplicate")
        join = gen.to_object_code([7], dif_strategy="join")
        assert dup is not join
        assert gen.cache_stats()["misses"] == 2
        assert dup.run([0]) == join.run([0]) == 77

    def test_keys_separate_per_backend_kind(self):
        gen = GeneratingExtension(POWER, "DS", goal="power")
        src = gen.to_source([5])
        obj = gen.to_object_code([5])
        assert src.program is not None and obj.machine is not None
        assert gen.cache_stats()["misses"] == 2

    def test_lru_bound_respected(self):
        gen = GeneratingExtension(POWER, "DS", goal="power", cache_size=2)
        for n in (1, 2, 3):
            gen.to_object_code([n])
        stats = gen.cache_stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == 1
        # The evicted entry ([1]) regenerates: a miss, not a hit.
        gen.to_object_code([1])
        assert gen.cache_stats()["misses"] == 4

    def test_cache_can_be_disabled(self):
        gen = GeneratingExtension(POWER, "DS", goal="power", cache_size=0)
        r1 = gen.to_object_code([5])
        r2 = gen.to_object_code([5])
        assert r1 is not r2
        assert "cache_hit" not in r1.stats

    def test_bypass_regenerates_deterministically(self):
        # Per-run gensym isolation: regeneration of the same static
        # input is byte-identical, so a cache hit is indistinguishable
        # from a regeneration.
        uncached = GeneratingExtension(POWER, "DS", goal="power", cache_size=0)
        r1 = uncached.to_object_code([6])
        r2 = uncached.to_object_code([6])
        assert r1 is not r2
        assert r1.fingerprint() == r2.fingerprint()
        gen = GeneratingExtension(POWER, "DS", goal="power")
        assert r1.fingerprint() == gen.to_object_code([6]).fingerprint()

    def test_source_hits_too(self):
        gen = GeneratingExtension(POWER, "DS", goal="power")
        assert gen.to_source([4]).program is gen.to_source([4]).program

    def test_cache_clear(self):
        gen = GeneratingExtension(POWER, "DS", goal="power")
        gen.to_object_code([5])
        gen.cache_clear()
        assert gen.cache_stats()["entries"] == 0
        gen.to_object_code([5])
        assert gen.cache_stats()["misses"] == 2


class TestForwarding:
    def test_run_specialized_forwards_dif_strategy(self):
        # Satellite regression: dif_strategy used to be swallowed by
        # make_generating_extension's kwargs and raise TypeError.
        assert (
            run_specialized(DIF, "SD", [7], [0], goal="f", dif_strategy="join")
            == 77
        )
        assert run_specialized(DIF, "SD", [7], [1], goal="f") == 147


# -- concurrency ---------------------------------------------------------------


class TestConcurrentGeneration:
    def test_eight_thread_stress_byte_identical_residuals(self):
        gen = GeneratingExtension(POWER, "DS", goal="power", cache_size=64)
        statics = list(range(6))

        def task(i):
            n = statics[i % len(statics)]
            rp = gen.to_object_code([n])
            assert rp.run([2]) == 2**n
            return n, rp.fingerprint()

        with ThreadPoolExecutor(max_workers=8) as ex:
            results = list(ex.map(task, range(96)))

        fingerprints = defaultdict(set)
        for n, fp in results:
            fingerprints[n].add(fp)
        assert all(len(fps) == 1 for fps in fingerprints.values()), (
            "residual code must be byte-identical per static input"
        )
        stats = gen.cache_stats()
        # Single-flight: each distinct static input generated exactly once.
        assert stats["misses"] == len(statics)
        assert stats["hits"] == 96 - len(statics)

    def test_eight_thread_stress_without_cache(self):
        # Even with the cache off (every call runs the full
        # specializer) concurrent runs must not interfere: private
        # gensym state per run keeps residuals byte-identical.
        gen = GeneratingExtension(POWER, "DS", goal="power", cache_size=0)

        def task(i):
            n = i % 3
            rp = gen.to_object_code([n])
            assert rp.run([3]) == 3**n
            return n, rp.fingerprint()

        with ThreadPoolExecutor(max_workers=8) as ex:
            results = list(ex.map(task, range(32)))
        fingerprints = defaultdict(set)
        for n, fp in results:
            fingerprints[n].add(fp)
        assert all(len(fps) == 1 for fps in fingerprints.values())


# -- the recursion-limit floor --------------------------------------------------


class _NestingBackend(SourceBackend):
    """A backend that fires a nested specialization from inside a run."""

    def __init__(self, gen: GeneratingExtension):
        super().__init__()
        self._gen = gen
        self.nested_ran = False

    def define(self, name, params, body):
        if not self.nested_ran:
            self.nested_ran = True
            inner = self._gen.to_source([3])
            assert inner.run([2]) == 8
        super().define(name, params, body)


class TestRecursionLimitFloor:
    def test_ensure_is_monotone(self):
        before = sys.getrecursionlimit()
        ensure_recursion_limit()
        assert sys.getrecursionlimit() >= max(before, RECURSION_FLOOR)
        # A second call (or a lower floor) never lowers it.
        ensure_recursion_limit(10)
        assert sys.getrecursionlimit() >= RECURSION_FLOOR

    def test_nested_run_does_not_clobber_the_limit(self):
        # Regression: the old save/restore in Specializer.run and
        # cogen.generate was not reentrant — after a nested run, the
        # outer ``finally`` restored a stale (low) limit.
        sys.setrecursionlimit(5_000)
        try:
            gen = GeneratingExtension(POWER, "DS", goal="power")
            backend = _NestingBackend(gen)
            outer = Specializer(gen.bta.annotated, backend).run([4])
            assert backend.nested_ran
            assert outer.run([2]) == 16
            assert sys.getrecursionlimit() >= RECURSION_FLOOR, (
                "nested run clobbered the process recursion limit"
            )
        finally:
            ensure_recursion_limit()

    def test_cogen_generate_keeps_the_floor(self):
        sys.setrecursionlimit(5_000)
        try:
            gen = GeneratingExtension(POWER, "DS", goal="power")
            ext = gen.compiled()
            ext.generate([4])
            assert sys.getrecursionlimit() >= RECURSION_FLOOR
        finally:
            ensure_recursion_limit()


# -- per-call stats views (shared-state race regression) ------------------------


class TestExtensionPeek:
    def test_peek_reports_warmth_without_generating(self):
        gen = GeneratingExtension(POWER, "DS", goal="power")
        assert gen.peek([5]) is None
        residual = gen.to_object_code([5])
        peeked = gen.peek([5])
        assert peeked is not None
        assert peeked.machine is residual.machine
        assert gen.cache_stats()["misses"] == 1  # peek generated nothing

    def test_peek_respects_key_dimensions(self):
        gen = GeneratingExtension(POWER, "DS", goal="power")
        gen.to_object_code([5])
        assert gen.peek([5], dif_strategy="join") is None
        assert gen.peek([5], kind="source") is None
        assert gen.peek([6]) is None

    def test_peek_on_disabled_cache(self):
        gen = GeneratingExtension(POWER, "DS", goal="power", cache_size=0)
        gen.to_object_code([5])
        assert gen.peek([5]) is None


class TestCacheStatsSnapshot:
    def test_snapshot_is_decoupled_from_later_activity(self):
        gen = GeneratingExtension(POWER, "DS", goal="power")
        gen.to_object_code([5])
        snapshot = gen.cache_stats()
        stages_before = {
            name: dict(entry)
            for name, entry in snapshot["stages"].items()
        }
        gen.to_object_code([6])
        gen.to_object_code([7])
        assert snapshot["misses"] == 1
        assert snapshot["stages"] == stages_before

    def test_two_thread_stats_iteration_race(self):
        # Regression: ``cache_stats`` used to hand out references to
        # the live per-stage dicts, so a reader iterating the stages
        # while another thread specialized raced the writer (mutated
        # values mid-iteration; ``RuntimeError: dictionary changed size
        # during iteration`` once a new stage appeared).  The snapshot
        # is now a deep copy taken under the stats lock.
        import json

        gen = GeneratingExtension(POWER, "DS", goal="power")
        gen.to_object_code([1])
        stop = threading.Event()
        failures = []

        def reader():
            while not stop.is_set():
                try:
                    json.dumps(gen.cache_stats(), default=str)
                except RuntimeError as exc:  # pragma: no cover - the bug
                    failures.append(exc)
                    return

        def writer():
            for n in range(2, 40):
                gen.to_object_code([n])
                gen.to_source([n])

        t_reader = threading.Thread(target=reader)
        t_writer = threading.Thread(target=writer)
        t_reader.start()
        t_writer.start()
        t_writer.join(60)
        stop.set()
        t_reader.join(10)
        assert not failures


class TestPerCallStatsViews:
    def test_two_threads_each_see_their_own_cache_hit(self):
        # Regression: _generate used to write ``cache_hit`` into the
        # *shared cached* ResidualProgram's stats dict, so a later hit
        # clobbered the producer's False before it could be read.  With
        # per-call views, each caller's view is private.
        gen = GeneratingExtension(POWER, "DS", goal="power")
        barrier = threading.Barrier(2)
        produced = threading.Event()

        def producer():
            barrier.wait(5)
            rp = gen.to_object_code([9])
            produced.set()
            time.sleep(0.05)  # give the hitter time to race a mutation
            return rp.stats["cache_hit"]

        def hitter():
            barrier.wait(5)
            assert produced.wait(5)
            return gen.to_object_code([9]).stats["cache_hit"]

        with ThreadPoolExecutor(max_workers=2) as ex:
            f1 = ex.submit(producer)
            f2 = ex.submit(hitter)
            assert f1.result(10) is False, (
                "the generating caller must see cache_hit=False even"
                " after a concurrent hit on the same key"
            )
            assert f2.result(10) is True

    def test_cached_object_stats_stay_clean(self):
        # The object stored in the cache must never accumulate per-call
        # keys; only production facts (residual_defs, image_*...) live
        # there.
        gen = GeneratingExtension(POWER, "DS", goal="power")
        gen.to_object_code([5])
        gen.to_object_code([5])
        key = next(iter(gen.cache._entries))
        cached = gen.cache._entries[key]
        assert "cache_hit" not in cached.stats
        assert "cache" not in cached.stats

    def test_view_shares_machine_and_production_stats(self):
        gen = GeneratingExtension(POWER, "DS", goal="power")
        r1 = gen.to_object_code([5])
        r2 = gen.to_object_code([5])
        assert r1.machine is r2.machine
        assert r1.stats["residual_defs"] == r2.stats["residual_defs"]
        # Mutating one view must not leak into the other.
        r1.stats["marker"] = "mine"
        assert "marker" not in r2.stats


# -- single-flight failure discipline -------------------------------------------


class TestSingleFlightFailure:
    def test_waiters_see_the_leaders_error_and_key_is_not_poisoned(self):
        cache = ResidualCache(8)
        started = threading.Event()
        release = threading.Event()

        def failing_produce():
            started.set()
            release.wait(5)
            raise ValueError("boom")

        with ThreadPoolExecutor(max_workers=3) as ex:
            leader = ex.submit(cache.get_or_generate, "k", failing_produce)
            assert started.wait(5)
            w1 = ex.submit(cache.get_or_generate, "k", failing_produce)
            w2 = ex.submit(cache.get_or_generate, "k", failing_produce)
            time.sleep(0.05)  # let the waiters block on the flight
            release.set()
            for fut in (leader, w1, w2):
                with pytest.raises(ValueError, match="boom"):
                    fut.result(5)
        # The key must not be wedged: the next attempt generates fresh.
        result, hit = cache.get_or_generate("k", lambda: "recovered")
        assert (result, hit) == ("recovered", False)

    def test_eight_thread_stress_with_flaky_producer(self):
        # Alongside the existing 8-thread suites: a producer that fails
        # on its first few runs must neither deadlock any waiter nor
        # poison the key; once it succeeds, everyone hits.
        cache = ResidualCache(8)
        failures_left = [3]
        lock = threading.Lock()

        def flaky_produce():
            with lock:
                if failures_left[0] > 0:
                    failures_left[0] -= 1
                    fail = True
                else:
                    fail = False
            time.sleep(0.005)
            if fail:
                raise ValueError("transient")
            return "steady"

        def task(_):
            try:
                return cache.get_or_generate("k", flaky_produce)[0]
            except ValueError:
                return "failed"

        with ThreadPoolExecutor(max_workers=8) as ex:
            results = list(ex.map(task, range(64)))
        assert "steady" in results, "the producer never recovered"
        # Every call either got the value or saw a transient error —
        # nothing hung (ex.map returning at all proves no deadlock).
        assert set(results) <= {"steady", "failed"}
        result, hit = cache.get_or_generate("k", flaky_produce)
        assert (result, hit) == ("steady", True)

    def test_budget_exceeded_propagates_and_extension_recovers(self):
        # The real failure mode from the issue: BudgetExceeded from the
        # specializer inside the single flight.
        gen = GeneratingExtension(
            POWER, "DS", goal="power", max_residual_size=1
        )
        with ThreadPoolExecutor(max_workers=4) as ex:
            futures = [
                ex.submit(gen.to_object_code, [4]) for _ in range(8)
            ]
            for fut in futures:
                with pytest.raises(BudgetExceeded):
                    fut.result(10)
        assert gen.cache_stats()["budget_trips"] >= 1
        assert len(gen.cache) == 0, "failed generations must not be cached"
