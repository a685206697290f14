"""Figure 11 (ours): distributed warm starts over the remote L3 tier.

The paper's residual code dies with the Scheme 48 session; Figure 8
already measures how an on-disk image store (L2) turns restarts into
decode+verify.  This table asks the distributed version of that
question: a **second machine** — cold process, cold local store — that
shares a warm remote object server (L3) with the machine that already
paid for specialization.

Headline claims, per §7 workload (MIXWELL, LAZY):

* **≥3x** — the second machine's first-call latency with a warm L3 is
  at least 3x below the fully-cold first call (BTA + specialize +
  assemble), even though every remote image is re-verified on load
  (L3 is untrusted: the bytecode verifier is the trust anchor, not the
  network);
* **zero specializer runs** — the second machine never specializes:
  the image arrives over the wire, verifies, and replicates into its
  local L2 on the way through.
"""

from __future__ import annotations

import time

import pytest

from repro.image.remote import ObjectServer
from repro.rtcg import make_generating_extension
from repro.workloads import (
    LAZY_SIGNATURE,
    MIXWELL_SIGNATURE,
    lazy_interpreter,
    lazy_primes_program,
    mixwell_interpreter,
    mixwell_tm_program,
)

ROUNDS = 3
MIN_SPEEDUP = 3.0

WORKLOADS = {
    "mixwell": (mixwell_interpreter, MIXWELL_SIGNATURE, mixwell_tm_program),
    "lazy": (lazy_interpreter, LAZY_SIGNATURE, lazy_primes_program),
}


def _measure(workload, tmp_path_factory):
    """One workload's (cold_s, warm_s, machine-2 cache stats)."""
    interp_fn, sig, static_fn = WORKLOADS[workload]
    static = static_fn()
    l3_dir = tmp_path_factory.mktemp(f"fig11-{workload}-l3")
    with ObjectServer(l3_dir, port=0) as server:
        endpoint = ("127.0.0.1", server.port)
        # Machine 1 pays for specialization once and publishes the
        # image (write-behind; flush before "machine 2 boots").
        m1 = make_generating_extension(
            interp_fn(), sig,
            store_dir=tmp_path_factory.mktemp(f"fig11-{workload}-m1"),
            remote_store=endpoint,
        )
        m1.to_object_code([static])
        assert m1.flush_store()
        m1.close_store()

        # Both machines build the extension (BTA + congruence + safety
        # analysis) identically, so — as in Figure 8 — construction sits
        # outside the timed region and the table isolates what differs:
        # the first ``to_object_code`` call.  Fully cold that call is
        # specialize + assemble + verify; on machine 2 it is a remote
        # fetch + decode + **verify** (L3 stays untrusted).
        def cold_first_call():
            gen = make_generating_extension(interp_fn(), sig)
            return _timed(lambda: gen.to_object_code([static]))

        stats = {}

        def warm_first_call():
            gen = make_generating_extension(
                interp_fn(), sig,
                store_dir=tmp_path_factory.mktemp(f"fig11-{workload}-m2"),
                remote_store=endpoint,
            )
            elapsed = _timed(lambda: gen.to_object_code([static]))
            stats.update(gen.cache_stats())
            gen.close_store(flush=False)
            return elapsed

        cold_s = min(cold_first_call() for _ in range(ROUNDS))
        warm_s = min(warm_first_call() for _ in range(ROUNDS))
        return cold_s, warm_s, stats


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def measurement(request, tmp_path_factory):
    cold_s, warm_s, stats = _measure(request.param, tmp_path_factory)
    return request.param, cold_s, warm_s, stats


class TestFig11DistributedWarmStart:
    def test_warm_l3_beats_fully_cold_by_3x(self, measurement):
        workload, cold_s, warm_s, _ = measurement
        assert warm_s * MIN_SPEEDUP <= cold_s, (
            f"{workload}: warm-L3 first call {warm_s * 1e3:.2f} ms vs"
            f" fully-cold {cold_s * 1e3:.2f} ms — expected"
            f" at least {MIN_SPEEDUP}x"
        )

    def test_machine_two_never_specializes(self, measurement):
        workload, _, _, stats = measurement
        assert stats["specializer_runs"] == 0, workload
        remote = stats["store"]["remote"]
        assert remote["remote_hits"] == 1
        assert remote["remote_errors"] == 0
        assert remote["remote_verify_failures"] == 0

    def test_image_replicated_into_machine_twos_l2(self, measurement):
        _, _, _, stats = measurement
        assert stats["store"]["adopts"] == 1
