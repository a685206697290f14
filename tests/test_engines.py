"""The two specialization engines agree.

The interpretive :class:`~repro.pe.specializer.Specializer` and the
compiled generating extension (:mod:`repro.pe.cogen`, the engine behind
:class:`~repro.rtcg.GeneratingExtension`) share one run state
(:mod:`repro.pe.runstate`); only the traversal differs.  These tests
check that the residual code they emit is the same — source byte for
byte, object code template for template — under both ``dif_strategy``
rules, and that a generating extension is safe to share between threads.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.fusion import ObjectCodeBackend
from repro.pe.backend import SourceBackend
from repro.rtcg import GeneratingExtension
from repro.runtime.values import scheme_list
from repro.workloads import (
    LAZY_GOAL,
    LAZY_SIGNATURE,
    LAZY_SOURCE,
    MIXWELL_GOAL,
    MIXWELL_SIGNATURE,
    MIXWELL_SOURCE,
    lazy_primes_program,
    mixwell_tm_program,
)
from tests.routes import ENGINES, specialize
from tests.strategies import arith_exprs, guarded_descent_programs


STRATEGIES = ("duplicate", "join")


def _facts(residual, backend):
    """What must agree between the engines: the code and its counts."""
    stats = residual.stats
    counts = (
        stats["residual_defs"], stats["residual_size"], stats["memo_entries"]
    )
    if isinstance(backend, SourceBackend):
        return residual.fingerprint(), counts
    # Content digests, not Template equality: a literal pair is a fresh
    # object per generation and compares by identity.
    return {
        name: (t.content_digest(), t.instruction_count())
        for name, t in backend.templates.items()
    }, counts


def assert_engines_agree(gen, statics):
    for strategy in STRATEGIES:
        for make_backend in (SourceBackend, ObjectCodeBackend):
            facts = {}
            for engine in ENGINES:
                backend = make_backend()
                facts[engine] = _facts(specialize(
                    gen.bta.annotated, statics, engine, backend, strategy
                ), backend)
            assert facts["specializer"] == facts["compiled"], (
                strategy, make_backend.__name__
            )


# -- the section-7 inputs ---------------------------------------------------------


@pytest.mark.parametrize(
    "workload",
    [
        (MIXWELL_SOURCE, MIXWELL_SIGNATURE, MIXWELL_GOAL, mixwell_tm_program),
        (LAZY_SOURCE, LAZY_SIGNATURE, LAZY_GOAL, lazy_primes_program),
    ],
    ids=["mixwell", "lazy"],
)
def test_section7_engines_agree(workload):
    source, signature, goal, static = workload
    gen = GeneratingExtension(source, signature, goal=goal, analyze="off")
    assert_engines_agree(gen, [static()])


POWER = "(define (power x n) (if (zero? n) 1 (* x (power x (- n 1)))))"
MAKE_ADD = """
(define (make-add d) (lambda (x) (+ x d)))
(define (main d e) (let ((f (make-add d))) (f (f e))))
"""


@pytest.mark.parametrize(
    "source, signature, goal, statics",
    [(POWER, "DS", "power", [6]), (POWER, "SD", "power", [3]),
     (MAKE_ADD, "DD", "main", [])],
    ids=["power-DS", "power-SD", "make-add"],
)
def test_small_programs_engines_agree(source, signature, goal, statics):
    gen = GeneratingExtension(source, signature, goal=goal, analyze="off")
    assert_engines_agree(gen, statics)


# -- a hypothesis sample ------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(guarded_descent_programs())
def test_recursive_programs_engines_agree(case):
    source, signature, goal, statics = case
    gen = GeneratingExtension(source, signature, goal=goal, analyze="off")
    assert_engines_agree(gen, [scheme_list(*v) if isinstance(v, list) else v
                               for v in statics])


@settings(max_examples=15, deadline=None)
@given(arith_exprs(depth=4, env=("s", "d")), st.integers(-5, 5))
def test_mixed_binding_time_expressions_engines_agree(body, static):
    # Tests on ``d`` make value-position dynamic conditionals, where the
    # two dif strategies differ.
    gen = GeneratingExtension(
        f"(define (goal s d) {body})", "SD", goal="goal", analyze="off"
    )
    assert_engines_agree(gen, [static])


# -- one extension, several threads -------------------------------------------------


def test_threads_generating_through_one_extension_match_a_serial_run():
    gen = GeneratingExtension(
        LAZY_SOURCE, LAZY_SIGNATURE, goal=LAZY_GOAL, cache_size=0,
        analyze="off",
    )
    statics = [lazy_primes_program()]
    jobs = [
        (strategy, kind)
        for strategy in STRATEGIES
        for kind in ("source", "object")
    ] * 2

    def generate(job):
        strategy, kind = job
        if kind == "source":
            residual = gen.to_source(statics, dif_strategy=strategy)
        else:
            residual = gen.to_object_code(statics, dif_strategy=strategy)
        return residual.fingerprint(), residual.stats["residual_size"]

    serial = {job: generate(job) for job in jobs}
    results: dict = {job: [] for job in jobs}
    errors: list = []

    def worker(index: int) -> None:
        try:
            for job in jobs[index:] + jobs[:index]:
                results[job].append(generate(job))
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert gen.cache_stats()["specializer_runs"] == 5 * len(jobs)
    for job, seen in results.items():
        assert seen == [serial[job]] * 8, job
