"""Tests of the benchmark's seeded inputs and oracles.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import itertools
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
from oracle import binary_increment, nth_prime  # noqa: E402


def _inputs_digest(seed: int) -> str:
    """A digest of every kind of input a seed produces."""
    h = hashlib.sha256()
    for program, dynamic in itertools.islice(gen.cold_programs(seed), 24):
        h.update(program.source.encode() + str(dynamic).encode())
    for lang, item in itertools.islice(gen.run_schedule(seed), 40):
        h.update(f"{lang}{item}".encode())
    work = gen.serve_set(seed, 500)
    for program in work.programs:
        h.update(program.source.encode())
    h.update(repr(work.schedule).encode())
    return h.hexdigest()


def test_same_seed_same_bytes_under_any_hash_seed():
    script = (
        f"import sys; sys.path.insert(0, {str(HERE)!r});"
        "import test_gen; print(test_gen._inputs_digest(7))"
    )
    digests = {
        subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True, env={"PYTHONHASHSEED": hash_seed},
        ).stdout.strip()
        for hash_seed in ("0", "1", "random")
    }
    assert digests == {_inputs_digest(7)}


def test_different_seeds_different_inputs():
    assert len({_inputs_digest(seed) for seed in (1, 2, 3)}) == 3


def test_programs_are_structurally_distinct():
    sources = [p.source for p, _ in itertools.islice(gen.cold_programs(4), 64)]
    assert len(set(sources)) == len(sources)


def test_cold_sizes_span_the_section7_inputs():
    lines = {"mixwell": [], "lazy": []}
    for program, _ in itertools.islice(gen.cold_programs(5), 64):
        lines[program.lang].append(program.lines)
    assert min(lines["mixwell"]) < 62 < max(lines["mixwell"])
    assert min(lines["lazy"]) < 26 < max(lines["lazy"])


def test_every_cycle_has_the_same_size_mix():
    cycle = len(gen.COLD_CYCLE)
    programs = [p for p, _ in itertools.islice(gen.cold_programs(6), 3 * cycle)]
    mixes = {
        tuple(sorted((p.lang, p.functions) for p in programs[i:i + cycle]))
        for i in range(0, len(programs), cycle)
    }
    assert mixes == {tuple(sorted(gen.COLD_CYCLE))}


def test_serve_cold_keys_overflow_the_default_l1():
    from repro.serve import TenantQuota

    capacity = TenantQuota().max_cached_residuals
    assert gen.SERVE_MIXWELL_HOT + gen.SERVE_MIXWELL_COLD > capacity
    assert gen.SERVE_LAZY_KEYS <= capacity


@pytest.fixture(scope="module")
def extensions():
    from repro.rtcg import GeneratingExtension
    from repro.workloads import (
        LAZY_GOAL, LAZY_SIGNATURE, LAZY_SOURCE,
        MIXWELL_GOAL, MIXWELL_SIGNATURE, MIXWELL_SOURCE,
    )

    return {
        "mixwell": GeneratingExtension(
            MIXWELL_SOURCE, MIXWELL_SIGNATURE, goal=MIXWELL_GOAL),
        "lazy": GeneratingExtension(
            LAZY_SOURCE, LAZY_SIGNATURE, goal=LAZY_GOAL),
    }


@pytest.mark.parametrize("seed", [1, 2])
def test_generated_programs_terminate_and_agree(seed, extensions):
    """Each program terminates under the reference interpreter within a
    step budget, and its residual agrees with it on every input."""
    from repro.interp import run_program
    from repro.lang.prims import write_value
    from repro.runtime.values import datum_to_value
    from repro.sexp.reader import read

    work = gen.serve_set(seed, 0)
    cold = [p for p, _ in itertools.islice(gen.cold_programs(seed), 16)]
    for program in cold + work.programs[::8]:
        static = datum_to_value(read(program.source))
        residual = extensions[program.lang].to_object_code([static])
        interpreter = extensions[program.lang].program
        for dynamic in range(gen.MAX_FUEL + 1):
            expected = write_value(run_program(
                interpreter, [static, dynamic], step_limit=2_000_000))
            assert write_value(residual.run([dynamic])) == expected, (
                program.source, dynamic)


def test_oracles_agree_with_the_reference_interpreter():
    from repro.lang.prims import write_value
    from repro.runtime.values import datum_to_value
    from repro.sexp.reader import read
    from repro.workloads import (
        lazy_primes_program, mixwell_tm_program, run_lazy, run_mixwell,
    )

    tm = mixwell_tm_program()
    for bits in ([1], [1, 1, 1], [1, 0, 1, 1], [1, 0, 0, 1, 0]):
        tape = datum_to_value(read("(" + " ".join(map(str, bits)) + ")"))
        assert write_value(run_mixwell(tm, tape)) == binary_increment(bits)
    primes = lazy_primes_program()
    for n in range(4):
        assert write_value(run_lazy(primes, n)) == nth_prime(n)

