"""Shared instruction tuples (``repro.vm.template.intern_code``).

Every producer of template code -- the assembler, the optimizer and the
image codec -- builds its code vector through ``intern_code``, so equal instructions are one object across
templates and residuals.  Sharing must be invisible: equality, digests
and generated code are unchanged, and the table is bounded.
"""

from __future__ import annotations

import gc
import sys
import threading

from repro.image.codec import decode_residual, encode_residual
from repro.rtcg import GeneratingExtension
from repro.vm import template as template_module
from repro.vm.instructions import Op
from repro.vm.template import Template, intern_code
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


def _rows(n: int) -> list[list[int]]:
    return [[int(Op.CONST), i] for i in range(n)] + [[int(Op.RETURN)]]


def _templates(residual) -> list[Template]:
    found, stack = [], [
        value.template
        for value in residual.machine.globals.values()
        if hasattr(value, "template")
    ]
    while stack:
        template = stack.pop()
        found.append(template)
        stack.extend(
            lit for lit in template.literals if isinstance(lit, Template)
        )
    return found


def test_equal_rows_built_separately_are_one_object():
    first = intern_code([[int(Op.LOCAL), 3], (int(Op.RETURN),)])
    second = intern_code(([int(Op.LOCAL), 3], [int(Op.RETURN)]))
    assert first == second
    assert all(a is b for a, b in zip(first, second))
    assert all(type(row) is tuple for row in first)


def test_rows_that_are_not_plain_ints_are_kept_as_built():
    # True == 1 and Op.CONST == 0, but the verifier tells them apart, so
    # such rows neither enter the table nor pick up an int twin.
    plain = intern_code([[1, 0]])[0]
    for odd in ((True, 0), (Op(1), 0), (1, False)):
        (kept,) = intern_code([odd])
        assert kept == plain and kept is not plain
        assert [type(x) for x in kept] == [type(x) for x in odd]


def test_equality_and_digests_are_unchanged():
    rows = _rows(4)
    interned = Template(intern_code(rows), (1, 2, 3, 4), 0, 0, "t")
    plain = Template(
        tuple(tuple(r) for r in rows), (1, 2, 3, 4), 0, 0, "t"
    )
    assert interned == plain
    assert interned.content_digest() == plain.content_digest()


def test_interned_rows_stay_untracked():
    code = intern_code(_rows(8))
    gc.collect()
    assert not any(gc.is_tracked(row) for row in code)


def test_table_stops_growing_at_the_cap(monkeypatch):
    monkeypatch.setattr(template_module, "_INTERNED", {})
    monkeypatch.setattr(template_module, "INTERN_CAP", 10)
    code = intern_code([[int(Op.CONST), i] for i in range(25)])
    table = template_module._INTERNED
    assert len(table) == 10
    # Rows past the cap are kept, not dropped, and equal to what was built.
    assert code == tuple((int(Op.CONST), i) for i in range(25))
    again = intern_code([[int(Op.CONST), i] for i in range(25)])
    assert all(again[i] is code[i] for i in range(10))
    assert all(again[i] is not code[i] for i in range(10, 25))
    assert len(table) == 10


def test_decoded_images_share_rows_with_generated_code():
    gen = GeneratingExtension(LAZY_SOURCE, LAZY_SIGNATURE, goal=LAZY_GOAL)
    residual = gen.to_object_code([lazy_primes_program()])
    loaded = decode_residual(encode_residual(residual))
    generated = {row for t in _templates(residual) for row in t.code}
    for template in _templates(loaded):
        for row in template.code:
            twin = next(r for r in generated if r == row)
            assert row is twin


WORKLOADS = (
    (MIXWELL_SOURCE, MIXWELL_SIGNATURE, MIXWELL_GOAL, mixwell_tm_program),
    (LAZY_SOURCE, LAZY_SIGNATURE, LAZY_GOAL, lazy_primes_program),
)


def _digests() -> list[list[str]]:
    out = []
    for source, signature, goal, static in WORKLOADS:
        gen = GeneratingExtension(source, signature, goal=goal)
        residual = gen.to_object_code([static()], use_cache=False)
        out.append(sorted(t.content_digest() for t in _templates(residual)))
    return out


def test_concurrent_generation_matches_a_serial_run():
    serial = _digests()
    results: list = [None] * 4
    errors: list[Exception] = []

    def work(slot: int) -> None:
        try:
            results[slot] = _digests()
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert results == [serial] * 4
