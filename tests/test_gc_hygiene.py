"""The cold generation path leaves no work for the cyclic garbage collector.

Reference cycles built per call (a self-recursive local closure, two
closures that name each other) survive until a full collection, so the
collector's cost grows with every residual generated.  Plain-int opcodes
keep instruction tuples atomic, so CPython untracks them and residuals
held in caches stop adding to the cost of each full collection.
"""

from __future__ import annotations

import gc

import pytest

from repro.compiler.fusion import ObjectCodeBackend
from repro.rtcg import GeneratingExtension
from repro.vm.opt import clear_memo
from repro.vm.template import Template
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

# Collectable objects one cold §7 generation may leave behind.
CYCLIC_GARBAGE_BOUND = 50

WORKLOADS = {
    "mixwell": (MIXWELL_SOURCE, MIXWELL_SIGNATURE, MIXWELL_GOAL,
                mixwell_tm_program),
    "lazy": (LAZY_SOURCE, LAZY_SIGNATURE, LAZY_GOAL, lazy_primes_program),
}


def _extension(name: str) -> tuple[GeneratingExtension, object]:
    source, signature, goal, static = WORKLOADS[name]
    return GeneratingExtension(source, signature, goal=goal), static()


def _templates(residual) -> list[Template]:
    """Every template of a residual program, nested ones included."""
    found: list[Template] = []
    seen: set[int] = set()
    stack = [closure.template for closure in residual.machine.globals.values()]
    while stack:
        template = stack.pop()
        if id(template) in seen:
            continue
        seen.add(id(template))
        found.append(template)
        stack.extend(
            lit for lit in template.literals if isinstance(lit, Template)
        )
    return found


def _cyclic_garbage(generate) -> int:
    """Collectable objects ``generate()`` leaves behind."""
    clear_memo()  # a memo hit would skip the optimizer's cold path
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        generate()
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_cold_generation_leaves_no_cyclic_garbage(name):
    ext, static = _extension(name)
    garbage = _cyclic_garbage(lambda: ext.to_object_code([static]))
    assert garbage <= CYCLIC_GARBAGE_BOUND


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_compiled_extension_leaves_no_cyclic_garbage(name):
    # Compiling the extension and running it: neither the closure tree
    # nor a generation may hold a reference cycle.
    ext, static = _extension(name)
    garbage = _cyclic_garbage(
        lambda: ext.compiled().generate(
            [static], backend=ObjectCodeBackend()
        )
    )
    assert garbage <= CYCLIC_GARBAGE_BOUND


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_cached_residual_code_is_untracked(name):
    ext, static = _extension(name)
    ext.to_object_code([static])
    gc.collect()
    cached = ext.peek([static])  # the residual the L1 cache holds
    assert cached is not None
    templates = _templates(cached)
    assert templates
    tracked = [
        (template.name, instr)
        for template in templates
        for instr in template.code
        if gc.is_tracked(instr)
    ]
    assert tracked == []
