"""The compilators emit the bytecode optimizer's fixpoint (DESIGN §1 item 7).

Three of the optimizer's passes — copy propagation, dead-store removal
and locals compaction — only ever undid the ``SETLOC k; LOCAL k``
temporaries naive let code leaves.  The compilators no longer emit
those, so on a residual the three never fire — unless constant folding,
which the compilators do not do and which only ``repro.vm.opt.optimize``
run over a finished template does, first turns a binding into a
constant.
"""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from repro.__main__ import main
from repro.rtcg import make_generating_extension
from repro.vm import opt
from repro.vm.machine import VmClosure
from repro.workloads import (
    MIXWELL_SIGNATURE,
    mixwell_interpreter,
    mixwell_tm_program,
)
from tests.strategies import arith_exprs, higher_order_exprs

SLOT_PASSES = ("copy_prop", "dead_store", "locals_compaction")
FOLDING = ("const_fold", "branch_simplify")


def _slot_passes(passes: dict) -> dict:
    return {name: passes[name] for name in SLOT_PASSES if passes.get(name)}


@given(
    body=st.one_of(
        arith_exprs(depth=4, env=("a", "b")),
        higher_order_exprs(depth=4, env=("a", "b")),
    ),
    sig=st.sampled_from(["DD", "SD", "DS"]),
    static=st.integers(min_value=-5, max_value=5),
)
@settings(max_examples=40, deadline=None)
def test_random_residuals_need_no_slot_pass(body, sig, static):
    source = f"(define (main a b) {body})"
    gen = make_generating_extension(source, sig, goal="main", analyze="off")
    residual = gen.to_object_code([static] if "S" in sig else [])
    for value in residual.machine.globals.values():
        if not isinstance(value, VmClosure):
            continue
        passes = opt.optimize(value.template).passes
        if not any(passes.get(name) for name in FOLDING):
            assert _slot_passes(passes) == {}, (source, sig, passes)


def test_builtin_targets_need_no_slot_pass(capsys):
    assert main(["opt", "--builtin", "all", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    for label, target in report["targets"].items():
        for entry in target["templates"]:
            assert _slot_passes(entry["passes"]) == {}, (label, entry["template"])


def test_default_generation_verifies_each_template_once():
    gen = make_generating_extension(mixwell_interpreter(), MIXWELL_SIGNATURE)
    residual = gen.to_object_code([mixwell_tm_program()])
    stages = gen.cache_stats()["stages"]
    assert "vm.optimize" not in stages
    assert stages["vm.verify"]["count"] == residual.stats["residual_defs"]
