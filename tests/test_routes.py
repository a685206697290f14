"""Every route from a program to a value agrees with the interpreter,
and every fault in a tier ends in its value or in a typed error.

The routes, the fault table and what "agree" means are
``tests/routes.py``'s.  The fixed inputs (the §7 workloads, the bundled
examples, the safe termination corpus and programs that once split the
routes) run once on every route, tier routes included, under every S/D
pattern of their goal; one property draws random programs and patterns
for the in-process routes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.__main__ import _builtin_run_args, _builtin_targets
from repro.lang import parse_program
from repro.pe import parse_signature
from repro.runtime.values import datum_to_value
from repro.sexp import read
from repro.workloads import (
    lazy_interpreter,
    lazy_primes_program,
    mixwell_interpreter,
    mixwell_tm_program,
)
from tests.corpus_termination import SAFE
from tests.routes import FAULTS, Case, disagreements, merge, patterns
from tests.strategies import (
    arith_exprs,
    guarded_descent_programs,
    higher_order_exprs,
    list_exprs,
)

# A static closure answers #t to procedure? on every route.
PROCEDURE_P = """
(define (f s d)
  (let ((g (lambda (x) (+ x s))))
    (if (procedure? g) (+ d 1) (+ d 2))))
"""
# A program's own abs gives a different answer from the primitive's.
SHADOWING = {
    "direct": "(define (abs x) 'mine) (define (main y) (abs y))",
    "in-closure":
        "(define (abs x) 'mine) (define (main y) ((lambda (z) (abs z)) y))",
}


def _fixed() -> dict:
    """label -> (program, goal arguments)."""
    fixed = {
        "mixwell": (mixwell_interpreter(), (
            mixwell_tm_program(), datum_to_value([1, 0, 1, 1, 0, 1]),
        )),
        # The 4th prime: the 5th costs ten times as much on every route.
        "lazy": (lazy_interpreter(), (lazy_primes_program(), 3)),
        "procedure?": (parse_program(PROCEDURE_P, goal="f"), (3, 10)),
        **{f"shadowing:{label}": (parse_program(source, goal="main"), (-3,))
           for label, source in SHADOWING.items()},
    }
    for e in SAFE:
        statics, dynamics = (
            [datum_to_value(read(t)) for t in texts]
            for texts in (e.static_args, e.dynamic_args)
        )
        fixed[e.name] = (parse_program(e.source, goal=e.goal), merge(
            parse_signature(e.signature), statics, dynamics
        ))
    for label, program, signature, goal in _builtin_targets("examples"):
        fixed[label] = (parse_program(program, goal=goal), merge(
            parse_signature(signature), *_builtin_run_args(label)
        ))
    return fixed


FIXED = _fixed()


@pytest.mark.parametrize("label, signature", [
    (label, sig) for label, (_, args) in FIXED.items()
    for sig in patterns(len(args))
])
def test_fixed_inputs_agree(label, signature):
    program, args = FIXED[label]
    # Tier routes check tiers, not divisions: the §7 workloads run them at SD.
    tiers = label not in ("mixwell", "lazy") or signature == "SD"
    assert disagreements(Case(program, signature, args), tiers) == ""


_INTS = st.integers(-100, 100)


@st.composite
def cases(draw) -> Case:
    kind = draw(st.sampled_from(["arith", "higher-order", "list", "descent"]))
    goal = "goal"
    if kind == "arith":
        body = draw(arith_exprs(depth=4, env=("a", "b")))
        source, args = f"(define (goal a b) {body})", (draw(_INTS), draw(_INTS))
    elif kind == "higher-order":
        body = draw(higher_order_exprs(depth=4, env=("a",)))
        source, args = f"(define (goal a) {body})", (draw(_INTS),)
    elif kind == "list":
        source, args = f"(define (goal) {draw(list_exprs(depth=3))})", ()
    else:
        source, _, goal, statics = draw(guarded_descent_programs())
        d = datum_to_value(draw(st.lists(_INTS, max_size=5)))
        args = (*(datum_to_value(s) for s in statics), d)
    signature = draw(st.sampled_from(patterns(len(args))))
    return Case(parse_program(source, goal=goal), signature, args)


@settings(max_examples=200, deadline=None)
@given(cases())
def test_random_programs_agree(case):
    assert disagreements(case) == ""


@pytest.mark.parametrize("row", FAULTS)
def test_fault_row(row):
    FAULTS[row]()
