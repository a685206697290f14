"""The three readings of the compilators emit the same object code.

Each compilator is written once (:mod:`repro.compiler.annotated`) and
reaches the fused backend in three forms, all folded over the same ANF
syntax by :func:`~repro.compiler.program.fold_program`:

* *printed* — the combinators rendered as Python source and loaded
  (:class:`~repro.compiler.fusion.ObjectCodeBackend`, what
  :func:`~repro.compiler.program.compile_program` runs);
* *derived* — the recipe-DAG combinators of
  :func:`~repro.compiler.annotated.derive_combinator`;
* *erased* — the compilators run with their annotations erased
  (:class:`~repro.compiler.fusion.ErasingBackend`), "still usable as an
  ordinary compiler" (§6.2).

One syntax walk and one source of read facts serve all three, so the
comparison is between readings of one compilator text.  Every input of
the object-code pins is compared (globals, primitives shadowed by
top-level names, and nested closures included), plus random closed
expressions.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import ErasingBackend, ObjectCodeBackend, compile_program
from repro.compiler import annotated
from repro.compiler.program import CompiledProgram
from repro.lang import parse_program
from repro.sexp import sym
from repro.vm import disassemble
from tests.routes import fold
from tests.strategies import arith_exprs, higher_order_exprs, list_exprs
from tests.test_compile_pins import _CASES

COMBINATORS = sorted(
    name for name in vars(ObjectCodeBackend) if name.startswith("make_residual_")
)

# The fused backend over the derived combinators.
DerivedBackend = type(
    "DerivedBackend",
    (ObjectCodeBackend,),
    {name: staticmethod(getattr(annotated, name)) for name in COMBINATORS},
)

# A program's own ``abs`` shadows the primitive; a closure that names a
# global before its one captured let variable.
SHADOWING = "(define (abs x) 'mine) (define (main y) (abs y))"
GLOBAL_IN_CLOSURE = (
    "(define (g x) (+ x 1))"
    " (define (t y0) (let ((y (car y0))) ((lambda () (g y)))))"
)
PROGRAMS = {
    **_CASES,
    "shadowing": parse_program(SHADOWING, goal="main"),
    "global-in-closure": parse_program(GLOBAL_IN_CLOSURE, goal="t"),
}


def _disassemblies(compiled: CompiledProgram) -> dict:
    return {
        name: disassemble(template)
        for name, template in compiled.templates.items()
    }


def assert_readings_agree(program) -> None:
    printed = _disassemblies(compile_program(program))
    for backend_class in (DerivedBackend, ErasingBackend):
        folded = _disassemblies(fold(program, backend_class))
        assert folded == printed, backend_class.__name__


def test_each_backend_overrides_every_combinator():
    assert len(COMBINATORS) == 11
    for backend_class in (DerivedBackend, ErasingBackend):
        for name in COMBINATORS:
            assert name in vars(backend_class), (backend_class, name)


@pytest.mark.parametrize("label", sorted(PROGRAMS))
def test_three_readings_identical(label):
    assert_readings_agree(PROGRAMS[label])


@given(
    st.one_of(
        arith_exprs(depth=4), higher_order_exprs(depth=4), list_exprs(depth=3)
    )
)
@settings(max_examples=60, deadline=None)
def test_three_readings_identical_on_random_expressions(source):
    assert_readings_agree(parse_program(f"(define (t) {source})"))


def test_erasing_reading_keeps_a_program_name_over_a_primitive():
    compiled = fold(PROGRAMS["shadowing"], ErasingBackend)
    assert compiled.run([-3]) == sym("mine")


def test_erasing_reading_ignores_globals_in_let_shapes():
    erased = fold(PROGRAMS["global-in-closure"], ErasingBackend)
    printed = compile_program(PROGRAMS["global-in-closure"])
    t = sym("t")
    assert erased.templates[t].instruction_count() == 12
    assert disassemble(erased.templates[t]) == disassemble(printed.templates[t])
