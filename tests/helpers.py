"""Shared test helpers: running programs on all execution paths."""

from __future__ import annotations

from typing import Any, Sequence

from repro.compiler import compile_program
from repro.interp import Interpreter, run_program
from repro.lang import parse_expr, parse_program
from repro.lang.ast import Program
from repro.runtime.values import value_to_datum


def interp_expr(source: str) -> Any:
    """Evaluate an expression with the reference interpreter.

    Runs assignment elimination when needed (``letrec``/``set!`` desugar
    into assignments).
    """
    from repro.lang import eliminate_assignments_expr, has_assignments

    expr = parse_expr(source)
    if has_assignments(expr):
        expr = eliminate_assignments_expr(expr)
    return Interpreter().eval(expr, None)


def interp_datum(source: str) -> Any:
    """Evaluate and convert the result to reader data (lists etc.)."""
    return value_to_datum(interp_expr(source))


def run_all_ways(program: Program, args: Sequence[Any]) -> list[Any]:
    """Run a program through the interpreter, ANF compiler, and stock compiler."""
    results = [run_program(program, list(args))]
    for mode in ("auto", "stock"):
        results.append(compile_program(program, compiler=mode).run(list(args)))
    return results


def assert_all_ways_equal(source: str, args: Sequence[Any], expected: Any) -> None:
    from repro.runtime.values import scheme_equal

    program = parse_program(source)
    for result in run_all_ways(program, args):
        assert scheme_equal(result, expected), (
            f"got {result!r}, expected {expected!r}"
        )


def unsound_residual(gen: Any, static: Any = 5) -> Any:
    """``gen``'s object code for ``static`` with its first template
    replaced by a well-framed but unsound one (a branch past the end of
    the code): an image of it encodes and decodes, and fails the
    verifier."""
    from repro.vm.instructions import Op
    from repro.vm.machine import VmClosure
    from repro.vm.template import Template

    rp = gen.to_object_code([static])
    name = next(iter(rp.machine.globals))
    bad = Template(
        code=((Op.JUMP, 99), (Op.RETURN,)), literals=(), arity=1,
        nlocals=1, name=rp.machine.globals[name].template.name,
    )
    rp.machine.globals[name] = VmClosure(bad, ())
    return rp
