"""Shared test helpers: the reference interpreter on an expression, and
an unsound residual.  Every route from a program to a value, and every
fault a stored, fetched or served residual must survive, is in
``tests/routes.py``."""

from __future__ import annotations

from typing import Any

from repro.interp import Interpreter
from repro.lang import eliminate_assignments_expr, has_assignments, parse_expr
from repro.runtime.values import value_to_datum
from repro.vm.instructions import Op
from repro.vm.machine import VmClosure
from repro.vm.template import Template


def interp_expr(source: str) -> Any:
    """Evaluate an expression with the reference interpreter.

    Runs assignment elimination when needed (``letrec``/``set!`` desugar
    into assignments).
    """
    expr = parse_expr(source)
    if has_assignments(expr):
        expr = eliminate_assignments_expr(expr)
    return Interpreter().eval(expr, None)


def interp_datum(source: str) -> Any:
    """Evaluate and convert the result to reader data (lists etc.)."""
    return value_to_datum(interp_expr(source))


def unsound_residual(gen: Any, static: Any = 5) -> Any:
    """``gen``'s object code for ``static`` with its first template
    replaced by a well-framed but unsound one (a branch past the end of
    the code): an image of it encodes and decodes, and fails the
    verifier."""
    rp = gen.to_object_code([static])
    name = next(iter(rp.machine.globals))
    bad = Template(
        code=((Op.JUMP, 99), (Op.RETURN,)), literals=(), arity=1,
        nlocals=1, name=rp.machine.globals[name].template.name,
    )
    rp.machine.globals[name] = VmClosure(bad, ())
    return rp
