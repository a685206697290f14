"""Whole-program compilation: programs → a loaded VM global environment."""

from __future__ import annotations

from typing import Any, Sequence

from repro.anf.convert import anf_convert_program
from repro.anf.grammar import is_anf_program
from repro.compiler.anf_compiler import ANFCompiler
from repro.compiler.stock import StockCompiler
from repro.lang.ast import Program
from repro.sexp.datum import Symbol
from repro.vm.machine import Machine, VmClosure
from repro.vm.opt import optimize_template
from repro.vm.template import Template
from repro.vm.verify import verify_template


class CompiledProgram:
    """A program compiled to templates, ready to run on a :class:`Machine`."""

    def __init__(self, templates: dict[Symbol, Template], goal: Symbol):
        self.templates = templates
        self.goal = goal

    def machine(self) -> Machine:
        """A fresh machine with every definition loaded."""
        m = Machine()
        for name, template in self.templates.items():
            m.define(name, VmClosure(template, ()))
        return m

    def run(self, args: Sequence[Any], machine: Machine | None = None) -> Any:
        m = machine or self.machine()
        return m.call_named(self.goal, args)

    def instruction_count(self) -> int:
        return sum(t.instruction_count() for t in self.templates.values())


def compile_program(
    program: Program,
    compiler: str = "auto",
    verify: bool = True,
    optimize: bool = False,
) -> CompiledProgram:
    """Compile every definition of ``program``.

    ``compiler`` selects the backend:

    * ``"anf"``   — the cut-down ANF compiler (program must be in ANF);
    * ``"stock"`` — the stock compiler (any CS program);
    * ``"auto"``  — ANF compiler when the program is already in ANF,
      otherwise normalize first and use the ANF compiler.

    ``verify`` runs the bytecode verifier over every emitted template
    (:mod:`repro.vm.verify`); a compiler bug is rejected here instead of
    crashing the machine mid-run.  ``optimize`` opts in to the dataflow
    bytecode optimizer (:mod:`repro.vm.opt`) over each template (the ANF
    compiler already emits what it would keep of naive code, bar constant
    folding); the optimizer re-verifies its own output (translation
    validation).
    """
    program_names = frozenset(d.name for d in program.defs)
    from repro.lang.assignment import eliminate_assignments, has_assignments

    if any(has_assignments(d.body) for d in program.defs):
        program = eliminate_assignments(program)
    if compiler == "stock":
        stock = StockCompiler(globals_=program_names)
        templates = {
            d.name: stock.compile_procedure(d.params, d.body, name=d.name.name)
            for d in program.defs
        }
    else:
        if compiler == "anf":
            if not is_anf_program(program):
                raise ValueError("program is not in ANF; use compiler='auto'")
        elif compiler == "auto":
            if not is_anf_program(program):
                program = anf_convert_program(program)
        else:
            raise ValueError(f"unknown compiler {compiler!r}")
        anf = ANFCompiler(check=False, globals_=program_names)
        templates = {
            d.name: anf.compile_procedure(d.params, d.body, name=d.name.name)
            for d in program.defs
        }
    if verify:
        for template in templates.values():
            verify_template(template)
    if optimize:
        templates = {
            name: optimize_template(template, assume_verified=verify)
            for name, template in templates.items()
        }
    return CompiledProgram(templates, program.goal)
