"""Every in-process route from a program to a value, in one table.

Many routes reach one value; the first Futamura equation,
``residual(interp, prog)(input) == interp(prog, input)``, is the
contract all of them keep.  :data:`ROUTES` maps a route's name to its
division (``None`` where it does not specialize) and a function of a
:class:`Case`; :func:`disagreements` compares every route's outcome (a
value in ``write`` notation, or an error compared by class) with the
interpreter's, up to three allowances (DESIGN.md, "Route contract"):
:func:`speculative_static_error`, :func:`mono_lift_infelicity` and
:func:`mono_split`.  :func:`annotate` and :func:`specialize` are the one
way tests run an engine over an annotated program.
"""

from __future__ import annotations

import signal
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Any, Callable

from repro.analysis import analyze_bta
from repro.anf.convert import anf_convert_program
from repro.anf.grammar import is_anf_program
from repro.compiler import ErasingBackend, ObjectCodeBackend, compile_program
from repro.compiler.program import CompiledProgram, fold_program
from repro.image.codec import decode_residual, encode_residual
from repro.interp import Env, Interpreter, run_program
from repro.lang import parse_program, walk
from repro.lang.assignment import eliminate_assignments, has_assignments
from repro.lang.ast import (
    App, Const, DApp, DIf, DLam, DPrim, If, Lam, Let, Lift, Prim, Program, Var,
)
from repro.lang.prims import write_value
from repro.pe import (
    BindingTime, PEError, SourceBackend, Specializer, analyze, parse_signature,
)
from repro.pe.cogen import compile_generating_extension
from repro.pe.errors import BindingTimeError, SpecializationError
from repro.pe.fig3 import Fig3Specializer
from repro.pe.values import Dynamic, Static
from repro.rtcg import GeneratingExtension
from repro.runtime.errors import SchemeError
from repro.vm.profile import VMProfile

S, D = BindingTime.STATIC, BindingTime.DYNAMIC
ENGINES = ("specializer", "compiled")


def annotate(program, signature, goal=None, bta="poly", **hints):
    """The annotated program of ``program`` (source text or parsed)."""
    if isinstance(program, str):
        program = parse_program(program, goal=goal)
    return analyze(program, signature, bta=bta, **hints).annotated


def specialize(annotated, statics, engine="compiled", backend=None,
               dif_strategy="duplicate", **budgets):
    """The residual program of one ``engine`` run over ``annotated``."""
    if engine == "specializer":
        return Specializer(
            annotated, backend, dif_strategy=dif_strategy, **budgets
        ).run(statics)
    return compile_generating_extension(annotated).generate(
        statics, backend, dif_strategy=dif_strategy, **budgets
    )


def fold(program: Program, backend_class=ObjectCodeBackend) -> CompiledProgram:
    """``program`` folded into ``backend_class`` as ``compile_program``
    folds it: assignments eliminated, then ANF."""
    if any(has_assignments(d.body) for d in program.defs):
        program = eliminate_assignments(program)
    if not is_anf_program(program):
        program = anf_convert_program(program)
    backend = backend_class()
    fold_program(program, backend)
    return CompiledProgram(backend.templates, program.goal)


def patterns(arity: int) -> list[str]:
    """Every S/D signature of ``arity`` goal parameters."""
    return ["".join(p) for p in product("SD", repeat=arity)]


def merge(bts, statics, dynamics) -> tuple:
    """The goal's arguments from its ``statics`` and ``dynamics``."""
    s, d = iter(statics), iter(dynamics)
    return tuple(next(s) if bt is S else next(d) for bt in bts)


def split(bts, args) -> tuple[list, list]:
    """``args`` split into (statics, dynamics) by binding times ``bts``."""
    return ([a for a, bt in zip(args, bts) if bt is S],
            [a for a, bt in zip(args, bts) if bt is D])


def mono_split(annotated, args) -> tuple[list, list]:
    """Allowance 3, dynamized goal parameters: the monovariant join can
    make a goal parameter dynamic, so the mono route splits the
    arguments by its own goal division, not by the signature."""
    return split(annotated.goal_def().bts, args)


@dataclass
class Case:
    """A program, a signature and its goal's arguments."""

    program: Program
    signature: str
    args: tuple
    residuals: dict = field(default_factory=dict, repr=False)

    @cached_property
    def split(self) -> tuple[list, list]:
        return split(parse_signature(self.signature), self.args)

    @cached_property
    def extension(self) -> GeneratingExtension:
        return GeneratingExtension(
            self.program, self.signature, analyze="off", cache_size=0
        )

    @cached_property
    def safe(self) -> bool:
        """Whether the safety analysis accepts the signature; only the
        routes that do not specialize run a program it flags."""
        return analyze_bta(self.extension.bta).safe

    @cached_property
    def mono(self):
        annotated = annotate(self.program, self.signature, bta="mono")
        return annotated, mono_split(annotated, self.args)

    def residual(self, name: str) -> tuple:
        """Residual route ``name``'s program and its dynamic arguments,
        generated once per case."""
        if name not in self.residuals:
            division, make = RESIDUALS[name]
            dynamics = (self.mono[1] if division == "mono" else self.split)[1]
            self.residuals[name] = make(self), dynamics
        return self.residuals[name]


_FIG3_RULES = (Const, Var, Prim, Lam, App, Let, If, Lift, DPrim, DLam, DApp, DIf)


def _fig3(case: Case) -> Any:
    """Fig. 3's transliteration on a goal-only, memo-free program, its
    residual expression run by the interpreter; ``None`` elsewhere."""
    goal = case.extension.bta.annotated.goal_def()
    if len(case.extension.bta.annotated.defs) > 1 or not all(
        isinstance(n, _FIG3_RULES) and n != Var(goal.name)
        for n in walk(goal.body)
    ):
        return None
    values = dict(zip(goal.params, case.args))
    rho = {p: Static(values[p]) if bt is S else Dynamic(Var(p))
           for p, bt in zip(goal.params, goal.bts)}
    residual = Fig3Specializer().spec_expr(goal.body, rho)
    dynamic = {p: values[p] for p in goal.dynamic_params()}
    return Interpreter().eval(residual, Env(dynamic, None))


# name -> (division, case -> residual program)
RESIDUALS: dict[str, tuple[str, Callable[[Case], Any]]] = {
    **{f"extension/{kind}/{strategy}": ("poly", (
        lambda c, kind=kind, strategy=strategy: getattr(
            c.extension, f"to_{kind}"
        )(c.split[0], dif_strategy=strategy)
    )) for kind in ("source", "object_code") for strategy in ("duplicate", "join")},
    **{f"specializer/{kind}": ("poly", (
        lambda c, backend=backend: specialize(
            c.extension.bta.annotated, c.split[0], "specializer", backend()
        )
    )) for kind, backend in (("source", SourceBackend),
                             ("object_code", ObjectCodeBackend))},
    "mono/object_code": ("mono", lambda c: specialize(
        c.mono[0], c.mono[1][0], "compiled", ObjectCodeBackend(), "join"
    )),
    "image/object_code": ("poly", lambda c: decode_residual(
        encode_residual(c.residual("extension/object_code/join")[0])
    )),
}

# name -> (division or None, case -> value)
ROUTES: dict[str, tuple[str | None, Callable[[Case], Any]]] = {
    "interp": (None, lambda c: run_program(c.program, c.args)),
    "compile/auto": (None, lambda c: compile_program(c.program).run(c.args)),
    "compile/stock": (None, lambda c: compile_program(c.program, "stock").run(c.args)),
    "compile/erasing": (None, lambda c: fold(c.program, ErasingBackend).run(c.args)),
    "fig3": ("poly", _fig3),
}


def _run(name: str, profiled: bool = False) -> Callable[[Case], Any]:
    def route(case: Case) -> Any:
        residual, dynamics = case.residual(name)
        if profiled:
            return residual.run_profiled(dynamics, VMProfile())
        return residual.run(dynamics)

    return route


for _name, (_division, _) in RESIDUALS.items():
    ROUTES[_name] = (_division, _run(_name))
    if _name.endswith("object_code"):  # the counting dispatch loop too
        ROUTES[f"{_name}/profiled"] = (_division, _run(_name, profiled=True))

# No route takes a second on the inputs; one that runs this long (a
# residual loop that never exits) is reported, not waited for.
ROUTE_SECONDS = 10


def _expire(signum, frame):
    raise TimeoutError(f"no outcome within {ROUTE_SECONDS} s")


def outcome(route: Callable[[Case], Any], case: Case) -> Any:
    """``route``'s value on ``case`` in write notation, the error it
    raised, or ``None`` where the route does not apply."""
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, ROUTE_SECONDS)
    try:
        value = route(case)
    except (SchemeError, PEError, TimeoutError) as exc:
        return exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return None if value is None else write_value(value)


def same(a: Any, b: Any) -> bool:
    """Equal values, or errors of one class.  A static primitive that
    fails in the program fails at specialization: a specialization-time
    error counts as the error it wraps."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    a, b = (e.__cause__ if speculative_static_error(e) else e for e in (a, b))
    return type(a) is type(b)


def speculative_static_error(result: Any) -> bool:
    """Allowance 1: specialization evaluated a static primitive under
    dynamic control, where the program itself need not reach it."""
    return type(result) is SpecializationError and str(result).startswith(
        "specialization-time error in ("
    )


def mono_lift_infelicity(result: Any) -> bool:
    """Allowance 2: the monovariant join lifted a value into a static
    parameter, where the polyvariant division splits a variant."""
    return type(result) is BindingTimeError and str(result).startswith(
        "dynamic argument to static "
    )


def disagreements(case: Case) -> str:
    """Every route whose outcome differs from the interpreter's beyond
    the three allowances, as ``name: outcome`` lines ("" if none)."""
    results = {
        name: outcome(route, case) for name, (division, route) in ROUTES.items()
        if division is None or case.safe
    }
    reference = results["interp"]
    wrong = []
    for name, result in results.items():
        division = ROUTES[name][0]
        if result is None or same(result, reference):
            continue
        if isinstance(reference, str) and speculative_static_error(result) and all(
            type(other) is type(result) and str(other) == str(result)
            for other_name, other in results.items()
            if ROUTES[other_name][0] == division and other is not None
        ):
            continue  # every specializing route of the division stops alike
        if division == "mono" and mono_lift_infelicity(result) and same(
            results.get("extension/object_code/join"), reference
        ):
            continue
        wrong.append(f"{name}: {result!r}")
    return "\n".join([f"interp: {reference!r}", *wrong]) if wrong else ""
