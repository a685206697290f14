"""Emitting the code-generation combinators as Python source (Act 3).

"The idea is to create alternative versions of the annotation macros that
produce Scheme source expressions for the combinators, to print these into
a file, and load them when needed." (§6.3.2)

:func:`combinator_source` renders one compilator's recipe DAG as a Python
function definition; :func:`emit_combinator_module` produces a complete
loadable module for the whole combinator set, and
:func:`load_combinator_module` executes it — the analogue of Scheme 48
loading the generated combinator file.  ``_let``-annotated values become
local bindings in the emitted function (created once per invocation,
shared between their use sites), exactly as the paper's ``_let`` macro
produces a generation-time ``let``.

The fused backend (:mod:`repro.compiler.fusion`) runs the printed
combinators.  The test suite checks that they emit code identical to
the directly derived ones (:func:`repro.compiler.annotated.derive_combinator`).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.compiler import annotated as _annotated
from repro.compiler.annotated import (
    Delayed,
    GenAnnotations,
    Param,
    SharedNode,
)
from repro.vm.instructions import Op

#: The compilators of the ANF compiler, with their slot declarations
#: (static slots first, then component slots) — the same table
#: ``derive_combinator`` is applied to.
COMPILATOR_TABLE: tuple[tuple[Callable, tuple[str, ...], tuple[str, ...]], ...] = (
    (_annotated.compilator_if, (), ("test", "then", "alt")),
    (_annotated.compilator_let, ("var",), ("rhs", "body")),
    (_annotated.compilator_let_held, ("var",), ("rhs", "body")),
    (_annotated.compilator_let_unread, (), ("rhs", "body")),
    (_annotated.compilator_return, (), ("triv",)),
    (_annotated.compilator_prim, ("spec",), ("args",)),
    (_annotated.compilator_call, (), ("fn", "args")),
    (_annotated.compilator_tail_call, (), ("fn", "args")),
    (_annotated.compilator_variable, ("name",), ()),
    (_annotated.compilator_const, ("value",), ()),
    (_annotated.compilator_lambda, ("params", "captured"), ("body",)),
)


class _Renderer:
    """Renders a recipe DAG to Python expression text."""

    def __init__(self) -> None:
        self.bindings: list[str] = []
        self._binding_names: dict[int, str] = {}

    def render(self, x: Any) -> str:
        if isinstance(x, Delayed):
            if x.fn is _annotated._apply_component and isinstance(
                x.args[0], Param
            ):
                # A.compile on a component: render as a direct call —
                # "the recursive calls ... replaced by the identity".
                rest = ", ".join(self.render(a) for a in x.args[1:])
                return f"{x.args[0].name}({rest})"
            fn_name = self._function_name(x.fn)
            args = ", ".join(self.render(a) for a in x.args)
            return f"{fn_name}({args})"
        if isinstance(x, SharedNode):
            key = id(x)
            name = self._binding_names.get(key)
            if name is None:
                name = f"shared{len(self._binding_names) + 1}"
                self._binding_names[key] = name
                self.bindings.append(f"{name} = {self.render(x.inner)}")
            return name
        if isinstance(x, Param):
            return x.name
        if isinstance(x, tuple):
            inner = ", ".join(self.render(item) for item in x)
            return f"({inner},)" if len(x) == 1 else f"({inner})"
        if isinstance(x, Op):
            return f"Op.{x.name}"
        if isinstance(x, (int, str, bool)) or x is None:
            return repr(x)
        raise TypeError(f"cannot render recipe leaf {x!r}")

    def _function_name(self, fn: Callable) -> str:
        name = fn.__name__
        if not hasattr(_annotated, name) and not hasattr(
            __import__("repro.vm.fragments", fromlist=["x"]), name
        ):
            raise TypeError(f"recipe calls unknown helper {name}")
        return name


def combinator_source(
    compilator: Callable,
    static_slots: Sequence[str],
    component_slots: Sequence[str],
) -> str:
    """Render one compilator as a ``make_residual_...`` definition."""
    A = GenAnnotations()
    slot_names = (*static_slots, *component_slots)
    params = {name: Param(name) for name in slot_names}
    recipe = compilator(
        A,
        *[params[name] for name in slot_names],
        Param("cenv"),
        Param("depth"),
    )
    renderer = _Renderer()
    expression = renderer.render(recipe)
    name = f"make_residual_{compilator.__name__[11:]}"
    args = ", ".join(slot_names)
    lines = [f"def {name}({args}):"]
    lines.append("    def emit(cenv, depth):")
    for binding in renderer.bindings:
        lines.append(f"        {binding}")
    lines.append(f"        return {expression}")
    lines.append("    return emit")
    return "\n".join(lines)


_MODULE_HEADER = '''\
"""Code-generation combinators, generated from the annotated compiler.

Generated by repro.compiler.combinator_source — do not edit.  This is the
file the paper's annotation macros would print (§6.3.2): one
make-residual-... function per syntactic construct, ready to replace the
specializer's syntax constructors.
"""

from repro.compiler.annotated import (
    bind_held,
    bind_local,
    branch_instruction,
    branch_target,
    compile_components,
    compile_variable,
    const_instruction,
    call_instruction,
    emit_captured,
    emit_pushed,
    inc,
    length_of,
    make_closure_instruction,
    make_lambda_template,
    prim_instruction,
    return_instruction,
    setloc_instruction,
    tail_call_instruction,
    _apply_component,
    _operator_and_args,
)
from repro.vm.fragments import (
    attach_label,
    make_label,
    sequentially,
)
from repro.vm.instructions import Op
'''


def emit_combinator_module() -> str:
    """The complete generated combinator module, as Python source."""
    parts = [_MODULE_HEADER]
    for compilator, statics, components in COMPILATOR_TABLE:
        parts.append(combinator_source(compilator, statics, components))
        parts.append("")
    return "\n\n".join(parts)


def load_combinator_module(source: str | None = None) -> dict:
    """Execute the generated module; return its namespace.

    The analogue of loading the printed combinator file into the running
    system.
    """
    namespace: dict[str, Any] = {}
    exec(source if source is not None else emit_combinator_module(), namespace)
    return namespace
