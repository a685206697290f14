"""Acts 2 and 3: the annotated compiler and its two readings.

Each compilator of the ANF compiler is written **once**, against an
annotation interface ``A`` (the Python rendering of the paper's ``_``,
``_let`` and ``_lift-literal`` annotations of §6.2):

* ``A.call(f, ...)``  — the ``_`` annotation: a code-constructing call,
  delayed until code-generation time;
* ``A.let(x)``        — the ``_let`` annotation: generation-time sharing
  (a label created once per combinator invocation, used twice);
* ``A.lift(c)``       — ``_lift-literal``: a generation-time constant;
* ``A.compile(c, cenv, depth)`` — the recursive call to the compiler on a
  subcomponent.

Two implementations of the interface correspond to the paper's two macro
sets (§6.3):

* :class:`DirectAnnotations` makes the annotations disappear: ``call``
  applies immediately, ``let``/``lift`` are identities, and ``compile``
  applies the already-compiled component.  :func:`erase` turns a
  compilator into a combinator run under it, and the fused backend over
  those combinators (:class:`~repro.compiler.fusion.ErasingBackend`), folded
  over a program's syntax like the printed ones, is "still usable as an
  ordinary compiler" — tested to produce *identical templates* to
  :func:`~repro.compiler.program.compile_program`.
* :class:`GenAnnotations` runs each compilator **once** with symbolic
  parameters, recording the delayed operations as a recipe DAG — the
  analogue of macro-expanding the compilator into a code-generation
  combinator and "printing [it] into a file".  :func:`derive_combinator`
  turns a compilator into its ``make-residual-...`` function: the syntax
  dispatch and node destructuring have been performed once and for all;
  "the recursive calls to the compilation function on the syntactic
  subcomponents have been removed (replaced by the identity)" (§5.3) —
  ``A.compile`` on a subcomponent simply invokes the already-compiled
  component.  The fused backend runs the *printed* form of the same
  recipes (:mod:`repro.compiler.combinator_source`).

The compilators emit no instruction the bytecode optimizer would delete
(DESIGN §1 item 7).  Their helpers track what the ``val`` register holds
(:class:`DepthTracker`), so a read of a value already there compiles to
nothing, and ``let`` comes in three shapes chosen from static read facts
of its body (:mod:`repro.compiler.reads`), which the fused backend's
handles carry for every reading.  The tracking relies on the
helpers running in execution order: each compilator is one nested
expression whose arguments every reading evaluates left to right.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.compiler.cenv import Closed, CompileTimeEnv, Held, Local
from repro.lang.prims import PRIMITIVES, PrimSpec
from repro.runtime.errors import SchemeError
from repro.runtime.values import constant_key
from repro.sexp.datum import Symbol
from repro.vm.fragments import (
    EMPTY,
    Fragment,
    Label,
    Lit,
    attach_label,
    instruction,
    instruction_using_label,
    make_label,
    sequentially,
)
from repro.vm.instructions import Op


class CompileError(SchemeError):
    """A program could not be compiled."""


# ---------------------------------------------------------------------------
# Staging values for the combinator (Gen) reading.
# ---------------------------------------------------------------------------


class Param:
    """A symbolic parameter of a combinator recipe (cenv, depth, or a
    subcomponent slot)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<param {self.name}>"


class Delayed:
    """A delayed call recorded in a recipe DAG."""

    __slots__ = ("fn", "args")

    def __init__(self, fn: Callable, args: tuple):
        self.fn = fn
        self.args = args


class SharedNode:
    """A ``_let``-annotated value: forced at most once per invocation."""

    __slots__ = ("inner",)

    def __init__(self, inner: Any):
        self.inner = inner


def force(x: Any, bindings: dict, memo: dict) -> Any:
    """Evaluate a recipe DAG under parameter ``bindings``.

    ``memo`` implements the generation-time sharing of ``_let``: one entry
    per :class:`SharedNode` per invocation.
    """
    if isinstance(x, Delayed):
        return x.fn(*[force(a, bindings, memo) for a in x.args])
    if isinstance(x, SharedNode):
        key = id(x)
        if key not in memo:
            memo[key] = force(x.inner, bindings, memo)
        return memo[key]
    if isinstance(x, Param):
        return bindings[x.name]
    if isinstance(x, tuple):
        return tuple(force(item, bindings, memo) for item in x)
    return x


def _apply_component(component: Callable, cenv: Any, depth: Any) -> Any:
    return component(cenv, depth)


class GenAnnotations:
    """The combinator-generating reading of the annotations."""

    def call(self, fn: Callable, *args: Any) -> Delayed:
        return Delayed(fn, args)

    def let(self, x: Any) -> SharedNode:
        return SharedNode(x)

    def lift(self, c: Any) -> Any:
        return c

    def compile(self, component: Any, cenv: Any, depth: Any) -> Delayed:
        # "Replaced by the identity": apply the already-compiled component.
        return Delayed(_apply_component, (component, cenv, depth))


class DirectAnnotations:
    """The annotation-erasing reading: an ordinary compiler."""

    def call(self, fn: Callable, *args: Any) -> Any:
        return fn(*args)

    def let(self, x: Any) -> Any:
        return x

    def lift(self, c: Any) -> Any:
        return c

    def compile(self, component: Callable, cenv: Any, depth: Any) -> Any:
        return component(cenv, depth)


#: The erasing reading is stateless: one instance serves every compilator.
DIRECT = DirectAnnotations()


# ---------------------------------------------------------------------------
# The generation-time helper procedures of the compiler.  These are the
# ordinary procedures a Scheme 48 compilator would call; in the combinator
# reading they run at code-generation time (they are all ``_``-annotated
# call targets in the compilators below).
# ---------------------------------------------------------------------------


class GenCenv:
    """The compile-time environment threaded through combinators.

    Wraps the name→location map together with the tracker of the
    template under construction.
    """

    __slots__ = ("env", "tracker")

    def __init__(self, env: CompileTimeEnv, tracker: "DepthTracker"):
        self.env = env
        self.tracker = tracker


class DepthTracker:
    """The machine state a template's emission has reached.

    ``max_depth`` is how many local slots the template needs.  ``val``
    is what the ``val`` register holds at the emission point: a local
    slot number, a :class:`~repro.compiler.cenv.Held` location, a
    constant's :func:`~repro.runtime.values.constant_key`, or ``None``
    when unknown.  Code is emitted in execution order, so each helper
    below reads and updates it as it emits; ``branches`` keeps ``val``
    at each pending conditional, for its alternative.
    """

    __slots__ = ("max_depth", "val", "branches")

    def __init__(self, initial: int):
        self.max_depth = initial
        self.val: Any = None
        self.branches: list = []

    def reach(self, depth: int) -> None:
        if depth > self.max_depth:
            self.max_depth = depth


def bind_local(cenv: GenCenv, var: Symbol, depth: int) -> GenCenv:
    """Extend the compile-time environment with a let-bound variable,
    just stored (``SETLOC depth``) from ``val``."""
    tracker = cenv.tracker
    tracker.reach(depth + 1)
    tracker.val = depth
    return GenCenv(cenv.env.bind_local(var, depth), tracker)


def bind_held(cenv: GenCenv, var: Symbol) -> GenCenv:
    """Bind a let variable whose value stays in ``val`` (no slot)."""
    held = Held()
    cenv.tracker.val = held
    return GenCenv(cenv.env.bind(var, held), cenv.tracker)


def inc(depth: int) -> int:
    return depth + 1


def compile_variable(name: Symbol, cenv: GenCenv) -> Fragment:
    location = cenv.env.lookup(name)
    tracker = cenv.tracker
    if isinstance(location, Local):
        if tracker.val == location.index:
            return EMPTY
        tracker.val = location.index
        return instruction(Op.LOCAL, location.index)
    if isinstance(location, Held):
        if tracker.val is not location:
            raise AssertionError(f"{name}: held value no longer in val")
        return EMPTY
    tracker.val = None
    if isinstance(location, Closed):
        return instruction(Op.CLOSED, location.index)
    # Global: a top-level procedure, or a primitive used as a value.
    if name not in cenv.env.program:
        spec = PRIMITIVES.get(name)
        if spec is not None:
            return instruction(Op.CONST, Lit(spec))
    return instruction(Op.GLOBAL, Lit(name))


def const_instruction(value: Any, cenv: GenCenv) -> Fragment:
    key = constant_key(value)
    tracker = cenv.tracker
    if key is not None and tracker.val == key:
        return EMPTY
    tracker.val = key
    return instruction(Op.CONST, Lit(value))


def emit_pushed(parts: Sequence[Fragment]) -> Fragment:
    """Each part computes a value; push each in order."""
    pieces = []
    for part in parts:
        pieces.append(part)
        pieces.append(instruction(Op.PUSH))
    return sequentially(*pieces)


def compile_components(
    components: Sequence[Callable], cenv: GenCenv, depth: int
) -> tuple:
    """Apply each already-compiled component to the current context."""
    return tuple(c(cenv, depth) for c in components)


def prim_instruction(spec: PrimSpec, n: int, cenv: GenCenv) -> Fragment:
    cenv.tracker.val = None
    return instruction(Op.PRIM, Lit(spec), n)


def call_instruction(n: int, cenv: GenCenv) -> Fragment:
    cenv.tracker.val = None
    return instruction(Op.CALL, n)


def tail_call_instruction(n: int) -> Fragment:
    return instruction(Op.TAIL_CALL, n)


def setloc_instruction(depth: int) -> Fragment:
    return instruction(Op.SETLOC, depth)


def return_instruction() -> Fragment:
    return instruction(Op.RETURN)


def branch_instruction(label: Label, cenv: GenCenv) -> Fragment:
    """``JUMP_IF_FALSE label``; ``val`` is kept for the alternative."""
    cenv.tracker.branches.append(cenv.tracker.val)
    return instruction_using_label(Op.JUMP_IF_FALSE, label)


def branch_target(cenv: GenCenv) -> GenCenv:
    """Enter a conditional's alternative: ``val`` is as at its branch."""
    tracker = cenv.tracker
    tracker.val = tracker.branches.pop()
    return cenv


def length_of(xs: Sequence) -> int:
    return len(xs)


def make_lambda_template(
    params: Sequence[Symbol],
    captured: Sequence[Symbol],
    body: Callable,
    cenv: GenCenv,
    name: str = "lambda",
):
    """Assemble the nested template for a residual ``lambda``."""
    from repro.vm.assembler import assemble

    inner_env = cenv.env.procedure(tuple(params), tuple(captured))
    tracker = DepthTracker(len(params))
    cenv = GenCenv(inner_env, tracker)
    fragment = body(cenv, len(params))
    return assemble(fragment, len(params), tracker.max_depth, name)


def emit_captured(captured: Sequence[Symbol], cenv: GenCenv) -> Fragment:
    """Push the values of the captured variables, in order."""
    return emit_pushed([compile_variable(v, cenv) for v in captured])


def make_closure_instruction(template, n: int, cenv: GenCenv) -> Fragment:
    cenv.tracker.val = None
    return instruction(Op.MAKE_CLOSURE, Lit(template), n)


# ---------------------------------------------------------------------------
# The annotated compilators — each written once (§6.2).
# Components are already-compiled subexpressions: a *trivial* component
# leaves its value in ``val``; a *body* component produces complete tail
# code.  ``cenv``/``depth`` are unknown until code-generation time, so every
# operation touching them is ``A.call``-annotated.
# ---------------------------------------------------------------------------


def compilator_if(A, test, then, alt, cenv, depth):
    """(if V M M) — test, conditional jump, two arms (cf. §6.1/§6.2)."""
    alt_label = A.let(A.call(make_label))
    return A.call(
        sequentially,
        # Test
        A.compile(test, cenv, depth),
        A.call(branch_instruction, alt_label, cenv),
        # Consequent
        A.compile(then, cenv, depth),
        # Alternative
        A.call(
            attach_label,
            alt_label,
            A.compile(alt, A.call(branch_target, cenv), depth),
        ),
    )


def compilator_let(A, var, rhs, body, cenv, depth):
    """(let (x B) M) — bind the rhs value to the next stack slot."""
    return A.call(
        sequentially,
        A.compile(rhs, cenv, depth),
        A.call(setloc_instruction, depth),
        A.compile(
            body,
            A.call(bind_local, cenv, var, depth),
            A.call(inc, depth),
        ),
    )


def compilator_let_held(A, var, rhs, body, cenv, depth):
    """(let (x B) M), M reading x only while B's value is in ``val``."""
    return A.call(
        sequentially,
        A.compile(rhs, cenv, depth),
        A.compile(body, A.call(bind_held, cenv, var), depth),
    )


def compilator_let_unread(A, rhs, body, cenv, depth):
    """(let (x B) M), M never reading x: B for its effect only."""
    return A.call(
        sequentially,
        A.compile(rhs, cenv, depth),
        A.compile(body, cenv, depth),
    )


def compilator_return(A, triv, cenv, depth):
    """A trivial expression in tail position."""
    return A.call(
        sequentially, A.compile(triv, cenv, depth), A.call(return_instruction)
    )


def compilator_prim(A, spec, args, cenv, depth):
    """(O V ...) in value position: push arguments, apply the primitive."""
    return A.call(
        sequentially,
        A.call(emit_pushed, A.call(compile_components, args, cenv, depth)),
        A.call(prim_instruction, spec, A.call(length_of, args), cenv),
    )


def _operator_and_args(fn, args, cenv: GenCenv, depth: int) -> tuple:
    """Compile the operator followed by the arguments."""
    return compile_components((fn,) + tuple(args), cenv, depth)


def compilator_call(A, fn, args, cenv, depth):
    """(V V ...) in value (non-tail) position: CALL pushes a continuation."""
    return A.call(
        sequentially,
        A.call(emit_pushed, A.call(_operator_and_args, fn, args, cenv, depth)),
        A.call(call_instruction, A.call(length_of, args), cenv),
    )


def compilator_tail_call(A, fn, args, cenv, depth):
    """(V V ...) in tail position: a jump (§6.1 — "all others are jumps")."""
    return A.call(
        sequentially,
        A.call(emit_pushed, A.call(_operator_and_args, fn, args, cenv, depth)),
        A.call(tail_call_instruction, A.call(length_of, args)),
    )


def compilator_variable(A, name, cenv, depth):
    """A variable reference: stack slot, closure slot, or global."""
    return A.call(compile_variable, name, cenv)


def compilator_const(A, value, cenv, depth):
    """A constant: loaded from the literal frame."""
    return A.call(const_instruction, value, cenv)


def compilator_lambda(A, params, captured, body, cenv, depth):
    """(lambda (x ...) M): nested template + closure over captured values."""
    template = A.let(
        A.call(make_lambda_template, params, captured, body, cenv)
    )
    return A.call(
        sequentially,
        A.call(emit_captured, captured, cenv),
        A.call(
            make_closure_instruction,
            template,
            A.call(length_of, captured),
            cenv,
        ),
    )


# ---------------------------------------------------------------------------
# Deriving the code-generation combinators (Act 3, §6.3.2).
# ---------------------------------------------------------------------------


def derive_combinator(compilator: Callable, static_slots: Sequence[str],
                      component_slots: Sequence[str]) -> Callable:
    """Expand ``compilator`` once into a ``make-residual-...`` function.

    The returned function takes the static slots and component slots as
    keyword-free positional arguments (statics first, components second)
    and yields the code-generating closure ``(cenv, depth) -> fragment``,
    which evaluates the recipe under those bindings (:func:`force`).
    """
    A = GenAnnotations()
    slot_names = (*static_slots, *component_slots)
    params = {name: Param(name) for name in slot_names}
    recipe = compilator(
        A, *[params[name] for name in slot_names], Param("cenv"), Param("depth")
    )
    n_slots = len(slot_names)

    def combinator(*slot_values: Any) -> Callable:
        if len(slot_values) != n_slots:
            raise TypeError(
                f"combinator expects {n_slots} arguments,"
                f" got {len(slot_values)}"
            )
        bindings = dict(zip(slot_names, slot_values))

        def emit(cenv: GenCenv, depth: int) -> Fragment:
            return force(recipe, {**bindings, "cenv": cenv, "depth": depth}, {})

        return emit

    combinator.__name__ = f"make_residual_{compilator.__name__[11:]}"
    return combinator


# The derived combinator set: the direct replacements for the syntax
# constructors in the specializer (§6.3.2's make-residual-... functions).
make_residual_if = derive_combinator(
    compilator_if, (), ("test", "then", "alt")
)
make_residual_let = derive_combinator(
    compilator_let, ("var",), ("rhs", "body")
)
make_residual_let_held = derive_combinator(
    compilator_let_held, ("var",), ("rhs", "body")
)
make_residual_let_unread = derive_combinator(
    compilator_let_unread, (), ("rhs", "body")
)
make_residual_return = derive_combinator(
    compilator_return, (), ("triv",)
)
make_residual_prim = derive_combinator(
    compilator_prim, ("spec",), ("args",)
)
make_residual_call = derive_combinator(
    compilator_call, (), ("fn", "args")
)
make_residual_tail_call = derive_combinator(
    compilator_tail_call, (), ("fn", "args")
)
make_residual_variable = derive_combinator(
    compilator_variable, ("name",), ()
)
make_residual_const = derive_combinator(
    compilator_const, ("value",), ()
)
make_residual_lambda = derive_combinator(
    compilator_lambda, ("params", "captured"), ("body",)
)


# ---------------------------------------------------------------------------
# The annotation-erasing reading (§6.2): the same compilators, run at once.
# ---------------------------------------------------------------------------


def erase(compilator: Callable) -> Callable:
    """``compilator`` with its annotations erased, as a combinator.

    Given the slots (statics first, components second), it yields the
    ``(cenv, depth) -> fragment`` that runs the compilator under
    :data:`DIRECT`.  A syntax walk that supplies the slots makes this
    "an ordinary compiler" (:class:`repro.compiler.fusion.ErasingBackend`).
    """
    return lambda *slots: lambda cenv, depth: compilator(
        DIRECT, *slots, cenv, depth
    )
