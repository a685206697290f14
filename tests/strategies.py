"""Hypothesis strategies for random Scheme data and programs.

The expression strategies only generate *terminating, error-free* programs:
closed expressions over total primitives, with conditionals and bounded
recursion via a fuel parameter, so differential tests (interpreter vs VM vs
specializer) never hit divergence.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.pe.annprog import AnnDef, AnnotatedProgram, BindingTime
from repro.sexp.datum import Char, sym

_S = BindingTime.STATIC
_D = BindingTime.DYNAMIC

# -- data ---------------------------------------------------------------------

symbol_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz-<>=?*+!",
    min_size=1,
    max_size=8,
).filter(lambda s: not s[0].isdigit() and s not in (".", "+", "-", "..."))

symbols = symbol_names.map(sym)

atoms = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(alphabet=st.characters(codec="ascii", exclude_characters='"\\\x00'),
            max_size=10),
    symbols,
    st.sampled_from([Char("a"), Char(" "), Char("\n"), Char("z")]),
)

data = st.recursive(
    atoms,
    lambda children: st.lists(children, max_size=5),
    max_leaves=25,
)

# Python-container statics: what a host program may pass as a static
# argument to a generating extension (dicts, sets, tuples, lists of the
# above).  Set members and dict keys stay hashable, as Python requires.
hashable_atoms = st.one_of(
    st.integers(min_value=-(2**20), max_value=2**20),
    st.booleans(),
    st.text(max_size=6),
)

python_statics = st.recursive(
    st.one_of(atoms, st.none()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(hashable_atoms, children, max_size=4),
        st.sets(hashable_atoms, max_size=4),
        st.frozensets(hashable_atoms, max_size=4),
    ),
    max_leaves=20,
)

# -- expressions ----------------------------------------------------------------
# Generated as source text for readability of failure messages.

_INT = st.integers(min_value=-100, max_value=100)


@st.composite
def arith_exprs(draw, depth: int = 3, env: tuple = ()):  # type: ignore[no-untyped-def]
    """Closed, total arithmetic/boolean expressions as source strings."""
    if depth == 0 or draw(st.booleans()):
        if env and draw(st.booleans()):
            return draw(st.sampled_from(env))
        return str(draw(_INT))
    kind = draw(
        st.sampled_from(
            ["+", "-", "*", "if", "let", "cmp", "zero?", "max", "min"]
        )
    )
    sub = lambda: draw(arith_exprs(depth=depth - 1, env=env))  # noqa: E731
    if kind in ("+", "-", "*", "max", "min"):
        return f"({kind} {sub()} {sub()})"
    if kind == "cmp":
        op = draw(st.sampled_from(["=", "<", ">", "<=", ">="]))
        return f"(if ({op} {sub()} {sub()}) {sub()} {sub()})"
    if kind == "zero?":
        return f"(if (zero? {sub()}) {sub()} {sub()})"
    if kind == "if":
        return f"(if {draw(st.booleans()) and '#t' or '#f'} {sub()} {sub()})"
    # let
    var = f"x{draw(st.integers(min_value=0, max_value=20))}"
    body = draw(arith_exprs(depth=depth - 1, env=env + (var,)))
    return f"(let (({var} {sub()})) {body})"


@st.composite
def list_exprs(draw, depth: int = 3):  # type: ignore[no-untyped-def]
    """Closed expressions over lists of small integers."""
    if depth == 0:
        items = draw(st.lists(_INT, max_size=4))
        return "(list " + " ".join(str(i) for i in items) + ")"
    kind = draw(st.sampled_from(["cons", "append", "reverse", "cdr-safe", "base"]))
    sub = lambda: draw(list_exprs(depth=depth - 1))  # noqa: E731
    if kind == "cons":
        return f"(cons {draw(_INT)} {sub()})"
    if kind == "append":
        return f"(append {sub()} {sub()})"
    if kind == "reverse":
        return f"(reverse {sub()})"
    if kind == "cdr-safe":
        inner = sub()
        return f"(let ((l {inner})) (if (pair? l) (cdr l) l))"
    items = draw(st.lists(_INT, max_size=4))
    return "(list " + " ".join(str(i) for i in items) + ")"


@st.composite
def higher_order_exprs(draw, depth: int = 3, env: tuple = ()):  # type: ignore[no-untyped-def]
    """Closed expressions with lambdas and applications (always terminating)."""
    if depth == 0:
        if env and draw(st.booleans()):
            return draw(st.sampled_from(env))
        return str(draw(_INT))
    kind = draw(st.sampled_from(["apply1", "apply2", "arith", "let", "base"]))
    if kind == "apply1":
        var = f"a{draw(st.integers(min_value=0, max_value=20))}"
        body = draw(higher_order_exprs(depth=depth - 1, env=env + (var,)))
        arg = draw(higher_order_exprs(depth=depth - 1, env=env))
        return f"((lambda ({var}) {body}) {arg})"
    if kind == "apply2":
        v1 = f"b{draw(st.integers(min_value=0, max_value=20))}"
        v2 = f"c{draw(st.integers(min_value=0, max_value=20))}"
        body = draw(higher_order_exprs(depth=depth - 1, env=env + (v1, v2)))
        a1 = draw(higher_order_exprs(depth=depth - 1, env=env))
        a2 = draw(higher_order_exprs(depth=depth - 1, env=env))
        return f"((lambda ({v1} {v2}) {body}) {a1} {a2})"
    if kind == "arith":
        op = draw(st.sampled_from(["+", "-", "*"]))
        a = draw(higher_order_exprs(depth=depth - 1, env=env))
        b = draw(higher_order_exprs(depth=depth - 1, env=env))
        return f"({op} {a} {b})"
    if kind == "let":
        var = f"d{draw(st.integers(min_value=0, max_value=20))}"
        rhs = draw(higher_order_exprs(depth=depth - 1, env=env))
        body = draw(higher_order_exprs(depth=depth - 1, env=env + (var,)))
        return f"(let (({var} {rhs})) {body})"
    if env and draw(st.booleans()):
        return draw(st.sampled_from(env))
    return str(draw(_INT))


# -- annotated programs ---------------------------------------------------------
# Hand-built Annotated Core Scheme, for tests that corrupt or inspect
# annotations directly (congruence linter, safety analyzer).


def annotated_program(
    body, params=("s", "d"), bts=(_S, _D), residual=True, extra=()
):
    """A one-definition annotated program ``main`` around ``body``."""
    main = AnnDef(
        name=sym("main"),
        params=tuple(sym(p) for p in params),
        bts=tuple(bts),
        body=body,
        residual=residual,
    )
    return AnnotatedProgram(defs=(main,) + tuple(extra), goal=sym("main"))


# -- specialization-safe programs -----------------------------------------------
# Source programs whose static recursion descends under a static guard —
# the shapes the specialization-safety analyzer must accept at ``forbid``
# level, paired with a static input on which specialization terminates.


GUARDED_DESCENT_SHAPES = (
    "numeric", "list", "mutual", "accumulator", "dynamic-control",
)
GUARDED_DESCENT_FILLERS = ("(cons 1 d)", "(cdr d)", "d")


def guarded_descent_source(shape: str, filler: str) -> tuple[str, str, str]:
    """``(source, signature, goal)`` of one guarded-descent shape.

    ``filler`` is the dynamic argument of the recursive call; the
    ``accumulator`` and ``dynamic-control`` shapes do not use it.
    """
    if shape == "numeric":
        # Static countdown under a static guard.
        src = f"(define (f s d) (if (zero? s) d (f (- s 1) {filler})))"
        return src, "SD", "f"
    if shape == "list":
        # Structural descent under a static guard.
        src = f"(define (f s d) (if (null? s) d (f (cdr s) {filler})))"
        return src, "SD", "f"
    if shape == "mutual":
        # The descent spans a two-function cycle.
        src = (
            f"(define (f s d) (if (null? s) d (g (cdr s) {filler})))"
            "(define (g s d) (if (null? s) d (f (cdr s) d)))"
        )
        return src, "SD", "f"
    if shape == "accumulator":
        # One static grows, paid for by the other's descent.
        src = (
            "(define (f s acc d)"
            " (if (null? s) (cons acc d)"
            " (f (cdr s) (cons (car s) acc) d)))"
        )
        return src, "SSD", "f"
    # dynamic-control: the recursive call sits under a *dynamic*
    # conditional, so suppression does not apply — the analyzer must
    # prove the static parameter's structural descent.
    src = (
        "(define (f s d)"
        " (if (null? s) 0 (if (null? d) 1 (f (cdr s) (cdr d)))))"
    )
    return src, "SD", "f"


@st.composite
def guarded_descent_programs(draw):  # type: ignore[no-untyped-def]
    """``(source, signature, goal, static_args)`` of a provably safe
    recursive program; ``static_args`` are Python values."""
    n = draw(st.integers(min_value=0, max_value=5))
    items = draw(st.lists(_INT, max_size=5))
    filler = draw(st.sampled_from(list(GUARDED_DESCENT_FILLERS)))
    shape = draw(st.sampled_from(list(GUARDED_DESCENT_SHAPES)))
    src, sig, goal = guarded_descent_source(shape, filler)
    if shape == "numeric":
        return src, sig, goal, (n,)
    if shape == "accumulator":
        return src, sig, goal, (items, [])
    return src, sig, goal, (items,)
