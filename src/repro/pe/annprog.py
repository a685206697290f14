"""Annotated programs: what binding-time analysis hands the specializer."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Tuple

from repro.lang.ast import App, Const, DLam, Expr, If, Lam, Let, Prim, Var
from repro.sexp.datum import Symbol


class BindingTime(Enum):
    """The two-point binding-time lattice, S below D."""

    STATIC = "S"
    DYNAMIC = "D"

    def __or__(self, other: "BindingTime") -> "BindingTime":
        if self is BindingTime.DYNAMIC or other is BindingTime.DYNAMIC:
            return BindingTime.DYNAMIC
        return BindingTime.STATIC

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.value


S = BindingTime.STATIC
D = BindingTime.DYNAMIC


def parse_signature(text: str) -> tuple[BindingTime, ...]:
    """Parse a signature like ``"SD"`` or ``"s d"`` into binding times."""
    bts = []
    for ch in text.replace(" ", "").upper():
        if ch == "S":
            bts.append(S)
        elif ch == "D":
            bts.append(D)
        else:
            raise ValueError(f"bad binding-time character {ch!r}")
    return tuple(bts)


@dataclass(frozen=True, slots=True)
class AnnDef:
    """An annotated top-level definition.

    ``bts`` gives the binding time of each parameter.  ``residual`` marks
    definitions whose calls are memoization points (specialization
    points); calls to non-residual definitions are unfolded.
    """

    name: Symbol
    params: Tuple[Symbol, ...]
    bts: Tuple[BindingTime, ...]
    body: Expr
    residual: bool

    def static_params(self) -> tuple[Symbol, ...]:
        return tuple(p for p, bt in zip(self.params, self.bts) if bt is S)

    def dynamic_params(self) -> tuple[Symbol, ...]:
        return tuple(p for p, bt in zip(self.params, self.bts) if bt is D)


@dataclass(frozen=True, slots=True)
class AnnotatedProgram:
    """A whole binding-time-annotated program.

    ``static`` is the static-subterm table: the ``id`` of every node
    that can emit no residual code, so both specialization engines
    evaluate it in direct style (see :func:`static_subterms`).
    """

    defs: Tuple[AnnDef, ...]
    goal: Symbol
    _index: dict = field(default=None, compare=False, repr=False, hash=False)
    static: frozenset = field(
        init=False, default=None, compare=False, repr=False, hash=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "_index", {d.name: d for d in self.defs})
        object.__setattr__(self, "static", static_subterms(self.defs))

    def lookup(self, name: Symbol) -> AnnDef:
        return self._index[name]

    def has(self, name: Symbol) -> bool:
        return name in self._index

    def goal_def(self) -> AnnDef:
        return self._index[self.goal]

    def is_static(self, expr: Expr) -> bool:
        """True if ``expr`` (a node of this program) is a static subterm."""
        return id(expr) in self.static


def static_subterms(defs: Tuple[AnnDef, ...]) -> frozenset:
    """The ids of the nodes of ``defs`` that can emit no residual code.

    ``Const``, ``Var`` and ``Lam`` (building the closure, not running its
    body) are always static; ``Let``, ``If`` and ``Prim`` are static when
    all their children are.  An ``App`` is static when its operator names
    a top-level def that no enclosing binder shadows, its arguments are
    static, and so is that def's body -- a greatest fixpoint over the
    defs, so static recursion qualifies.  Dynamic constructs and
    ``MemoCall`` never are.  A node object reached more than once is
    static only if it is static at every occurrence.
    """
    static_defs = {d.name for d in defs}
    while True:
        table: dict[int, bool] = {}
        for d in defs:
            _classify(d.body, frozenset(d.params), static_defs, table)
        still = {d.name for d in defs if table[id(d.body)]}
        if still == static_defs:
            return frozenset(i for i, ok in table.items() if ok)
        static_defs = still


def _classify(
    e: Expr, bound: frozenset, static_defs: set, table: dict[int, bool]
) -> bool:
    """Classify ``e`` under the binders ``bound``, recording it in ``table``."""
    t = type(e)
    if t is Const or t is Var:
        ok = True
    elif t is Lam:
        _classify(e.body, bound | set(e.params), static_defs, table)
        ok = True
    elif t is Let:
        rhs = _classify(e.rhs, bound, static_defs, table)
        body = _classify(e.body, bound | {e.var}, static_defs, table)
        ok = rhs and body
    else:
        inner = bound | set(e.params) if t is DLam else bound
        ok = True
        for child in e.children():
            ok = _classify(child, inner, static_defs, table) and ok
        if t is App:
            fn = e.fn
            ok = (
                ok
                and type(fn) is Var
                and fn.name not in bound
                and fn.name in static_defs
            )
        elif t is not If and t is not Prim:
            ok = False
    i = id(e)
    table[i] = table.get(i, True) and ok
    return ok
