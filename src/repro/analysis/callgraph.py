"""The static call graph of an annotated program, with argument bounds.

Built on top of the BTA's output (:class:`repro.pe.bta.BTAResult`,
including the exposed closure analysis for higher-order flow), this
module produces the raw material for the termination and code-bloat
analyses:

* **nodes** — top-level definitions plus static (specialization-time)
  lambdas;
* **unfold edges** — specialization-time calls the specializer inlines:
  static applications of top-level functions and of static closures.
  Each edge carries, per static parameter of the callee, an abstract
  *bound* on the argument relative to the caller's static parameters;
* **memo summary edges** — for each residual definition ``R``, the
  specialization points (``MemoCall`` sites) reachable from ``R``'s
  body through unfolding, with argument bounds composed through the
  unfolded calls relative to ``R``'s own static parameters.  These are
  the edges of the residual-level graph whose cycles drive memo-table
  growth;
* **result-source summaries** — for each definition, whether its result
  is a substructure of one of its parameters (needed to see that an
  interpreter's ``lookup``-style helpers do not grow the static state).

Both edge kinds come from one pre-order walk over a body
(:meth:`_Builder._walk_calls`) that hands each call site, with the
bounds of the names in scope, to a callback: the unfold-edge builder
turns a call into an edge out of the body's node, the memo summary into
a memo edge or an entry into the unfolded body.

The bound domain: ``size(value) <= const + sum(size(path(param)))``
over *terms* ``(param, path, exact)``, where ``path`` is a chain of
pair destructors and ``exact`` means the value embeds exactly that
substructure.  All values described by a bound are built from
substructures of the named parameters and program literals, so a bound
also certifies that the value ranges over a finite set once the
parameters do — the property the memo-boundedness analysis needs.
``NumBound`` tracks exact integer offsets (``(- s 1)``), and ``TOP``
is "no information".
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.lang.ast import (
    App,
    Const,
    DApp,
    DIf,
    DLam,
    DPrim,
    If,
    Lam,
    Let,
    Lift,
    MemoCall,
    Prim,
    Var,
)
from repro.pe.annprog import BindingTime
from repro.pe.bta import BTAResult
from repro.sexp.datum import Symbol, sym

from repro.analysis.fixpoint import Solver

S = BindingTime.STATIC


class _Top:
    """No information about an argument (the lattice top)."""

    _instance: Optional["_Top"] = None

    def __new__(cls) -> "_Top":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "TOP"


TOP = _Top()


@dataclass(frozen=True, slots=True)
class Bound:
    """``size(value) <= const + sum(size(path(param)) for terms)``.

    Every described value is built from substructures of the terms'
    parameters and from program literals.  ``literal`` marks that the
    value may also be one of finitely many program constants of unknown
    size (contributed by joins with constant-returning branches).
    """

    const: int
    terms: tuple  # sorted tuple of (param: Symbol, path: tuple[str,...], exact: bool)
    literal: bool = False


@dataclass(frozen=True, slots=True)
class NumBound:
    """``value == path(param) + delta`` — an exact integer offset."""

    param: Symbol
    path: tuple
    delta: int


def datum_size(value: Any) -> int:
    """Structural size of a literal (pairs count 1 plus their parts)."""
    from repro.runtime.values import Pair

    size = 0
    stack = [value]
    while stack:
        v = stack.pop()
        size += 1
        if isinstance(v, Pair):
            stack.append(v.car)
            stack.append(v.cdr)
        elif isinstance(v, (tuple, list)):
            size += len(v)
            stack.extend(v)
    return size


# -- destructor / primitive tables ---------------------------------------------------

_CXR = re.compile(r"^c([ad]+)r$")


def _destructor_path(name: str) -> tuple | None:
    """``cadr`` -> ``("cdr", "car")``: destructors in application order."""
    m = _CXR.match(name)
    if m is None:
        return None
    return tuple(
        "car" if ch == "a" else "cdr" for ch in reversed(m.group(1))
    )


# Result is a substructure of the last argument (plus possibly #f).
_SEARCH_PRIMS = frozenset(
    sym(n) for n in ("assq", "assv", "assoc", "memq", "memv", "member")
)
# Result is drawn from a finite literal set (booleans).
_PREDICATE_PRIMS = frozenset(
    sym(n)
    for n in (
        "eq?", "eqv?", "equal?", "null?", "pair?", "not", "zero?",
        "number?", "symbol?", "boolean?", "procedure?", "string?",
        "=", "<", ">", "<=", ">=", "odd?", "even?",
    )
)
_CONS = sym("cons")
_LIST = sym("list")
_APPEND = sym("append")
_REVERSE = sym("reverse")
_PLUS = sym("+")
_MINUS = sym("-")
_ADD1 = sym("add1")
_SUB1 = sym("sub1")
_QUOTIENT = sym("quotient")


def _weaken(b: Any) -> Any:
    """A bound for "some substructure of a value bounded by ``b``"."""
    if isinstance(b, Bound):
        return Bound(
            b.const,
            tuple((p, path, False) for p, path, _ in b.terms),
            b.literal,
        )
    return b  # NumBound: substructure of an integer is the integer; TOP


def _apply_path(b: Any, path: tuple) -> Any:
    """The bound of ``path(value)`` given a bound for ``value``."""
    if not path:
        return b
    if isinstance(b, NumBound):
        return TOP  # destructing a number: dead path
    if not isinstance(b, Bound):
        return TOP
    if len(b.terms) == 1 and b.const == 0 and not b.literal:
        p, tpath, exact = b.terms[0]
        return Bound(0, ((p, tpath + path, exact),), False)
    # Size-only: each destructor discards at least one node.
    return Bound(
        b.const - len(path),
        tuple((p, tpath, False) for p, tpath, _ in b.terms),
        b.literal,
    )


def join_bounds(a: Any, b: Any) -> Any:
    """An upper bound of two argument bounds (near-flat join)."""
    if a is None:
        return b
    if b is None:
        return a
    if a == b:
        return a
    if isinstance(a, Bound) and isinstance(b, Bound):
        ta = tuple((p, path) for p, path, _ in a.terms)
        tb = tuple((p, path) for p, path, _ in b.terms)
        if ta == tb:
            exact = tuple(
                (p, path, ea and eb)
                for (p, path, ea), (_, _, eb) in zip(a.terms, b.terms)
            )
            return Bound(
                max(a.const, b.const), exact, a.literal or b.literal
            )
        # A join with a pure literal keeps the other side's terms: the
        # value is either bounded by them or one of finitely many
        # constants — representable with the literal flag.
        if not ta and a.const >= 0:
            return Bound(b.const, _weaken(b).terms, True)
        if not tb and b.const >= 0:
            return Bound(a.const, _weaken(a).terms, True)
    return TOP


@dataclass(frozen=True, slots=True)
class Node:
    """A call-graph node: a top-level definition or a static lambda.

    Under a polyvariant BTA the graph's def nodes are the function
    *variants* (the termination and bloat analyses therefore run on the
    variant graph); ``origin``/``variant`` record the source function
    and the variant's display name for diagnostics.
    """

    name: str
    static_params: tuple  # Symbols
    kind: str  # "def" | "lam"
    residual: bool = False
    origin: str = ""
    variant: str = ""


@dataclass(frozen=True, slots=True)
class CallEdge:
    """A specialization-time call with per-static-parameter bounds.

    ``args`` maps each static parameter of ``dst`` to its abstract
    bound relative to the static parameters of ``src`` (for memo
    summary edges: of the residual definition the summary is rooted
    at).  ``sites`` are expression paths in ``pe/check.py`` style; the
    first names the call site, the rest the unfold chain it was
    composed through.
    """

    src: str
    dst: str
    kind: str  # "unfold" | "closure" | "memo"
    sites: tuple  # of str
    under_dynamic: bool
    static_guarded: bool
    args: tuple  # sorted tuple of (param: Symbol, bound)

    def describe(self) -> str:
        site = self.sites[0] if self.sites else "?"
        via = ""
        if len(self.sites) > 1:
            via = " (via " + " -> ".join(self.sites[1:]) + ")"
        return f"{self.src} -> {self.dst} at {site}{via}"


@dataclass
class CallGraph:
    """Everything the client analyses consume."""

    nodes: dict = field(default_factory=dict)  # name -> Node
    unfold_edges: list = field(default_factory=list)  # CallEdge
    memo_edges: list = field(default_factory=list)  # residual-level CallEdge
    summaries: dict = field(default_factory=dict)  # def name -> summary
    bta: BTAResult | None = None


# -- result-source summaries ---------------------------------------------------------
#
# Summary domain: TOP, or (frozenset of parameter indices, const flag) —
# "the result is a substructure of one of these parameters, or (if the
# flag is set) a program literal".

_BOTTOM_SUMMARY = (frozenset(), False)


def _join_summary(a: Any, b: Any) -> Any:
    if a is TOP or b is TOP:
        return TOP
    return (a[0] | b[0], a[1] or b[1])


class _Summaries:
    def __init__(self, annotated):
        self.defs = {d.name: d for d in annotated.defs}

    def solve(self) -> dict:
        solver = Solver(_join_summary, _BOTTOM_SUMMARY)
        return solver.solve(
            list(self.defs),
            lambda name, s: self._transfer(name, s),
        )

    def _transfer(self, name: Symbol, solver: Solver) -> Any:
        d = self.defs[name]
        idx = {p: i for i, p in enumerate(d.params)}
        return self._ret(d.body, idx, {}, solver)

    def _ret(self, e, idx, env, solver):
        if isinstance(e, If):
            return _join_summary(
                self._ret(e.then, idx, env, solver),
                self._ret(e.alt, idx, env, solver),
            )
        if isinstance(e, Let):
            env = dict(env)
            env[e.var] = self._val(e.rhs, idx, env, solver)
            return self._ret(e.body, idx, env, solver)
        return self._val(e, idx, env, solver)

    def _val(self, e, idx, env, solver):
        if isinstance(e, Const):
            return (frozenset(), True)
        if isinstance(e, Var):
            if e.name in idx:
                return (frozenset([idx[e.name]]), False)
            if e.name in env:
                return env[e.name]
            return TOP
        if isinstance(e, Let):
            env = dict(env)
            env[e.var] = self._val(e.rhs, idx, env, solver)
            return self._val(e.body, idx, env, solver)
        if isinstance(e, If):
            return _join_summary(
                self._val(e.then, idx, env, solver),
                self._val(e.alt, idx, env, solver),
            )
        if isinstance(e, Prim):
            if _destructor_path(e.op.name) is not None and len(e.args) == 1:
                return _weaken_summary(
                    self._val(e.args[0], idx, env, solver)
                )
            if e.op in _SEARCH_PRIMS and len(e.args) == 2:
                inner = _weaken_summary(
                    self._val(e.args[1], idx, env, solver)
                )
                return _join_summary(inner, (frozenset(), True))
            if e.op in _PREDICATE_PRIMS:
                return (frozenset(), True)
            return TOP
        if isinstance(e, App) and isinstance(e.fn, Var):
            callee = self.defs.get(e.fn.name)
            if callee is not None:
                summary = solver.get(e.fn.name)
                if summary is TOP:
                    return TOP
                out: Any = (frozenset(), summary[1])
                for i in summary[0]:
                    if i >= len(e.args):
                        return TOP
                    out = _join_summary(
                        out,
                        _weaken_summary(
                            self._val(e.args[i], idx, env, solver)
                        ),
                    )
                return out
        return TOP


def _weaken_summary(s: Any) -> Any:
    return s  # substructure-of composes; summaries are already weak


# -- the walker ----------------------------------------------------------------------

# Path segment prefix of an argument position, per node type.
_ARG_TAGS = {
    Prim: "prim", DPrim: "dprim", MemoCall: "memo", App: "app", DApp: "dapp",
}
# Nodes with no call below them; a static lambda is walked as its own node.
_LEAVES = frozenset({Const, Var, Lam})


class _Builder:
    def __init__(self, bta: BTAResult):
        self.bta = bta
        self.annotated = bta.annotated
        self.defs = {d.name: d for d in bta.annotated.defs}
        self.closure = bta.closure
        self.graph = CallGraph(bta=bta)
        self.graph.summaries = _Summaries(bta.annotated).solve()
        self._lam_names: dict[int, str] = {}
        self._lam_counter = 0

    # -- naming ------------------------------------------------------------------

    def _lam_name(self, lam_id: int, host: Symbol) -> str:
        if lam_id not in self._lam_names:
            self._lam_counter += 1
            self._lam_names[lam_id] = f"lambda#{self._lam_counter}@{host}"
        return self._lam_names[lam_id]

    def _static_params(self, params, bts) -> tuple:
        return tuple(p for p, bt in zip(params, bts) if bt is S)

    # -- construction ------------------------------------------------------------

    def build(self) -> CallGraph:
        variants = getattr(self.bta, "variants", None) or {}
        for d in self.annotated.defs:
            info = variants.get(d.name)
            self.graph.nodes[str(d.name)] = Node(
                name=str(d.name),
                static_params=self._static_params(d.params, d.bts),
                kind="def",
                residual=d.residual,
                origin=str(info.origin) if info is not None else str(d.name),
                variant=info.display if info is not None else "",
            )
        if self.closure is not None:
            for lam_id, site in self.closure.lams.items():
                name = self._lam_name(lam_id, site.host)
                self.graph.nodes[name] = Node(
                    name=name,
                    static_params=self._static_params(
                        site.node.params, site.param_bts
                    ),
                    kind="lam",
                )
        # Per-node unfold/closure/memo edges (the T1 graph).
        for d in self.annotated.defs:
            self._node_edges(str(d.name), d.body, ())
        if self.closure is not None:
            for lam_id, site in self.closure.lams.items():
                name = self._lam_name(lam_id, site.host)
                self._node_edges(name, site.node.body, ("lam.body",))
        # Residual-level memo summary edges (the T2 graph).
        for d in self.annotated.defs:
            if d.residual:
                self._summarize_residual(d)
        return self.graph

    # -- bound extraction --------------------------------------------------------

    def _bound_of(self, e, env) -> Any:
        if isinstance(e, Const):
            return Bound(datum_size(e.value), ())
        if isinstance(e, Lift):
            return self._bound_of(e.expr, env)
        if isinstance(e, Var):
            return env.get(e.name, TOP)
        if isinstance(e, Let):
            inner = dict(env)
            inner[e.var] = self._bound_of(e.rhs, env)
            return self._bound_of(e.body, inner)
        if isinstance(e, If):
            return join_bounds(
                self._bound_of(e.then, env), self._bound_of(e.alt, env)
            )
        if isinstance(e, Prim):
            return self._bound_of_prim(e, env)
        if isinstance(e, App) and isinstance(e.fn, Var):
            callee = self.defs.get(e.fn.name)
            if callee is not None:
                return self._bound_of_call(e, env)
        return TOP

    def _bound_of_call(self, e: App, env) -> Any:
        summary = self.graph.summaries.get(e.fn.name, TOP)
        if summary is TOP:
            return TOP
        params, const = summary
        out: Any = Bound(0, (), True) if const else None
        for i in params:
            if i >= len(e.args):
                return TOP
            out = join_bounds(
                out, _weaken(self._bound_of(e.args[i], env))
            )
        if out is None:  # result provably a constant-free dead loop
            return Bound(0, (), True)
        return out

    def _bound_of_prim(self, e: Prim, env) -> Any:
        name = e.op.name
        path = _destructor_path(name)
        if path is not None and len(e.args) == 1:
            return _apply_path(self._bound_of(e.args[0], env), path)
        if e.op in _SEARCH_PRIMS and len(e.args) == 2:
            inner = _weaken(self._bound_of(e.args[1], env))
            if isinstance(inner, Bound):
                return Bound(inner.const, inner.terms, True)
            return TOP
        if e.op in _PREDICATE_PRIMS:
            return Bound(1, (), True)
        if e.op == _CONS and len(e.args) == 2:
            return self._combine_construction(e.args, env, extra=1)
        if e.op == _LIST:
            return self._combine_construction(e.args, env, extra=len(e.args))
        if e.op == _APPEND:
            combined = self._combine_construction(e.args, env, extra=0)
            return _weaken(combined)
        if e.op == _REVERSE and len(e.args) == 1:
            return _weaken(self._bound_of(e.args[0], env))
        if e.op in (_PLUS, _MINUS) and len(e.args) == 2:
            a, b = e.args
            sign = 1 if e.op == _PLUS else -1
            if isinstance(b, Const) and isinstance(b.value, int):
                return self._offset(self._bound_of(a, env), sign * b.value)
            if (
                e.op == _PLUS
                and isinstance(a, Const)
                and isinstance(a.value, int)
            ):
                return self._offset(self._bound_of(b, env), a.value)
            return TOP
        if e.op == _ADD1 and len(e.args) == 1:
            return self._offset(self._bound_of(e.args[0], env), 1)
        if e.op == _SUB1 and len(e.args) == 1:
            return self._offset(self._bound_of(e.args[0], env), -1)
        if e.op == _QUOTIENT and len(e.args) == 2:
            divisor = e.args[1]
            if (
                isinstance(divisor, Const)
                and isinstance(divisor.value, int)
                and divisor.value >= 2
            ):
                # Strictly shrinking for positive values; modelled as a
                # unit decrement (the guarded-descent rule is what
                # makes either form count).
                return self._offset(self._bound_of(e.args[0], env), -1)
            return TOP
        return TOP

    def _offset(self, b: Any, delta: int) -> Any:
        if isinstance(b, NumBound):
            return NumBound(b.param, b.path, b.delta + delta)
        if (
            isinstance(b, Bound)
            and len(b.terms) == 1
            and b.const == 0
            and not b.literal
            and b.terms[0][2]
        ):
            p, path, _ = b.terms[0]
            return NumBound(p, path, delta)
        return TOP

    def _combine_construction(self, args, env, extra: int) -> Any:
        const = extra
        terms: list = []
        literal = False
        for a in args:
            b = self._bound_of(a, env)
            if isinstance(b, NumBound):
                if b.delta != 0:
                    return TOP  # fresh numbers escape the value universe
                b = Bound(0, ((b.param, b.path, True),))
            if not isinstance(b, Bound):
                return TOP
            const += b.const
            terms.extend(b.terms)
            literal = literal or b.literal
        terms.sort(key=lambda t: (str(t[0]), t[1], t[2]))
        return Bound(const, tuple(terms), literal)

    # -- the call-site walk ----------------------------------------------------------

    def _identity_env(self, name: str) -> dict:
        """Each static parameter of a node bounded by itself."""
        return {
            p: Bound(0, ((p, (), True),))
            for p in self.graph.nodes[name].static_params
        }

    def _walk_calls(self, e, env, path, dyn, guard, visit) -> None:
        """Walk ``e`` in pre-order and hand each ``MemoCall`` and static
        ``App`` to ``visit(e, env, seg, dyn, guard)``: ``env`` bounds the
        names in scope, ``seg`` is the node's path, ``dyn`` says it runs
        under dynamic control and ``guard`` under a static test.  A
        static lambda's body is not entered: the lambda is its own graph
        node."""
        walk = self._walk_calls
        kind = type(e)
        if kind is MemoCall or kind is App:
            visit(e, env, "/".join(path) if path else "body", dyn, guard)
        if kind is Let:
            walk(e.rhs, env, path + ("let.rhs",), dyn, guard, visit)
            inner = {**env, e.var: self._bound_of(e.rhs, env)}
            walk(e.body, inner, path + ("let.body",), dyn, guard, visit)
        elif kind is If:
            walk(e.test, env, path + ("if.test",), dyn, guard, visit)
            walk(e.then, env, path + ("if.then",), dyn, True, visit)
            walk(e.alt, env, path + ("if.alt",), dyn, True, visit)
        elif kind is DIf:
            walk(e.test, env, path + ("dif.test",), dyn, guard, visit)
            walk(e.then, env, path + ("dif.then",), True, guard, visit)
            walk(e.alt, env, path + ("dif.alt",), True, guard, visit)
        elif kind is Lift:
            walk(e.expr, env, path + ("lift",), dyn, guard, visit)
        elif kind is DLam:
            # The body is specialized inline at the definition site; its
            # execution is under dynamic control, its params dynamic.
            walk(e.body, env, path + ("dlam.body",), True, guard, visit)
        elif kind in _ARG_TAGS:
            tag = _ARG_TAGS[kind]
            if kind is App or kind is DApp:
                walk(e.fn, env, path + (f"{tag}.fn",), dyn, guard, visit)
            for i, a in enumerate(e.args):
                if type(a) not in _LEAVES:
                    walk(a, env, path + (f"{tag}.arg{i}",), dyn, guard, visit)
        elif kind not in _LEAVES:
            raise TypeError(f"unexpected node {kind.__name__}")

    def _targets(self, e) -> list:
        """The nodes a visited call enters, as ``(key, name, kind, site,
        params, bts)``: ``key`` is the definition name or the static
        lambda's id, ``site`` the call's last path segment."""
        if isinstance(e, MemoCall):
            d = self.defs[e.name]
            name = str(e.name)
            return [(e.name, name, "memo", f"memo[{name}]", d.params, d.bts)]
        if isinstance(e.fn, Var) and e.fn.name in self.defs:
            d = self.defs[e.fn.name]
            name = str(e.fn.name)
            return [(e.fn.name, name, "unfold", f"app[{name}]", d.params, d.bts)]
        if self.closure is None:
            return []
        out = []
        for lam_id in self.closure.apps.get(id(e), ()):
            lam = self.closure.lams.get(lam_id)
            if lam is not None:
                name = self._lam_name(lam_id, lam.host)
                out.append((
                    lam_id, name, "closure", f"app[{name}]",
                    lam.node.params, lam.param_bts,
                ))
        return out

    def _edge_args(self, params, bts, args, env) -> tuple:
        return tuple(
            (p, self._bound_of(a, env))
            for p, bt, a in zip(params, bts, args)
            if bt is S
        )

    # -- per-node edges (T1) -------------------------------------------------------

    def _node_edges(self, src: str, body, path: tuple) -> None:
        """Every call in one node's body, as an edge out of the node."""

        def visit(e, env, seg, dyn, guard):
            for _, dst, kind, site, params, bts in self._targets(e):
                self.graph.unfold_edges.append(CallEdge(
                    src=src,
                    dst=dst,
                    kind=kind,
                    sites=(f"{seg}/{site}",),
                    under_dynamic=dyn,
                    static_guarded=guard,
                    args=self._edge_args(params, bts, e.args, env),
                ))

        self._walk_calls(
            body, self._identity_env(src), path, False, False, visit
        )

    # -- residual memo summaries (T2) ---------------------------------------------

    def _summarize_residual(self, d) -> None:
        root = str(d.name)
        # state: key -> (env, under_dyn, via chain); key is a def name
        # or a lam id, for bodies reachable from the root by unfolding.
        state: dict[Any, tuple] = {}
        edges: dict[Any, CallEdge] = {}
        work: list[Any] = ["__root__"]
        queued = {"__root__"}

        def enter(key, body_env, dyn, via, site):
            prev = state.get(key)
            if prev is None:
                merged = (dict(body_env), dyn, via + (site,))
            else:
                penv, pdyn, pvia = prev
                merged_env = dict(penv)
                for k, v in body_env.items():
                    old = penv.get(k)
                    joined = join_bounds(old, v)
                    # Widen: a bound whose constant grows over the same
                    # terms (an accumulator re-entering its own body)
                    # would grow on every re-entry.
                    if (
                        isinstance(old, Bound)
                        and isinstance(joined, Bound)
                        and joined.terms == old.terms
                        and joined.const > old.const
                    ):
                        joined = TOP
                    merged_env[k] = joined
                for k in penv:
                    if k not in body_env:
                        merged_env[k] = TOP
                merged = (merged_env, pdyn or dyn, pvia)
            if prev is None or merged != prev:
                state[key] = merged
                if key not in queued:
                    queued.add(key)
                    work.append(key)

        def walk(key):
            if key == "__root__":
                body, env, dyn, via = d.body, self._identity_env(root), False, ()
                here = "body"
            else:
                env, dyn, via = state[key]
                if isinstance(key, Symbol):
                    body = self.defs[key].body
                else:  # lam id
                    body = self.closure.lams[key].node.body
                here = str(key)

            def visit(e, env, seg, dyn, guard):
                for target, dst, kind, call, params, bts in self._targets(e):
                    site = f"{here}: {seg}/{call}"
                    args = self._edge_args(params, bts, e.args, env)
                    if kind == "memo":
                        edges[(key, id(e))] = CallEdge(
                            src=root,
                            dst=dst,
                            kind="memo",
                            sites=(site,) + via,
                            under_dynamic=dyn,
                            static_guarded=guard,
                            args=args,
                        )
                    else:
                        enter(target, dict(args), dyn, via, site)

            self._walk_calls(body, env, (), dyn, False, visit)

        while work:
            key = work.pop()
            queued.discard(key)
            walk(key)

        self.graph.memo_edges.extend(edges.values())


def build_callgraph(bta: BTAResult) -> CallGraph:
    """Build the call graph with argument bounds for an analyzed program."""
    return _Builder(bta).build()
