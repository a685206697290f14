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
            env = {p: Bound(0, ((p, (), True),)) for p in
                   self._static_params(d.params, d.bts)}
            self._walk_edges(
                str(d.name), d.body, env, path=(), dyn=False, guard=False
            )
        if self.closure is not None:
            for lam_id, site in self.closure.lams.items():
                name = self._lam_name(lam_id, site.host)
                statics = self.graph.nodes[name].static_params
                env = {p: Bound(0, ((p, (), True),)) for p in statics}
                self._walk_edges(
                    name, site.node.body, env, path=("lam.body",),
                    dyn=False, guard=False,
                )
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

    # -- per-node edges (T1) -------------------------------------------------------

    def _add_edge(self, **kw) -> None:
        self.graph.unfold_edges.append(CallEdge(**kw))

    def _edge_args(self, dst_node: Node, params, bts, args, env) -> tuple:
        out = []
        for p, bt, a in zip(params, bts, args):
            if bt is S:
                out.append((p, self._bound_of(a, env)))
        return tuple(out)

    def _walk_edges(self, src, e, env, path, dyn, guard) -> None:
        seg = "/".join(path) if path else "body"
        if isinstance(e, (Const, Var)):
            return
        if isinstance(e, Lift):
            self._walk_edges(src, e.expr, env, path + ("lift",), dyn, guard)
            return
        if isinstance(e, Let):
            self._walk_edges(src, e.rhs, env, path + ("let.rhs",), dyn, guard)
            inner = dict(env)
            inner[e.var] = self._bound_of(e.rhs, env)
            self._walk_edges(src, e.body, inner, path + ("let.body",), dyn, guard)
            return
        if isinstance(e, If):
            self._walk_edges(src, e.test, env, path + ("if.test",), dyn, guard)
            self._walk_edges(src, e.then, env, path + ("if.then",), dyn, True)
            self._walk_edges(src, e.alt, env, path + ("if.alt",), dyn, True)
            return
        if isinstance(e, DIf):
            self._walk_edges(src, e.test, env, path + ("dif.test",), dyn, guard)
            self._walk_edges(src, e.then, env, path + ("dif.then",), True, guard)
            self._walk_edges(src, e.alt, env, path + ("dif.alt",), True, guard)
            return
        if isinstance(e, (Prim, DPrim)):
            tag = "prim" if isinstance(e, Prim) else "dprim"
            for i, a in enumerate(e.args):
                self._walk_edges(
                    src, a, env, path + (f"{tag}.arg{i}",), dyn, guard
                )
            return
        if isinstance(e, DLam):
            # The body is specialized inline at the definition site; its
            # execution is under dynamic control, its params dynamic.
            self._walk_edges(
                src, e.body, env, path + ("dlam.body",), True, guard
            )
            return
        if isinstance(e, Lam):
            # A static lambda is its own graph node; walked separately.
            return
        if isinstance(e, MemoCall):
            callee = self.defs[e.name]
            self._add_edge(
                src=src,
                dst=str(e.name),
                kind="memo",
                sites=(f"{seg}/memo[{e.name}]",),
                under_dynamic=dyn,
                static_guarded=guard,
                args=self._edge_args(
                    None, callee.params, callee.bts, e.args, env
                ),
            )
            for i, a in enumerate(e.args):
                self._walk_edges(
                    src, a, env, path + (f"memo.arg{i}",), dyn, guard
                )
            return
        if isinstance(e, (App, DApp)):
            tag = "app" if isinstance(e, App) else "dapp"
            if isinstance(e, App):
                self._app_edges(src, e, env, seg, dyn, guard)
            self._walk_edges(src, e.fn, env, path + (f"{tag}.fn",), dyn, guard)
            for i, a in enumerate(e.args):
                self._walk_edges(
                    src, a, env, path + (f"{tag}.arg{i}",), dyn, guard
                )
            return
        raise TypeError(f"unexpected node {type(e).__name__}")

    def _app_edges(self, src, e: App, env, seg, dyn, guard) -> None:
        if isinstance(e.fn, Var) and e.fn.name in self.defs:
            callee = self.defs[e.fn.name]
            self._add_edge(
                src=src,
                dst=str(e.fn.name),
                kind="unfold",
                sites=(f"{seg}/app[{e.fn.name}]",),
                under_dynamic=dyn,
                static_guarded=guard,
                args=self._edge_args(
                    None, callee.params, callee.bts, e.args, env
                ),
            )
            return
        if self.closure is None:
            return
        for lam_id in self.closure.apps.get(id(e), ()):
            site = self.closure.lams.get(lam_id)
            if site is None:
                continue
            name = self._lam_name(lam_id, site.host)
            self._add_edge(
                src=src,
                dst=name,
                kind="closure",
                sites=(f"{seg}/app[{name}]",),
                under_dynamic=dyn,
                static_guarded=guard,
                args=self._edge_args(
                    None, site.node.params, site.param_bts, e.args, env
                ),
            )

    # -- residual memo summaries (T2) ---------------------------------------------

    def _summarize_residual(self, d) -> None:
        root = str(d.name)
        env0 = {
            p: Bound(0, ((p, (), True),))
            for p in self._static_params(d.params, d.bts)
        }
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
                body, env, dyn, via = d.body, env0, False, ()
            elif isinstance(key, Symbol):
                env, dyn, via = state[key]
                body = self.defs[key].body
            else:  # lam id
                env, dyn, via = state[key]
                body = self.closure.lams[key].node.body
            self._walk_summary(
                key, body, env, (), dyn, False, via, enter, edges
            )

        while work:
            key = work.pop()
            queued.discard(key)
            walk(key)

        for edge in edges.values():
            self.graph.memo_edges.append(
                CallEdge(
                    src=root,
                    dst=edge.dst,
                    kind="memo",
                    sites=edge.sites,
                    under_dynamic=edge.under_dynamic,
                    static_guarded=edge.static_guarded,
                    args=edge.args,
                )
            )

    def _walk_summary(
        self, key, e, env, path, dyn, guard, via, enter, edges
    ) -> None:
        seg = "/".join(path) if path else "body"
        here = f"{key if key != '__root__' else 'body'}"
        if isinstance(e, (Const, Var)):
            return
        if isinstance(e, Lift):
            self._walk_summary(
                key, e.expr, env, path + ("lift",), dyn, guard, via,
                enter, edges,
            )
            return
        if isinstance(e, Let):
            self._walk_summary(
                key, e.rhs, env, path + ("let.rhs",), dyn, guard, via,
                enter, edges,
            )
            inner = dict(env)
            inner[e.var] = self._bound_of(e.rhs, env)
            self._walk_summary(
                key, e.body, inner, path + ("let.body",), dyn, guard,
                via, enter, edges,
            )
            return
        if isinstance(e, If):
            self._walk_summary(
                key, e.test, env, path + ("if.test",), dyn, guard, via,
                enter, edges,
            )
            for br, tag in ((e.then, "if.then"), (e.alt, "if.alt")):
                self._walk_summary(
                    key, br, env, path + (tag,), dyn, True, via, enter,
                    edges,
                )
            return
        if isinstance(e, DIf):
            self._walk_summary(
                key, e.test, env, path + ("dif.test",), dyn, guard,
                via, enter, edges,
            )
            for br, tag in ((e.then, "dif.then"), (e.alt, "dif.alt")):
                self._walk_summary(
                    key, br, env, path + (tag,), True, guard, via,
                    enter, edges,
                )
            return
        if isinstance(e, (Prim, DPrim)):
            tag = "prim" if isinstance(e, Prim) else "dprim"
            for i, a in enumerate(e.args):
                self._walk_summary(
                    key, a, env, path + (f"{tag}.arg{i}",), dyn, guard,
                    via, enter, edges,
                )
            return
        if isinstance(e, DLam):
            self._walk_summary(
                key, e.body, env, path + ("dlam.body",), True, guard,
                via, enter, edges,
            )
            return
        if isinstance(e, Lam):
            return
        if isinstance(e, MemoCall):
            callee = self.defs[e.name]
            site = f"{here}: {seg}/memo[{e.name}]"
            edges[(key, id(e))] = CallEdge(
                src="",
                dst=str(e.name),
                kind="memo",
                sites=(site,) + via,
                under_dynamic=dyn,
                static_guarded=guard,
                args=self._edge_args(
                    None, callee.params, callee.bts, e.args, env
                ),
            )
            for i, a in enumerate(e.args):
                self._walk_summary(
                    key, a, env, path + (f"memo.arg{i}",), dyn, guard,
                    via, enter, edges,
                )
            return
        if isinstance(e, (App, DApp)):
            tag = "app" if isinstance(e, App) else "dapp"
            if isinstance(e, App):
                self._summary_app(
                    key, e, env, seg, here, dyn, guard, via, enter
                )
            self._walk_summary(
                key, e.fn, env, path + (f"{tag}.fn",), dyn, guard, via,
                enter, edges,
            )
            for i, a in enumerate(e.args):
                self._walk_summary(
                    key, a, env, path + (f"{tag}.arg{i}",), dyn, guard,
                    via, enter, edges,
                )
            return
        raise TypeError(f"unexpected node {type(e).__name__}")

    def _summary_app(
        self, key, e: App, env, seg, here, dyn, guard, via, enter
    ) -> None:
        site = f"{here}: {seg}/app"
        if isinstance(e.fn, Var) and e.fn.name in self.defs:
            callee = self.defs[e.fn.name]
            body_env = {
                p: self._bound_of(a, env)
                for p, bt, a in zip(callee.params, callee.bts, e.args)
                if bt is S
            }
            enter(e.fn.name, body_env, dyn, via, f"{site}[{e.fn.name}]")
            return
        if self.closure is None:
            return
        for lam_id in self.closure.apps.get(id(e), ()):
            lam_site = self.closure.lams.get(lam_id)
            if lam_site is None:
                continue
            name = self._lam_name(lam_id, lam_site.host)
            body_env = {
                p: self._bound_of(a, env)
                for p, bt, a in zip(
                    lam_site.node.params, lam_site.param_bts, e.args
                )
                if bt is S
            }
            enter(lam_id, body_env, dyn, via, f"{site}[{name}]")


def build_callgraph(bta: BTAResult) -> CallGraph:
    """Build the call graph with argument bounds for an analyzed program."""
    return _Builder(bta).build()
