"""Binding-time analysis (BTA).

"Notably, the binding-time analysis, which is a vital part of every offline
partial evaluator, can automatically determine a proper staging of
computations" (§1).  Given a program and a binding-time signature for the
goal function's parameters, the analysis computes a congruent division and
produces Annotated Core Scheme for the specializer.

Two division disciplines are available (``bta="mono"|"poly"``).  A
generating extension always runs the polyvariant one; the monovariant
join stays here as the baseline the division report, the pinned
divisions and the Fig. 7 ablation compare against:

* **monovariant** — one binding time per parameter per function: every
  call site's argument binding times join into the same division, so a
  function called with ``(S,D)`` *and* ``(S,S)`` sees the lattice join
  ``(S,D)`` everywhere;
* **polyvariant** (the default) — top-level functions are *cloned* per
  distinct abstract binding-time signature reaching their call sites.
  The abstract signature of a call site is the pair (argument binding
  times, role), where the role records whether the site memoizes the
  callee (making it a residual specialization point whose body must
  become code) or unfolds it (so its body is consumed as a
  specialization-time value).  Cloning by role is what removes the
  classic lift infelicity on fully static non-tail recursion: the goal's
  residual variant gets lifts in its branches while the unfolded value
  variant stays lift-free.  Variant fan-out is bounded by a fixed cap
  (:data:`MAX_VARIANTS`); a function whose request set overflows the cap
  is *widened* back to its monovariant join (a single clone receiving
  every call site).  The joint closure/binding-time/demand fixpoint is
  re-run over the cloned program — the variant graph — until the variant
  set and every call-site target stabilise.

The analysis is a joint fixpoint over three interleaved, monotone maps:

* **abstract values** (a 0-CFA-style closure analysis): which lambdas,
  top-level functions, and primitives can reach each expression and
  variable — needed to propagate binding times through higher-order code;
* **binding times** on the two-point lattice S ⊑ D;
* **code demand**: positions whose value must become residual code.  A
  static first-order value in a demanded position is lifted at annotation
  time; a *lambda* reaching a demanded position is forced dynamic
  (lambdas cannot be lifted), which feeds back into the binding times of
  its parameters.

The fixpoint runs in rounds over the definitions, in definition order,
until a round changes nothing.  A walk pushes demand into a lambda's
body, a let's body and an if's branches before it descends into them,
so demand known at a nest's root reaches its leaves in that walk, not
one nesting level per round.  Each definition walk records which facts
it read; a round re-walks only the definitions with a fact that grew
since they last read it.  The skipped walks could only repeat
joins already made, so the result is the one a full sweep per round
computes.  The order matters because the unfold/memoize decision below
is not monotone, which is also why the analysis keeps its own schedule
rather than a generic worklist solver.

Call sites to top-level functions are classified **unfold** or **memoize**
per site:

* calls to non-recursive functions, and calls whose callee has only static
  parameters, unfold;
* calls within a recursive component unfold when some static argument is a
  structural *descent* (a chain of list destructors) of an enclosing
  static variable — the classic criterion that lets an interpreter's
  expression walk be unfolded while its function-call loop is memoized.
  The decision judges the argument at the call, through the right-hand
  sides of the let-bound names it mentions (bound names are unique
  after :func:`prepare`), with the binding times known at that point;
  no separate pass precomputes it;
* everything else is a memoization point (a residual specialization
  point), as are all calls to functions listed in ``memo_hints``.

The front-end pipeline (the paper's §4: desugaring, lambda lifting,
assignment elimination) runs first, followed by eta-expansion of top-level
functions used as values, so that function names only ever appear in
operator position.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro import obs
from repro.obs import traced
from repro.lang.alpha import alpha_rename
from repro.lang.assignment import eliminate_assignments
from repro.lang.ast import (
    App,
    Const,
    DApp,
    DIf,
    DLam,
    DPrim,
    Def,
    Expr,
    If,
    Lam,
    Let,
    Lift,
    MemoCall,
    Prim,
    Program,
    Var,
)
from repro.lang.gensym import Gensym
from repro.lang.lambda_lift import lambda_lift
from repro.lang.prims import PRIMITIVES
from repro.lang.simplify import beta_let_program
from repro.pe.annprog import AnnDef, AnnotatedProgram, BindingTime, parse_signature
from repro.pe.errors import BindingTimeError
from repro.sexp.datum import Symbol, sym

S = BindingTime.STATIC
D = BindingTime.DYNAMIC

# Primitives whose application to a static variable counts as structural
# descent for the unfold/memoize decision.
_DESTRUCTORS = frozenset(
    name
    for name in (
        sym(n)
        for n in (
            "car", "cdr", "caar", "cadr", "cdar", "cddr",
            "caaa", "caad", "cada", "cadd", "cdaa", "cdad", "cdda", "cddd",
            "caddr", "cdddr", "cadddr", "list-ref", "list-tail",
        )
    )
    if name in PRIMITIVES
)

_QUOTIENT = sym("quotient")
_SUB1 = sym("sub1")
_NUMERIC_DESCENT = frozenset({sym("-"), _QUOTIENT})

# Primitives that are *transparent* to the closure analysis: a closure
# stored in a pair can come back out of car/cdr, so abstract values flow
# through these operations ("smushing").  Without this, an interpreter
# that keeps thunks in an environment list would leak static closures
# into residual code.
_CONTAINER_OPS = frozenset(
    name
    for name in (
        sym(n)
        for n in (
            "cons", "list", "append", "reverse", "car", "cdr",
            "caar", "cadr", "cdar", "cddr", "caddr", "cdddr", "cadddr",
            "list-ref", "list-tail", "memq", "memv", "member",
            "assq", "assv", "assoc",
        )
    )
    if name in PRIMITIVES
)


@dataclass(frozen=True)
class LamSite:
    """A static (specialization-time) lambda in the annotated program."""

    node: Lam
    host: Symbol
    param_bts: tuple


@dataclass(frozen=True)
class ClosureInfo:
    """Closure-analysis results transferred onto the annotated tree.

    The annotator rebuilds every node, so the analysis's own maps (keyed
    by prepared-node identity) are useless to clients holding only the
    annotated program.  This re-keys the interesting part — which static
    lambdas may be applied at which static closure-application sites —
    by the identity of *annotated* nodes, for whole-program analyses
    (:mod:`repro.analysis`) that walk ACS.

    ``lams`` maps ``id(annotated Lam)`` to its :class:`LamSite`;
    ``apps`` maps ``id(annotated App)`` (closure applications only —
    apps whose operator is not a top-level function) to the ids of the
    annotated lambdas that may be applied there.
    """

    lams: dict
    apps: dict

    def targets(self, app: App) -> tuple[LamSite, ...]:
        return tuple(
            self.lams[lid]
            for lid in self.apps.get(id(app), ())
            if lid in self.lams
        )


@dataclass(frozen=True)
class VariantInfo:
    """Metadata for one polyvariant clone of a top-level function.

    ``origin`` is the prepared-program function the clone was split from;
    ``signature`` is the abstract argument binding-time signature the
    clone was keyed on (``"SD"`` style, or ``"mono"`` when the function
    was widened back to the monovariant join); ``role`` says whether the
    clone is a residual specialization point (``"residual"``), an
    unfold-only value (``"value"``), or the widened join (``"widened"``);
    ``call_sites`` lists the originating call sites (``host:path``) that
    requested the variant.
    """

    origin: Symbol
    signature: str
    role: str
    call_sites: tuple = ()

    @property
    def display(self) -> str:
        """``function@variant`` label used in diagnostics."""
        if self.role == "widened":
            return f"{self.origin}@mono"
        tag = "r" if self.role == "residual" else "v"
        return f"{self.origin}@{self.signature}{tag}"


@dataclass
class BTAResult:
    """The analysis output: the annotated program plus diagnostics.

    For ``mode="poly"``, ``prepared`` is the *expanded* variant program
    (the clone graph the annotation was computed over), ``variants`` maps
    each definition name to its :class:`VariantInfo`, and ``widened``
    names the origins whose variant fan-out overflowed the cap.
    """

    annotated: AnnotatedProgram
    prepared: Program
    division: dict
    residual_defs: frozenset
    decisions: dict = field(default_factory=dict)
    closure: ClosureInfo | None = None
    mode: str = "mono"
    variants: dict = field(default_factory=dict)
    widened: frozenset = frozenset()

    def origin_of(self, name: Symbol) -> Symbol:
        """The prepared-program function a definition was cloned from."""
        info = self.variants.get(name)
        return info.origin if info is not None else name


def prepare(program: Program) -> Program:
    """The specializer's front-end pipeline (§4).

    Beta-let conversion, lambda lifting, assignment elimination, and a
    final alpha renaming making every bound name globally unique; then
    eta-expansion of top-level function names used as values.
    """
    gs = Gensym("p")
    program = beta_let_program(program)
    program = lambda_lift(program, gs)
    program = eliminate_assignments(program, gs)
    program = beta_let_program(program)
    program = alpha_rename(program, gs, rename_params=True)
    return _eta_expand_def_values(program, gs)


def _eta_expand_def_values(program: Program, gs: Gensym) -> Program:
    """Rewrite non-operator references to top-level functions.

    ``f`` becomes ``(lambda (x ...) (f x ...))`` so that analysis and
    specializer only ever see direct calls to top-level functions.
    """
    def_names = {d.name: d for d in program.defs}

    def rewrite(e: Expr, operator: bool = False) -> Expr:
        if isinstance(e, Var):
            d = def_names.get(e.name)
            if d is not None and not operator:
                params = tuple(gs.fresh(p) for p in d.params)
                return Lam(params, App(e, tuple(Var(p) for p in params)))
            return e
        if isinstance(e, Const):
            return e
        if isinstance(e, Lam):
            return Lam(e.params, rewrite(e.body))
        if isinstance(e, Let):
            return Let(e.var, rewrite(e.rhs), rewrite(e.body))
        if isinstance(e, If):
            return If(rewrite(e.test), rewrite(e.then), rewrite(e.alt))
        if isinstance(e, App):
            return App(
                rewrite(e.fn, operator=isinstance(e.fn, Var)),
                tuple(rewrite(a) for a in e.args),
            )
        if isinstance(e, Prim):
            return Prim(e.op, tuple(rewrite(a) for a in e.args))
        raise BindingTimeError(
            f"front end left a {type(e).__name__} node for the analysis"
        )

    return Program(
        tuple(Def(d.name, d.params, rewrite(d.body)) for d in program.defs),
        program.goal,
    )


def strongly_connected_components(graph: dict[Any, set]) -> list[set]:
    """Tarjan's algorithm over a caller -> callees map, iteratively (a
    long call chain must not hit Python's recursion limit).  Every
    callee must be a key of ``graph``.  The safety analysis runs it on
    its call graph too (:mod:`repro.analysis.termination`)."""
    index: dict[Any, int] = {}
    low: dict[Any, int] = {}
    stack: list = []
    on_stack: set = set()
    components: list[set] = []
    for root in graph:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(graph[root]))]
        while work:
            node, callees = work[-1]
            for callee in callees:
                if callee not in index:
                    index[callee] = low[callee] = len(index)
                    stack.append(callee)
                    on_stack.add(callee)
                    work.append((callee, iter(graph[callee])))
                    break
                if callee in on_stack:
                    low[node] = min(low[node], index[callee])
            else:
                work.pop()
                if work:
                    caller = work[-1][0]
                    low[caller] = min(low[caller], low[node])
                if low[node] == index[node]:
                    component: set = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.add(member)
                        if member == node:
                            break
                    components.append(component)
    return components


class _Facts:
    """One kind of analysis fact, as the dirty-definition schedule sees it.

    ``reads`` collects the keys the definition walk in progress has read;
    ``readers`` maps each key to the definitions whose walks have read it.
    """

    __slots__ = ("reads", "readers")

    def __init__(self) -> None:
        self.reads: set = set()
        self.readers: dict[Any, set[Symbol]] = {}


class _Analysis:
    """The joint CFA / binding-time / demand fixpoint."""

    def __init__(
        self,
        program: Program,
        signature: tuple[BindingTime, ...],
        memo_hints: frozenset[Symbol],
        unfold_hints: frozenset[Symbol],
        origin_of: dict | None = None,
    ):
        self.program = program
        self.defs = {d.name: d for d in program.defs}
        self.signature = signature
        self.memo_hints = memo_hints
        self.unfold_hints = unfold_hints
        # Polyvariant clones project onto their origin function for every
        # question about the *recursion structure* (SCCs, hints): splitting
        # a self-loop into variants must not make it look non-recursive.
        self._origin = origin_of or {}

        goal = program.lookup(program.goal)
        if len(signature) != len(goal.params):
            raise BindingTimeError(
                f"signature length {len(signature)} does not match goal"
                f" arity {len(goal.params)}"
            )

        # The dirty-definition schedule of :meth:`solve`: per fact kind,
        # what the walk in progress read and who read each key.
        self._bt_facts = _Facts()
        self._aval_facts = _Facts()
        self._demand_facts = _Facts()
        self._forced_facts = _Facts()
        self._memo_facts = _Facts()
        self._walking: Symbol | None = None
        self._dirty: set[Symbol] = set()

        # Keys: id(node) for expression occurrences, Symbol for variables,
        # ('result', defname) for definition results.
        self.aval: dict[Any, set] = {}
        self.bt: dict[Any, BindingTime] = {}
        self.demand: set[Any] = set()
        self.node_of: dict[int, Expr] = {}
        self.lam_forced: set[int] = set()
        self._memo_called_set: set[Symbol] = set()
        self.changed = False
        # Annotation-time recordings for ClosureInfo: prepared-lam id ->
        # (annotated Lam, host def), annotated-App id -> prepared-lam ids.
        self.ann_lams: dict[int, tuple[Lam, Symbol]] = {}
        self.ann_closure_apps: dict[int, tuple[int, ...]] = {}
        # Let-bound name -> right-hand side (bound names are unique after
        # prepare), filled by _call_graph for the descent test.
        self._let_rhs: dict[Symbol, Expr] = {}

        graph = self._call_graph()
        self.sccs = strongly_connected_components(graph)
        self.recursive: set[Symbol] = set()
        for comp in self.sccs:
            if len(comp) > 1:
                self.recursive |= comp
            else:
                (f,) = comp
                if f in graph[f]:
                    self.recursive.add(f)
        self.scc_of: dict[Symbol, frozenset] = {}
        for comp in self.sccs:
            for f in comp:
                self.scc_of[f] = frozenset(comp)

        # Goal parameters get their signature binding times.
        for p, bt in zip(goal.params, signature):
            if bt is D:
                self._raise_bt(p)

    # -- small lattice helpers -------------------------------------------------

    # Every read of a fact goes through a helper that records the key
    # for the walk in progress; every growth goes through _grew.

    def _grew(self, facts: _Facts, key: Any) -> None:
        """A fact grew: mark every definition that has read it dirty,
        the one being walked included."""
        self.changed = True
        readers = facts.readers.get(key)
        if readers:
            self._dirty |= readers
        if self._walking is not None and key in facts.reads:
            self._dirty.add(self._walking)

    def _get_bt(self, key: Any) -> BindingTime:
        self._bt_facts.reads.add(key)
        return self.bt.get(key, S)

    def _raise_bt(self, key: Any) -> None:
        if self.bt.get(key, S) is not D:
            self.bt[key] = D
            self._grew(self._bt_facts, key)

    def _flow_bt(self, src: Any, dst: Any) -> None:
        if self._get_bt(src) is D:
            self._raise_bt(dst)

    def _avals(self, key: Any) -> set:
        self._aval_facts.reads.add(key)
        return self.aval.setdefault(key, set())

    def _flow_aval(self, src: Any, dst: Any) -> None:
        s = self._avals(src)
        d = self.aval.setdefault(dst, set())
        extra = s - d
        if extra:
            d |= extra
            self._grew(self._aval_facts, dst)

    def _add_aval(self, key: Any, item: tuple) -> None:
        s = self.aval.setdefault(key, set())
        if item not in s:
            s.add(item)
            self._grew(self._aval_facts, key)

    def _demanded(self, key: Any) -> bool:
        self._demand_facts.reads.add(key)
        return key in self.demand

    def _demand(self, key: Any) -> None:
        if key not in self.demand:
            self.demand.add(key)
            self._grew(self._demand_facts, key)

    def _forced(self, lam_id: int) -> bool:
        self._forced_facts.reads.add(lam_id)
        return lam_id in self.lam_forced

    def _force_lam(self, lam_id: int) -> None:
        if lam_id not in self.lam_forced:
            self.lam_forced.add(lam_id)
            self._grew(self._forced_facts, lam_id)
            lam = self.node_of[lam_id]
            for p in lam.params:
                self._raise_bt(p)

    def _memo_called(self, f: Symbol) -> None:
        if f not in self._memo_called_set:
            self._memo_called_set.add(f)
            self._grew(self._memo_facts, f)

    # -- call graph ---------------------------------------------------------------

    def _o(self, f: Symbol) -> Symbol:
        """The origin function of a (possibly cloned) definition name."""
        return self._origin.get(f, f)

    def _call_graph(self) -> dict[Symbol, set[Symbol]]:
        """The call graph over *origin* functions: caller -> callees.
        The same walk records every let's right-hand side."""
        from repro.lang.ast import walk

        graph: dict[Symbol, set[Symbol]] = {
            self._o(name): set() for name in self.defs
        }
        for name, d in self.defs.items():
            for node in walk(d.body):
                if isinstance(node, Let):
                    self._let_rhs[node.var] = node.rhs
                elif (
                    isinstance(node, App)
                    and isinstance(node.fn, Var)
                    and node.fn.name in self.defs
                ):
                    graph[self._o(name)].add(self._o(node.fn.name))
        return graph

    # -- the fixpoint ----------------------------------------------------------------

    def solve(self) -> None:
        """Run rounds until one changes nothing.

        A round walks, in definition order, only the definitions marked
        dirty: those with a fact that grew since their last walk read
        it.  Any other walk would read what its last walk read and join
        only what is already joined, so skipping it leaves every state
        — and the fixpoint — as walking every definition would.
        """
        facts = (
            self._bt_facts, self._aval_facts, self._demand_facts,
            self._forced_facts, self._memo_facts,
        )
        self._dirty = {d.name for d in self.program.defs}
        walks = 0
        for rounds in range(1, 1001):
            self.changed = False
            for d in self.program.defs:
                if d.name not in self._dirty:
                    continue
                self._dirty.discard(d.name)
                walks += 1
                self._walking = d.name
                self._analyze(d.body, d.name)
                # A definition's result.
                self._flow_aval(id(d.body), ("result", d.name))
                self._flow_bt(id(d.body), ("result", d.name))
                if self.is_residual(d.name):
                    self._demand(id(d.body))
                for kind in facts:
                    readers = kind.readers
                    for key in kind.reads:
                        names = readers.get(key)
                        if names is None:
                            readers[key] = {d.name}
                        else:
                            names.add(d.name)
                    kind.reads.clear()
            self._walking = None
            # Demanded positions force their lambdas dynamic.
            for key in list(self.demand):
                for item in self.aval.get(key, ()):
                    if item[0] == "lam":
                        self._force_lam(item[1])
            if not self.changed:
                obs.count("pe.bta.solves")
                obs.count("pe.bta.rounds", rounds)
                obs.count("pe.bta.walks", walks)
                for kind in facts:
                    kind.readers = {}
                return
        raise BindingTimeError("binding-time analysis did not converge")

    # -- residual / unfold decisions -----------------------------------------------------

    def has_dynamic_param(self, f: Symbol) -> bool:
        return any(self._get_bt(p) is D for p in self.defs[f].params)

    def call_decision(self, caller: Symbol, callee: Symbol, app: App) -> str:
        """'unfold' or 'memo' for this call site.

        Recursion structure (hints, SCC membership) is judged on *origin*
        functions so polyvariant cloning cannot flip decisions between
        rounds; only ``has_dynamic_param`` is per-clone.
        """
        if self._o(callee) in self.unfold_hints:
            return "unfold"
        if self._o(callee) not in self.recursive:
            return "unfold"
        if not self.has_dynamic_param(callee):
            return "unfold"
        if self._o(callee) in self.memo_hints:
            return "memo"
        if self.scc_of[self._o(callee)] != self.scc_of.get(self._o(caller)):
            # Entering a recursive component from outside cannot by itself
            # build an infinite unfolding chain.
            return "unfold"
        # Within the component: unfold only on structural descent of a
        # static argument.
        callee_def = self.defs[callee]
        for arg, p in zip(app.args, callee_def.params):
            if self._get_bt(p) is S and self._descent(arg) == "desc":
                return "unfold"
        return "memo"

    def is_residual(self, f: Symbol) -> bool:
        if f is self.program.goal:
            return True
        self._memo_facts.reads.add(f)
        return f in self._memo_called_set

    # -- structural descent ---------------------------------------------------------------

    def _descent(self, e: Expr) -> str | None:
        """Descent status: 'var' (a static variable), 'desc' (a
        destructor chain over a static variable), or None.  A let-bound
        name has its right-hand side's status, a let its body's."""
        if isinstance(e, Var):
            rhs = self._let_rhs.get(e.name)
            if rhs is not None:
                return self._descent(rhs)
            if self._get_bt(e.name) is S and e.name not in self.defs:
                return "var"
            return None
        if isinstance(e, Let):
            return self._descent(e.body)
        if not isinstance(e, Prim) or not e.args:
            return None
        if e.op in _NUMERIC_DESCENT:
            # (- n k) / (quotient n k) with a positive constant k is
            # treated as numeric descent (the usual induction pattern).
            step = e.args[-1]
            if not (
                len(e.args) == 2
                and isinstance(step, Const)
                and isinstance(step.value, int)
                and not isinstance(step.value, bool)
                and step.value >= 1
                and (e.op is not _QUOTIENT or step.value >= 2)
            ):
                return None
        elif e.op not in _DESTRUCTORS and e.op is not _SUB1:
            return None
        return None if self._descent(e.args[0]) is None else "desc"

    # -- per-node analysis -------------------------------------------------------------------

    def _analyze(self, e: Expr, host: Symbol) -> None:
        nid = id(e)
        self.node_of[nid] = e

        if isinstance(e, Const):
            return

        if isinstance(e, Var):
            name = e.name
            if name in self.defs:
                self._add_aval(nid, ("def", name))
                return
            if name in PRIMITIVES and "%" not in name.name:
                # A free reference to a primitive used as a value (every
                # bound name carries a '%' after the renaming pipeline).
                self._add_aval(nid, ("prim", name))
                return
            self._flow_aval(name, nid)
            self._flow_bt(name, nid)
            return

        # A lambda, let or if pushes demand to its body or branches
        # before walking them, so demand reaches a nest's leaves in the
        # walk that finds it.
        if isinstance(e, Lam):
            self._add_aval(nid, ("lam", nid))
            if self._forced(nid):
                self._raise_bt(nid)
                self._demand(id(e.body))
            self._analyze(e.body, host)
            return

        if isinstance(e, Let):
            self._analyze(e.rhs, host)
            if self._demanded(nid):
                self._demand(id(e.body))
            self._analyze(e.body, host)
            self._flow_aval(id(e.rhs), e.var)
            self._flow_bt(id(e.rhs), e.var)
            self._flow_aval(id(e.body), nid)
            self._flow_bt(id(e.body), nid)
            return

        if isinstance(e, If):
            self._analyze(e.test, host)
            if self._get_bt(id(e.test)) is D:
                self._raise_bt(nid)
                self._demand(id(e.test))
                self._demand(id(e.then))
                self._demand(id(e.alt))
            elif self._demanded(nid):
                self._demand(id(e.then))
                self._demand(id(e.alt))
            self._analyze(e.then, host)
            self._analyze(e.alt, host)
            for br in (e.then, e.alt):
                self._flow_aval(id(br), nid)
                self._flow_bt(id(br), nid)
            return

        if isinstance(e, Prim):
            for a in e.args:
                self._analyze(a, host)
            spec = PRIMITIVES.get(e.op)
            impure = spec is not None and not spec.pure
            any_dynamic = any(self._get_bt(id(a)) is D for a in e.args)
            if e.op in _CONTAINER_OPS:
                # Closures may travel through containers.
                for a in e.args:
                    self._flow_aval(id(a), nid)
            if impure or any_dynamic:
                self._raise_bt(nid)
                for a in e.args:
                    self._demand(id(a))
            elif e.op in _CONTAINER_OPS and self._demanded(nid):
                # Lifting a constructed value lifts its components.
                for a in e.args:
                    self._demand(id(a))
            return

        if isinstance(e, App):
            self._analyze(e.fn, host)
            for a in e.args:
                self._analyze(a, host)
            fn_id = id(e.fn)
            callables = self._avals(fn_id)
            forced_lam_present = any(
                item[0] == "lam" and self._forced(item[1])
                for item in callables
            )
            if self._get_bt(fn_id) is D or forced_lam_present:
                # Residual application.
                self._raise_bt(nid)
                self._demand(fn_id)
                for a in e.args:
                    self._demand(id(a))
                return
            for item in callables:
                if item[0] == "lam":
                    lam = self.node_of[item[1]]
                    for a, p in zip(e.args, lam.params):
                        self._flow_aval(id(a), p)
                        self._flow_bt(id(a), p)
                    self._flow_aval(id(lam.body), nid)
                    self._flow_bt(id(lam.body), nid)
                    if self._demanded(nid):
                        self._demand(id(lam.body))
                elif item[0] == "def":
                    f = item[1]
                    callee = self.defs[f]
                    decision = self.call_decision(host, f, e)
                    for a, p in zip(e.args, callee.params):
                        self._flow_aval(id(a), p)
                        self._flow_bt(id(a), p)
                    if decision == "memo":
                        self._memo_called(f)
                        self._raise_bt(nid)
                        for a, p in zip(e.args, callee.params):
                            if self._get_bt(p) is D:
                                self._demand(id(a))
                    else:
                        self._flow_aval(("result", f), nid)
                        self._flow_bt(("result", f), nid)
                        if self._demanded(nid):
                            self._demand(id(self.defs[f].body))
                elif item[0] == "prim":
                    spec = PRIMITIVES.get(item[1])
                    impure = spec is not None and not spec.pure
                    if impure or any(
                        self._get_bt(id(a)) is D for a in e.args
                    ):
                        self._raise_bt(nid)
                        for a in e.args:
                            self._demand(id(a))
            return

        raise BindingTimeError(
            f"analysis cannot handle {type(e).__name__} nodes"
        )


# -- polyvariant expansion ----------------------------------------------------------------

# Sentinel variant key for a function widened back to its monovariant join.
_WIDENED_KEY = ("widened",)

# Outer clone/retarget rounds before giving up and falling back to the
# monovariant division (the variant request set then failed to stabilise).
_MAX_POLY_ROUNDS = 12

#: Most variants the polyvariant division clones one function into; a
#: function requested under more abstract signatures is widened.
MAX_VARIANTS = 8


@dataclass(frozen=True)
class _Site:
    """One direct call to a top-level function, in a definition body."""

    host: Symbol
    app: App
    callee: Symbol
    key: tuple          # (argument-bt tuple, role) — the abstract signature
    path: str


def _sig_str(bts: Iterable[BindingTime]) -> str:
    return "".join(bt.value for bt in bts)


def _collect_sites(analysis: _Analysis) -> dict[Symbol, list[_Site]]:
    """Every direct def call site per host, keyed by abstract signature."""
    sites: dict[Symbol, list[_Site]] = {}

    def walk(host: Symbol, e: Expr, path: tuple[str, ...]) -> None:
        if isinstance(e, (Const, Var)):
            return
        if isinstance(e, Lam):
            walk(host, e.body, path + ("lam.body",))
            return
        if isinstance(e, Let):
            walk(host, e.rhs, path + ("let.rhs",))
            walk(host, e.body, path + ("let.body",))
            return
        if isinstance(e, If):
            walk(host, e.test, path + ("if.test",))
            walk(host, e.then, path + ("if.then",))
            walk(host, e.alt, path + ("if.alt",))
            return
        if isinstance(e, Prim):
            for i, a in enumerate(e.args):
                walk(host, a, path + (f"prim.arg{i}",))
            return
        if isinstance(e, App):
            if isinstance(e.fn, Var) and e.fn.name in analysis.defs:
                callee = e.fn.name
                decision = analysis.call_decision(host, callee, e)
                role = "residual" if decision == "memo" else "value"
                argsig = tuple(analysis._get_bt(id(a)) for a in e.args)
                sites.setdefault(host, []).append(
                    _Site(host, e, callee, (argsig, role), "/".join(path))
                )
            else:
                walk(host, e.fn, path + ("app.fn",))
            for i, a in enumerate(e.args):
                walk(host, a, path + (f"app.arg{i}",))
            return
        for i, c in enumerate(e.children()):
            walk(host, c, path + (f"child{i}",))

    for d in analysis.program.defs:
        sites.setdefault(d.name, [])
        walk(d.name, d.body, ())
    return sites


def _variant_name(
    origin: Symbol, keys: set, key: tuple, goal: Symbol, goal_key: tuple
) -> Symbol:
    """Deterministic clone name for ``origin`` under ``key``.

    The goal's residual variant — and any function with a single variant —
    keeps its bare name, so programs that are monovariant in practice
    come out of the polyvariant pass unchanged.
    """
    if len(keys) == 1:
        return origin
    if origin is goal and key == goal_key:
        return origin
    if key == _WIDENED_KEY:
        return sym(f"{origin}@mono")
    argsig, role = key
    tag = "r" if role == "residual" else "v"
    return sym(f"{origin}@{_sig_str(argsig)}{tag}")


def _key_order(key: tuple):
    if key == _WIDENED_KEY:
        return (0, "", "")
    argsig, role = key
    return (1, role, _sig_str(argsig))


def _clone_body(
    e: Expr,
    env: dict[Symbol, Symbol],
    gs: Gensym,
    site_target: dict[int, Symbol],
) -> Expr:
    """Copy ``e`` with fresh binders, retargeting direct def calls."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return Var(env.get(e.name, e.name))
    if isinstance(e, Lam):
        fresh = tuple(gs.fresh(p) for p in e.params)
        inner = {**env, **dict(zip(e.params, fresh))}
        return Lam(fresh, _clone_body(e.body, inner, gs, site_target))
    if isinstance(e, Let):
        rhs = _clone_body(e.rhs, env, gs, site_target)
        fresh_var = gs.fresh(e.var)
        inner = {**env, e.var: fresh_var}
        return Let(fresh_var, rhs, _clone_body(e.body, inner, gs, site_target))
    if isinstance(e, If):
        return If(
            _clone_body(e.test, env, gs, site_target),
            _clone_body(e.then, env, gs, site_target),
            _clone_body(e.alt, env, gs, site_target),
        )
    if isinstance(e, Prim):
        return Prim(
            e.op, tuple(_clone_body(a, env, gs, site_target) for a in e.args)
        )
    if isinstance(e, App):
        target = site_target.get(id(e))
        fn = (
            Var(target)
            if target is not None
            else _clone_body(e.fn, env, gs, site_target)
        )
        return App(
            fn, tuple(_clone_body(a, env, gs, site_target) for a in e.args)
        )
    raise BindingTimeError(
        f"polyvariant cloning cannot handle {type(e).__name__} nodes"
    )


def _polyvariant_solve(
    prepared: Program,
    signature: tuple[BindingTime, ...],
    memo: frozenset,
    unfold: frozenset,
) -> tuple[_Analysis, dict, frozenset, dict[Symbol, list[_Site]]]:
    """The outer clone/retarget fixpoint around :class:`_Analysis`.

    Returns the converged analysis (over the expanded variant program),
    the ``name -> VariantInfo`` map, the set of widened origins, and the
    analysis's call sites by host (see :func:`_collect_sites`).
    """
    goal = prepared.goal
    goal_key = (tuple(signature), "residual")
    origin_order = [d.name for d in prepared.defs]

    program = prepared
    origin_of = {name: name for name in origin_order}
    # origin -> {variant key (or None pre-analysis) -> def name}
    current: dict[Symbol, dict] = {name: {None: name} for name in origin_order}
    capped: set[Symbol] = set()
    gs = Gensym("v")

    for _round in range(_MAX_POLY_ROUNDS):
        analysis = _Analysis(program, signature, memo, unfold, origin_of)
        analysis.solve()

        sites_by_host = _collect_sites(analysis)

        # Worklist over donor bodies: which (origin, key) variants are
        # reachable from the goal?  Restart whenever an origin newly
        # overflows the cap (its keys collapse to the widened join).
        def donor_for(o: Symbol, k: tuple) -> Symbol:
            cur = current[o]
            if k in cur:
                return cur[k]
            for d in program.defs:   # first clone of o, in def order
                if origin_of[d.name] is o:
                    return d.name
            raise BindingTimeError(f"no clone of {o} to derive {k} from")

        while True:
            needed: dict[Symbol, set] = {}
            requesters: dict[tuple, list] = {}
            overflow = None
            work: list[tuple] = [(goal, goal_key, "<goal>")]
            seen: set[tuple] = set()
            while work:
                o, k, where = work.pop()
                if o in capped:
                    k = _WIDENED_KEY
                requesters.setdefault((o, k), []).append(where)
                if (o, k) in seen:
                    continue
                seen.add((o, k))
                needed.setdefault(o, set()).add(k)
                if len(needed[o]) > MAX_VARIANTS and o not in capped:
                    overflow = o
                    break
                for s in sites_by_host.get(donor_for(o, k), ()):
                    work.append(
                        (origin_of[s.callee], s.key, f"{s.host}:{s.path}")
                    )
            if overflow is None:
                break
            capped.add(overflow)

        # Name every needed variant.
        new_names: dict[Symbol, dict] = {
            o: {
                k: _variant_name(o, keys, k, goal, goal_key)
                for k in sorted(keys, key=_key_order)
            }
            for o, keys in needed.items()
        }

        def resolve(o: Symbol, k: tuple) -> Symbol:
            if o in capped:
                k = _WIDENED_KEY
            return new_names[o][k]

        # Converged when the clone name sets and every call-site target
        # in a surviving clone are already what we would rebuild.
        stable = {
            nm for km in new_names.values() for nm in km.values()
        } == {d.name for d in program.defs}
        if stable:
            for o, km in new_names.items():
                for k, nm in km.items():
                    for s in sites_by_host.get(nm, ()):
                        if s.callee is not resolve(origin_of[s.callee], s.key):
                            stable = False
        if stable:
            info = {
                nm: _variant_info(o, k, requesters.get((o, k), ()))
                for o, km in new_names.items()
                for k, nm in km.items()
            }
            return analysis, info, frozenset(capped), sites_by_host

        # Rebuild the variant program.
        defs = []
        origin_of_new: dict[Symbol, Symbol] = {}
        for o in origin_order:
            if o not in needed:
                continue
            for k, nm in new_names[o].items():
                donor = program.lookup(donor_for(o, k))
                site_target = {
                    id(s.app): resolve(origin_of[s.callee], s.key)
                    for s in sites_by_host.get(donor.name, ())
                }
                params = tuple(gs.fresh(p) for p in donor.params)
                env = dict(zip(donor.params, params))
                defs.append(
                    Def(nm, params, _clone_body(donor.body, env, gs, site_target))
                )
                origin_of_new[nm] = o
        program = Program(tuple(defs), goal)
        origin_of = origin_of_new
        current = new_names

    # The variant request set failed to stabilise: fall back to the
    # monovariant join for every function.
    analysis = _Analysis(prepared, signature, memo, unfold)
    analysis.solve()
    info = {
        name: VariantInfo(origin=name, signature="mono", role="widened")
        for name in origin_order
    }
    return analysis, info, frozenset(origin_order), _collect_sites(analysis)


def _variant_info(origin: Symbol, key: tuple, where: Iterable[str]) -> VariantInfo:
    call_sites = tuple(w for w in where if w != "<goal>")
    if key == _WIDENED_KEY:
        return VariantInfo(origin, "mono", "widened", call_sites)
    argsig, role = key
    return VariantInfo(origin, _sig_str(argsig), role, call_sites)


@traced("pe.bta")
def analyze(
    program: Program,
    signature: str | tuple[BindingTime, ...],
    memo_hints: Iterable[str | Symbol] = (),
    unfold_hints: Iterable[str | Symbol] = (),
    bta: str = "poly",
) -> BTAResult:
    """Run the front end and binding-time analysis; return annotated output.

    ``signature`` gives the binding time of each goal parameter, e.g.
    ``"SD"`` for a two-argument goal with a static first argument.
    ``bta`` selects the division discipline: ``"poly"`` (the default)
    clones functions per abstract call-site signature, bounded by
    :data:`MAX_VARIANTS` per function; ``"mono"`` computes the classic
    monovariant join division.
    """
    if bta not in ("mono", "poly"):
        raise BindingTimeError(f"unknown bta mode {bta!r} (use 'mono' or 'poly')")
    if isinstance(signature, str):
        signature = parse_signature(signature)
    prepared = prepare(program)
    memo = frozenset(sym(h) if isinstance(h, str) else h for h in memo_hints)
    unfold = frozenset(sym(h) if isinstance(h, str) else h for h in unfold_hints)
    variants: dict = {}
    widened: frozenset = frozenset()
    if bta == "poly":
        analysis, variants, widened, sites = _polyvariant_solve(
            prepared, signature, memo, unfold
        )
    else:
        analysis = _Analysis(prepared, signature, memo, unfold)
        analysis.solve()
        sites = _collect_sites(analysis)
    annotated = _annotate_program(analysis)
    division = {
        name: analysis._get_bt(name)
        for d in analysis.program.defs
        for name in d.params
    }
    decisions = {
        host: tuple(
            (s.path, s.callee, "memo" if s.key[1] == "residual" else "unfold")
            for s in host_sites
        )
        for host, host_sites in sites.items()
        if host_sites
    }
    lams = {
        id(node): LamSite(
            node=node,
            host=host,
            param_bts=tuple(analysis._get_bt(p) for p in node.params),
        )
        for node, host in analysis.ann_lams.values()
    }
    prepared_to_ann = {
        pid: id(node) for pid, (node, _) in analysis.ann_lams.items()
    }
    apps = {
        app_id: tuple(
            prepared_to_ann[pid] for pid in pids if pid in prepared_to_ann
        )
        for app_id, pids in analysis.ann_closure_apps.items()
    }
    return BTAResult(
        annotated=annotated,
        prepared=analysis.program,
        division=division,
        residual_defs=frozenset(
            d.name for d in annotated.defs if d.residual
        ),
        decisions=decisions,
        closure=ClosureInfo(lams=lams, apps=apps),
        mode=bta,
        variants=variants,
        widened=widened,
    )


# -- annotation ---------------------------------------------------------------------------


def _annotate_program(analysis: _Analysis) -> AnnotatedProgram:
    program = analysis.program
    reachable = _reachable_defs(program)
    ann_defs = []
    for d in program.defs:
        if d.name not in reachable:
            continue
        annotator = _Annotator(analysis, d.name)
        residual = analysis.is_residual(d.name)
        body = annotator.annotate(d.body, demand=residual)
        bts = tuple(analysis._get_bt(p) for p in d.params)
        ann_defs.append(AnnDef(d.name, d.params, bts, body, residual))
    return AnnotatedProgram(tuple(ann_defs), program.goal)


def _reachable_defs(program: Program) -> set[Symbol]:
    from repro.lang.ast import walk

    names = {d.name for d in program.defs}
    seen: set[Symbol] = set()
    work = [program.goal]
    while work:
        f = work.pop()
        if f in seen:
            continue
        seen.add(f)
        for node in walk(program.lookup(f).body):
            if isinstance(node, Var) and node.name in names:
                work.append(node.name)
    return seen


class _Annotator:
    """Produces ACS from the solved analysis."""

    def __init__(self, analysis: _Analysis, host: Symbol):
        self.a = analysis
        self.host = host

    def _is_dynamic(self, e: Expr) -> bool:
        return self.a._get_bt(id(e)) is D

    def _wrap(self, annotated: Expr, original: Expr, demand: bool) -> Expr:
        """Insert a lift when a static value sits in a code position."""
        if demand and not self._is_dynamic(original):
            return Lift(annotated)
        return annotated

    def annotate(self, e: Expr, demand: bool) -> Expr:
        a = self.a
        if isinstance(e, Const):
            return self._wrap(e, e, demand)

        if isinstance(e, Var):
            return self._wrap(e, e, demand)

        if isinstance(e, Lam):
            if id(e) in a.lam_forced:
                return DLam(e.params, self.annotate(e.body, demand=True))
            if demand:
                raise BindingTimeError(
                    "a static lambda reached a dynamic context without"
                    " being forced; analysis bug"
                )
            new = Lam(e.params, self.annotate(e.body, demand=False))
            a.ann_lams[id(e)] = (new, self.host)
            return new

        if isinstance(e, Let):
            return Let(
                e.var,
                self.annotate(e.rhs, demand=False),
                self.annotate(e.body, demand=demand),
            )

        if isinstance(e, If):
            if self._is_dynamic(e.test):
                return DIf(
                    self.annotate(e.test, demand=True),
                    self.annotate(e.then, demand=True),
                    self.annotate(e.alt, demand=True),
                )
            return If(
                self.annotate(e.test, demand=False),
                self.annotate(e.then, demand=demand),
                self.annotate(e.alt, demand=demand),
            )

        if isinstance(e, Prim):
            spec = PRIMITIVES.get(e.op)
            impure = spec is not None and not spec.pure
            any_dynamic = any(self._is_dynamic(x) for x in e.args)
            if impure or any_dynamic:
                return DPrim(
                    e.op,
                    tuple(self.annotate(x, demand=True) for x in e.args),
                )
            return self._wrap(
                Prim(e.op, tuple(self.annotate(x, demand=False) for x in e.args)),
                e,
                demand,
            )

        if isinstance(e, App):
            fn_id = id(e.fn)
            callables = a._avals(fn_id)
            forced_lam_present = any(
                item[0] == "lam" and item[1] in a.lam_forced
                for item in callables
            )
            if a._get_bt(fn_id) is D or forced_lam_present:
                return DApp(
                    self.annotate(e.fn, demand=True),
                    tuple(self.annotate(x, demand=True) for x in e.args),
                )
            defs_reached = [i[1] for i in callables if i[0] == "def"]
            if defs_reached:
                if len(callables) != 1:
                    raise BindingTimeError(
                        f"call site in {self.host} may reach several"
                        " targets including a top-level function; the"
                        " monovariant analysis cannot annotate it"
                    )
                f = defs_reached[0]
                decision = a.call_decision(self.host, f, e)
                callee = a.defs[f]
                if decision == "memo":
                    args = tuple(
                        self.annotate(x, demand=(a._get_bt(p) is D))
                        for x, p in zip(e.args, callee.params)
                    )
                    return MemoCall(f, args)
                return self._wrap(
                    App(
                        e.fn,
                        tuple(self.annotate(x, demand=False) for x in e.args),
                    ),
                    e,
                    demand,
                )
            # Static closure application (unfolding).
            new = App(
                self.annotate(e.fn, demand=False),
                tuple(self.annotate(x, demand=False) for x in e.args),
            )
            lam_ids = tuple(i[1] for i in callables if i[0] == "lam")
            if lam_ids:
                a.ann_closure_apps[id(new)] = lam_ids
            return self._wrap(new, e, demand)

        raise BindingTimeError(f"cannot annotate {type(e).__name__}")
