"""Specialization-termination analysis (size-change style).

Two ways the Fig. 3 specializer can fail to terminate, two criteria:

**T1 — infinite unfolding.**  Static calls (unfolds of top-level
functions and static closures) are inlined unconditionally, so a cycle
of unfold edges is only safe if something shrinks around it.  Following
size-change termination, each unfold edge is abstracted to a graph of
arcs between static parameters; the set of composed graphs is closed
under composition; and every *idempotent* cyclic composed graph must
carry a strictly decreasing self-arc (structural descent, or guarded
numeric descent toward a static bound).  Otherwise the specializer may
unfold forever, and we report ``possible-infinite-specialization``.

**T2 — unbounded memo specialization.**  Specialization points
(``MemoCall``) are memoized, so repetition is cut — but only if the
static arguments range over a *finite* set.  Cycles here are the
residual-level memo summary edges of the call graph; the criterion is
quasi-termination: in every idempotent cyclic composed graph, every
static parameter of the specialization point must have *some* incoming
bound (equal, descending, size-bounded, constant, or guarded-numeric).
A parameter with no bound can take unboundedly many values — the memo
table grows without bound and so does the residual program.

Cycles none of whose edges sit under dynamic control are suppressed:
specializing them diverges only if the source program itself diverges
on its static data (the standard offline-PE assumption; the ISSUE and
the paper both scope the guarantee to cycles reachable under dynamic
control).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.analysis.callgraph import Bound, CallEdge, CallGraph, NumBound
from repro.analysis.fixpoint import close_arrows
from repro.analysis.report import AnalysisFinding, AnalysisKind
from repro.pe.bta import strongly_connected_components

# Arc relations, finite by construction:
#   eq     value equal to the source parameter
#   down   structurally strictly smaller (substructure descent)
#   le     size bounded by the source parameter (or a fixed literal set)
#   const  drawn from a finite set independent of the source
#   numdg  numeric, strictly decreasing, under a static guard
#   numcg  numeric, changed by a constant offset, under a static guard
_STRICT = frozenset({"down", "numdg"})


def classify(bound: Any, static_params: Iterable) -> tuple:
    """Abstract an argument bound into size-change arcs.

    Returns ``(rel, src_param)`` tuples; ``("const", None)`` for
    source-independent finite sets; ``()`` when nothing can be said
    (the argument may range over unboundedly many values).
    """
    statics = set(static_params)
    if isinstance(bound, NumBound):
        if bound.param not in statics:
            return ()
        if bound.delta == 0:
            if not bound.path:
                return (("eq", bound.param),)
            return (("down", bound.param),)
        if bound.path:
            return ()
        rel = "numdg" if bound.delta < 0 else "numcg"
        return ((rel, bound.param),)
    if not isinstance(bound, Bound):
        return ()
    if not bound.terms:
        return (("const", None),)
    params = {p for p, _, _ in bound.terms}
    if len(params) != 1 or not params <= statics:
        return ()
    (param,) = params
    if len(bound.terms) == 1:
        _, path, exact = bound.terms[0]
        depth = len(path)
        if exact and not path and bound.const == 0 and not bound.literal:
            return (("eq", param),)
        if depth > bound.const and not bound.literal:
            return (("down", param),)
        if depth >= bound.const:
            return (("le", param),)
        return ()
    # Several terms: sound only when they name pairwise-disjoint exact
    # substructures; the nodes excluded from the union of their
    # subtrees (the distinct proper prefixes) pay for the construction.
    paths = [path for _, path, _ in bound.terms]
    if any(not exact for _, _, exact in bound.terms):
        return ()
    if any(not path for path in paths):
        return ()  # a root term overlaps everything
    for i, a in enumerate(paths):
        for b in paths[i + 1:]:
            if a[: len(b)] == b or b[: len(a)] == a:
                return ()  # overlapping (or duplicate) substructures
    prefixes = {path[:k] for path in paths for k in range(len(path))}
    excluded = len(prefixes)
    if excluded > bound.const and not bound.literal:
        return (("down", param),)
    if excluded >= bound.const:
        return (("le", param),)
    return ()


def _compose_rel(r1: str, r2: str) -> str | None:
    """Relation of ``q`` to ``p`` given ``m r1 p`` and ``q r2 m``."""
    if r1 == "const":
        # Any of our relations applied to a finite set yields a finite set.
        return "const"
    if r1 == "eq":
        return r2
    if r2 == "eq":
        return r1
    structural = {"down", "le"}
    if r1 in structural and r2 in structural:
        return "down" if "down" in (r1, r2) else "le"
    numeric = {"numdg", "numcg"}
    if r1 in numeric and r2 in numeric:
        return "numdg" if r1 == r2 == "numdg" else "numcg"
    return None


@dataclass(frozen=True, slots=True)
class SCG:
    """A (possibly composed) size-change graph between two nodes."""

    src: str
    dst: str
    arcs: frozenset  # of (dst_param, rel, src_param | None)
    under_dynamic: bool


def _edge_scg(edge: CallEdge, graph: CallGraph) -> SCG:
    src_node = graph.nodes[edge.src]
    arcs = set()
    for param, bound in edge.args:
        for rel, source in classify(bound, src_node.static_params):
            if rel in ("numdg", "numcg") and not edge.static_guarded:
                continue  # unguarded numeric change: unbounded
            arcs.add((param, rel, source))
    return SCG(
        src=edge.src,
        dst=edge.dst,
        arcs=frozenset(arcs),
        under_dynamic=edge.under_dynamic,
    )


def _compose(g1: SCG, by_param: dict, g2: SCG) -> SCG:
    """``g1`` then ``g2``; ``by_param`` indexes ``g1``'s arcs as
    ``dst_param -> [(rel, src_param)]``."""
    arcs = set()
    for q, rel2, m in g2.arcs:
        if rel2 == "const":
            arcs.add((q, "const", None))
            continue
        for rel1, p in by_param.get(m, ()):
            rel = _compose_rel(rel1, rel2)
            if rel is not None:
                arcs.add((q, rel, None if rel == "const" else p))
    return SCG(
        src=g1.src,
        dst=g2.dst,
        arcs=frozenset(arcs),
        under_dynamic=g1.under_dynamic or g2.under_dynamic,
    )


def _idempotent_cycles(edges: list, graph: CallGraph) -> list:
    """Every idempotent cyclic composed graph under dynamic control,
    each with one witness edge sequence.

    Every edge of a cycle, and so of every composite a cyclic graph is
    built from, lies in one strongly connected component of the edge
    graph: only those edges seed the closure.  The arc index of a
    graph is memoized on its arc set for this call (arc sets repeat
    heavily across composed graphs).
    """
    successors: dict[str, set] = {}
    for edge in edges:
        successors.setdefault(edge.src, set()).add(edge.dst)
        successors.setdefault(edge.dst, set())
    component = {
        node: i
        for i, members in enumerate(strongly_connected_components(successors))
        for node in members
    }
    indexes: dict[frozenset, dict] = {}

    def compose(a: SCG, b: SCG) -> SCG:
        by_param = indexes.get(a.arcs)
        if by_param is None:
            by_param = indexes[a.arcs] = {}
            for q, rel, p in a.arcs:
                by_param.setdefault(q, []).append((rel, p))
        return _compose(a, by_param, b)

    witness: dict[SCG, tuple] = {}
    seeds = []
    for edge in edges:
        if component[edge.src] == component[edge.dst]:
            g = _edge_scg(edge, graph)
            seeds.append(g)
            witness.setdefault(g, (edge,))

    def combine(a: SCG, b: SCG) -> SCG:
        g = compose(a, b)
        if g not in witness:
            witness[g] = witness[a] + witness[b]
        return g

    closed = close_arrows(
        seeds, lambda g: g.src, lambda g: g.dst, combine
    )
    return [
        (g, witness[g])
        for g in closed
        if g.src == g.dst and g.under_dynamic and compose(g, g) == g
    ]


def _cycle_lines(edges: tuple) -> tuple:
    return tuple(e.describe() for e in edges)


def check_unfolding(graph: CallGraph) -> list:
    """T1: every idempotent cyclic unfold graph needs a strict self-arc."""
    unfold = [e for e in graph.unfold_edges if e.kind in ("unfold", "closure")]
    findings = []
    seen_cycles = set()
    for g, edges in _idempotent_cycles(unfold, graph):
        if any(q == p and rel in _STRICT for q, rel, p in g.arcs):
            continue
        cycle_key = tuple(sorted((e.src, e.dst, e.sites) for e in edges))
        if cycle_key in seen_cycles:
            continue
        seen_cycles.add(cycle_key)
        first = edges[0]
        findings.append(
            AnalysisFinding(
                kind=AnalysisKind.POSSIBLE_INFINITE_SPECIALIZATION,
                def_name=g.src,
                path=first.sites[0],
                message=(
                    "unfolding may not terminate: no static argument"
                    " strictly decreases around this cycle of unfold"
                    " calls reachable under dynamic control"
                ),
                cycle=_cycle_lines(edges),
            )
        )
    return findings


@dataclass(frozen=True, slots=True)
class MemoCycleFailure:
    """A memo cycle along which some static parameters are unbounded."""

    def_name: str
    params: tuple  # unbounded static parameter names (str)
    path: str
    cycle: tuple  # witness edge descriptions


def check_memo_growth(graph: CallGraph) -> list:
    """T2: every static parameter needs a bound around every memo cycle."""
    failures = []
    seen = set()
    for g, edges in _idempotent_cycles(graph.memo_edges, graph):
        node = graph.nodes[g.src]
        bounded = {q for q, _, _ in g.arcs}
        missing = tuple(
            str(p) for p in node.static_params if p not in bounded
        )
        if not missing:
            continue
        key = (g.src, missing)
        if key in seen:
            continue
        seen.add(key)
        first = edges[0]
        failures.append(
            MemoCycleFailure(
                def_name=g.src,
                params=missing,
                path=first.sites[0],
                cycle=_cycle_lines(edges),
            )
        )
    return failures


def check_termination(graph: CallGraph) -> tuple[list, list]:
    """Run both criteria.

    Returns ``(findings, memo_failures)``: T1 findings plus T2 findings
    as :class:`AnalysisFinding`, and the raw
    :class:`MemoCycleFailure` list for the code-bloat analysis.
    """
    findings = check_unfolding(graph)
    memo_failures = check_memo_growth(graph)
    for fail in memo_failures:
        findings.append(
            AnalysisFinding(
                kind=AnalysisKind.POSSIBLE_INFINITE_SPECIALIZATION,
                def_name=fail.def_name,
                path=fail.path,
                message=(
                    "specialization may build unboundedly many variants"
                    f" of {fail.def_name}: static parameter(s)"
                    f" {', '.join(fail.params)} have no bound around"
                    " this cycle of specialization points"
                ),
                cycle=fail.cycle,
            )
        )
    return findings, memo_failures
