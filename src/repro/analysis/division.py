"""Division-quality analysis: polyvariant vs. monovariant divisions.

A binding-time division can be *congruent* (``pe/check.py``) and *safe*
(``analysis/termination.py``) and still be needlessly imprecise: the
monovariant join gives every function one division, so a single dynamic
call site poisons every static use of a shared helper — static values
get lifted into residual code (a "spurious lift"), static parameters
get dynamized, and calls that could unfold at specialization time are
memoized instead.

This module measures that imprecision.  It compares the polyvariant
division (:func:`repro.pe.bta.analyze`, the one every generating
extension runs) against the monovariant baseline of the *same* program
and reports, per function variant:

* **recovered parameters** — parameters static under the variant's
  division but dynamic under the monovariant join;
* **spurious lifts removed** — lift sites present in the monovariant
  annotation of the origin with no counterpart in the variant (the
  static value no longer needs to enter residual code);
* **classification and call-site decision deltas** — origin functions
  that flip between memoized and unfolded, and per-call-site
  unfold/memo decisions that change, relative to the baseline.

Lift sites are compared by *annotation-neutral* expression paths: the
walk uses one segment vocabulary for the static and dynamic flavor of
each construct (``if.test`` for both ``if`` and ``if^D``, ``call.arg0``
for unfold calls and memoized calls alike) and steps through ``lift``
transparently, so the mono and poly annotations of one source body
yield comparable paths even though their node types differ.

Everything here is a diagnostic, never a safety finding: a report with
zero recovered parameters just means the program was monovariant-clean
to begin with.  :func:`repro.analysis.analyze_program` with
``with_division=True`` runs both analyses and attaches the report
(``python -m repro analyze FILE --sig SIG --division``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

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

S = BindingTime.STATIC
D = BindingTime.DYNAMIC


@dataclass(frozen=True, slots=True)
class VariantQuality:
    """The quality delta of one polyvariant function variant vs. mono."""

    name: str                 # the variant's def name in the poly program
    origin: str               # the source function it was cloned from
    display: str              # "origin@SDr" (or the bare name for the goal)
    signature: str            # per-variant S/D parameter signature
    role: str                 # "residual" | "value" | "widened"
    mono_signature: str       # the monovariant join's signature for origin
    recovered_params: tuple   # of str: static here, dynamic under mono
    spurious_lifts_removed: tuple  # of str: mono lift paths gone here
    lifts_introduced: tuple   # of str: lift paths only the variant has
    lift_sites: tuple         # of str: the variant's own lift paths
    classification_delta: str | None  # e.g. "memo -> unfold", else None
    decision_deltas: tuple    # of (path, callee_origin, mono, poly)
    call_sites: tuple         # of str: call sites that created the variant

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "origin": self.origin,
            "display": self.display,
            "signature": self.signature,
            "role": self.role,
            "mono_signature": self.mono_signature,
            "recovered_params": list(self.recovered_params),
            "spurious_lifts_removed": list(self.spurious_lifts_removed),
            "lifts_introduced": list(self.lifts_introduced),
            "lift_sites": list(self.lift_sites),
            "classification_delta": self.classification_delta,
            "decision_deltas": [list(d) for d in self.decision_deltas],
            "call_sites": list(self.call_sites),
        }


@dataclass(frozen=True)
class DivisionReport:
    """The division-quality comparison for one program/signature pair."""

    goal: str
    signature: str
    variants: tuple = ()          # of VariantQuality, def order
    widened: tuple = ()           # origins that overflowed the variant cap

    @property
    def recovered_param_count(self) -> int:
        return sum(len(v.recovered_params) for v in self.variants)

    @property
    def spurious_lift_count(self) -> int:
        return sum(len(v.spurious_lifts_removed) for v in self.variants)

    @property
    def decision_delta_count(self) -> int:
        return sum(len(v.decision_deltas) for v in self.variants) + sum(
            1 for v in self.variants if v.classification_delta
        )

    @property
    def improved(self) -> bool:
        """Did polyvariance sharpen the division at all?"""
        return bool(
            self.recovered_param_count
            or self.spurious_lift_count
            or self.decision_delta_count
        )

    def __str__(self) -> str:
        lines = [
            f"division quality for {self.goal} [{self.signature}]:"
            f" {len(self.variants)} variant(s),"
            f" {self.recovered_param_count} recovered static parameter(s),"
            f" {self.spurious_lift_count} spurious lift(s) removed,"
            f" {self.decision_delta_count} unfold/memo decision delta(s)"
        ]
        for v in self.variants:
            marks = []
            if v.recovered_params:
                marks.append(
                    "recovered " + ", ".join(map(str, v.recovered_params))
                )
            if v.spurious_lifts_removed:
                marks.append(
                    f"{len(v.spurious_lifts_removed)} lift(s) removed"
                )
            if v.classification_delta:
                marks.append(v.classification_delta)
            for path, callee, mono, poly in v.decision_deltas:
                marks.append(f"{callee} at {path}: {mono} -> {poly}")
            note = f" ({'; '.join(marks)})" if marks else ""
            lines.append(
                f"  {v.display} [{v.signature}]"
                f" vs mono [{v.mono_signature}]{note}"
            )
        for o in self.widened:
            lines.append(f"  {o}: widened to the monovariant join (cap hit)")
        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        return {
            "goal": self.goal,
            "signature": self.signature,
            "improved": self.improved,
            "recovered_params": self.recovered_param_count,
            "spurious_lifts_removed": self.spurious_lift_count,
            "decision_deltas": self.decision_delta_count,
            "widened": list(self.widened),
            "variants": [v.to_json() for v in self.variants],
        }


# -- annotation-neutral lift-site paths ----------------------------------------------


def lift_sites(body) -> tuple:
    """Annotation-neutral paths of every ``lift`` in an annotated body."""
    out: list[str] = []
    _walk_lifts(body, (), out)
    return tuple(out)


def _walk_lifts(e, path: tuple, out: list) -> None:
    if isinstance(e, Lift):
        out.append("/".join(path) or "<body>")
        # Transparent: the lifted expression keeps this path.
        _walk_lifts(e.expr, path, out)
        return
    if isinstance(e, (Const, Var)):
        return
    if isinstance(e, (Lam, DLam)):
        _walk_lifts(e.body, path + ("lam.body",), out)
        return
    if isinstance(e, Let):
        _walk_lifts(e.rhs, path + ("let.rhs",), out)
        _walk_lifts(e.body, path + ("let.body",), out)
        return
    if isinstance(e, (If, DIf)):
        _walk_lifts(e.test, path + ("if.test",), out)
        _walk_lifts(e.then, path + ("if.then",), out)
        _walk_lifts(e.alt, path + ("if.alt",), out)
        return
    if isinstance(e, (Prim, DPrim)):
        for i, a in enumerate(e.args):
            _walk_lifts(a, path + (f"prim.arg{i}",), out)
        return
    if isinstance(e, (App, DApp)):
        _walk_lifts(e.fn, path + ("call.fn",), out)
        for i, a in enumerate(e.args):
            _walk_lifts(a, path + (f"call.arg{i}",), out)
        return
    if isinstance(e, MemoCall):
        for i, a in enumerate(e.args):
            _walk_lifts(a, path + (f"call.arg{i}",), out)
        return
    for i, c in enumerate(e.children()):
        _walk_lifts(c, path + (f"child{i}",), out)


# -- the comparison ------------------------------------------------------------------


def _sig(bts: Iterable[BindingTime]) -> str:
    return "".join(bt.value for bt in bts)


def compare_divisions(poly: BTAResult, mono: BTAResult) -> DivisionReport:
    """Compare an already-computed poly result against its mono baseline."""
    mono_defs = {d.name: d for d in mono.annotated.defs}
    mono_decisions = {
        host: {(path, callee): dec for path, callee, dec in sites}
        for host, sites in mono.decisions.items()
    }
    qualities = []
    for d in poly.annotated.defs:
        info = poly.variants[d.name]
        origin = info.origin
        md = mono_defs.get(origin)
        if md is None:
            continue  # unreachable under mono: nothing to compare against
        mono_lifts = lift_sites(md.body)
        poly_lifts = lift_sites(d.body)
        removed = tuple(_multiset_diff(mono_lifts, poly_lifts))
        introduced = tuple(_multiset_diff(poly_lifts, mono_lifts))
        recovered = tuple(
            # Strip the alpha-renaming suffix: report source param names.
            str(mp).split("%")[0]
            for mp, mb, pb in zip(md.params, md.bts, d.bts)
            if pb is S and mb is D
        )
        delta = None
        if md.residual != d.residual:
            old = "memo" if md.residual else "unfold"
            new = "memo" if d.residual else "unfold"
            delta = f"{old} -> {new}"
        mono_dec = mono_decisions.get(origin, {})
        deltas = []
        for path, callee, dec in poly.decisions.get(d.name, ()):
            key = (path, poly.origin_of(callee))
            before = mono_dec.get(key)
            if before is not None and before != dec:
                deltas.append((path, str(key[1]), before, dec))
        qualities.append(
            VariantQuality(
                name=str(d.name),
                origin=str(origin),
                display=info.display,
                signature=_sig(d.bts),
                role=info.role,
                mono_signature=_sig(md.bts),
                recovered_params=recovered,
                spurious_lifts_removed=removed,
                lifts_introduced=introduced,
                lift_sites=poly_lifts,
                classification_delta=delta,
                decision_deltas=tuple(deltas),
                call_sites=tuple(info.call_sites),
            )
        )
    return DivisionReport(
        goal=str(poly.annotated.goal),
        signature=_sig(
            poly.annotated.lookup(poly.annotated.goal).bts
        ),
        variants=tuple(qualities),
        widened=tuple(str(o) for o in sorted(poly.widened, key=str)),
    )


def _multiset_diff(a: tuple, b: tuple) -> list:
    """Elements of ``a`` not matched (with multiplicity) in ``b``."""
    from collections import Counter

    remaining = Counter(b)
    out = []
    for x in a:
        if remaining[x] > 0:
            remaining[x] -= 1
        else:
            out.append(x)
    return out
