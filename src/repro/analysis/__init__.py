"""Whole-program static analyses over (annotated) Core Scheme.

The subsystem the PR-1 static layer was missing: PR 1 checks that an
annotated program is *congruent* (``pe/check.py``) and that generated
bytecode is *well-formed* (``vm/verify.py``); this package checks that
specializing the program *terminates with bounded output*.

Entry point::

    from repro.analysis import analyze_program
    report = analyze_program(program, "SD")
    if not report.safe:
        print(report)

Built from a shared fixpoint engine (:mod:`repro.analysis.fixpoint`),
the static call graph with argument bounds
(:mod:`repro.analysis.callgraph`), the size-change termination analysis
(:mod:`repro.analysis.termination`), and the code-bloat estimator
(:mod:`repro.analysis.bloat`).
"""

from __future__ import annotations

from typing import Iterable

from repro.obs import traced
from repro.lang.ast import Program

from repro.analysis.bloat import check_bloat
from repro.analysis.callgraph import CallGraph, build_callgraph
from repro.analysis.division import (
    DivisionReport,
    VariantQuality,
    compare_divisions,
)
from repro.analysis.report import (
    AnalysisFinding,
    AnalysisKind,
    AnalysisReport,
    UnsafeProgramError,
)
from repro.analysis.termination import check_termination

__all__ = [
    "AnalysisFinding",
    "AnalysisKind",
    "AnalysisReport",
    "CallGraph",
    "DivisionReport",
    "UnsafeProgramError",
    "VariantQuality",
    "analyze_bta",
    "analyze_program",
    "build_callgraph",
    "compare_divisions",
]


@traced("analysis.safety")
def analyze_bta(bta, division: "DivisionReport | None" = None) -> AnalysisReport:
    """Run both analyses on an already-computed BTA result.

    Under a polyvariant result the call graph — and therefore the
    size-change termination analysis — covers every function *variant*.
    ``division`` optionally attaches a precomputed division-quality
    report as a diagnostic.
    """
    graph = build_callgraph(bta)
    findings, memo_failures = check_termination(graph)
    bloat_findings, metrics = check_bloat(graph, memo_failures)
    return AnalysisReport(
        findings=tuple(findings) + tuple(bloat_findings),
        metrics=metrics,
        division=division,
    )


def analyze_program(
    program: Program | str,
    signature: str,
    goal: str | None = None,
    memo_hints: Iterable[str] = (),
    unfold_hints: Iterable[str] = (),
    with_division: bool = False,
) -> AnalysisReport:
    """BTA a program and run the specialization-safety analyses on it.

    The analyses run over the polyvariant division, the one a
    generating extension runs.  ``with_division`` additionally runs the
    monovariant baseline and attaches the :class:`DivisionReport`
    quality comparison.
    """
    from repro.lang.parser import parse_program
    from repro.pe.bta import analyze

    if isinstance(program, str):
        program = parse_program(program, goal=goal)
    hints = {"memo_hints": memo_hints, "unfold_hints": unfold_hints}
    result = analyze(program, signature, **hints)
    division = None
    if with_division:
        mono = analyze(program, signature, bta="mono", **hints)
        division = compare_divisions(result, mono)
    return analyze_bta(result, division=division)
