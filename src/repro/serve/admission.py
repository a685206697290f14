"""Admission control for the specialization service.

Untrusted callers hand the server arbitrary programs to specialize, and
specialization is a fixpoint computation that need not terminate — the
exact threat the PR-4 safety analyzer (size-change termination +
quasi-termination + bloat bounds, :mod:`repro.analysis`) was built to
rule out statically.  The analyzer needs a binding-time division, and
the generating extension the server builds for a program already holds
one (``ext.bta``), so admission analyzes that division instead of
running a BTA of its own: each admitted program costs one BTA.

The admission controller caches the verdict by *program digest*, so a
tenant re-submitting the same program (the common case — the whole point
of the service is re-application) pays for the analysis exactly once per
server lifetime, and a cached unsafe verdict turns an untrusted tenant
away before anything is built.

Policy is the server's: tenants marked trusted get ``"warn"`` semantics
(findings are reported in the response, specialization proceeds under
the runtime unfold/size budgets), untrusted tenants get ``"forbid"``
(an ``ADMISSION_DENIED`` error frame, nothing is specialized).  Either
way the runtime budgets stay on as the dynamic backstop.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Any, Iterable

from repro import obs
from repro.analysis import AnalysisReport, analyze_bta
from repro.pe.bta import BTAResult

#: Most verdicts the cache holds; on overflow the older half is dropped.
MAX_VERDICTS = 1024


def program_admission_digest(
    program_text: str,
    signature: str,
    goal: str | None,
    memo_hints: Iterable[str] = (),
    unfold_hints: Iterable[str] = (),
) -> str:
    """A stable identity for an admission question.

    Hashes everything the analyzer's verdict depends on: the program
    *text* (pre-parse — two textually equal submissions are the same
    question), the binding-time signature, the goal and the hints.  The
    verdict is computed over the extension's polyvariant variant graph.
    """
    h = hashlib.sha256()
    h.update(b"repro-admission-v3\x00")
    for part in (program_text, signature, goal or ""):
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    for hint in sorted(memo_hints):
        h.update(b"m:" + hint.encode("utf-8") + b"\x00")
    for hint in sorted(unfold_hints):
        h.update(b"u:" + hint.encode("utf-8") + b"\x00")
    return h.hexdigest()


class AdmissionController:
    """A cache of specialization-safety verdicts, keyed by digest.

    The key is :func:`program_admission_digest`, shared across tenants —
    a verdict is a property of the (program, signature, hints) triple,
    not of who asked.  Thread-safe; concurrent first requests for one
    digest may race the analysis, which is harmless (same verdict, last
    writer wins).  Its counters reach ``obs`` as
    ``serve.admission.<key>``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._verdicts: dict[str, AnalysisReport] = {}
        self.metrics = obs.Counters(
            "serve.admission", ("analyzed", "cache_hits", "denied")
        )

    def lookup(self, digest: str) -> AnalysisReport | None:
        """The cached verdict for an admission question, if any; the
        server asks this before it builds anything."""
        with self._lock:
            report = self._verdicts.get(digest)
        if report is not None:
            self.metrics.count("cache_hits")
        return report

    def check(self, digest: str, bta: BTAResult) -> AnalysisReport:
        """Analyze ``bta`` (the division of the extension just built for
        an uncached ``digest``) and cache the verdict."""
        with obs.span("serve.admission.analyze", digest=digest[:12]):
            report = analyze_bta(bta)
        self.metrics.count("analyzed")
        with self._lock:
            if len(self._verdicts) >= MAX_VERDICTS:
                # Verdict cache overflow: drop the oldest insertions.
                # Correctness is unaffected — a dropped verdict is
                # simply re-analyzed on its next request.
                for stale in list(self._verdicts)[: MAX_VERDICTS // 2]:
                    del self._verdicts[stale]
            self._verdicts[digest] = report
        return report

    def verdict(self, digest: str) -> AnalysisReport | None:
        """The cached verdict, if any, read for a response (not an
        admission question, so not counted)."""
        with self._lock:
            return self._verdicts.get(digest)

    def record_denial(self) -> None:
        self.metrics.count("denied")

    def stats(self) -> dict[str, Any]:
        with self._lock:
            cached = len(self._verdicts)
        return {"cached_verdicts": cached, **self.metrics.snapshot()}
