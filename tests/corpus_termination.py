"""A labelled corpus for the specialization-safety analyzer.

Every entry carries a ground-truth label: ``DIVERGING`` programs make
the Fig. 3 specializer diverge (infinite unfolding, or an unbounded
memo table), ``SAFE`` programs are look-alikes — often one token away
from a diverger — whose specialization terminates.  The analyzer must
separate the two sets exactly: flag every diverger with a cycle-path
diagnostic, report nothing on the safe set.

``static_args`` is a sample static input (Scheme data, as source text)
so runtime tests can drive each program through the specializer: safe
entries must reach a fixpoint within the runtime budgets, diverging
entries must trip them.  A safe entry's ``dynamic_args`` complete the
goal's arguments, so every route of ``tests/routes.py`` can run it.
Entries with ``runtime=False`` are analysis ground truth only — their
specialization trips a known binding-time infelicity of the seed BTA
(see the entry's note) rather than the property under test.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CorpusProgram:
    """One labelled corpus entry."""

    name: str
    source: str
    signature: str
    goal: str
    static_args: tuple = ()
    dynamic_args: tuple = ()
    memo_hints: tuple = ()
    unfold_hints: tuple = ()
    runtime: bool = True
    note: str = ""


DIVERGING: tuple[CorpusProgram, ...] = (
    CorpusProgram(
        name="count-up",
        source="(define (f s d) (if (null? d) s (f (+ s 1) (cdr d))))",
        signature="SD",
        goal="f",
        static_args=("0",),
        note="static counter grows at every memoized call: one residual"
        " variant per natural number",
    ),
    CorpusProgram(
        name="accumulate",
        source="(define (g s d) (if (null? d) s (g (cons 1 s) (cdr d))))",
        signature="SD",
        goal="g",
        static_args=("()",),
        note="static accumulator grows structurally without bound",
    ),
    CorpusProgram(
        name="num-descent-dynamic-guard",
        source="(define (down s d) (if (zero? d) s (down (- s 1) d)))",
        signature="SD",
        goal="down",
        static_args=("0",),
        note="the descending counter has no static bound: the dynamic"
        " guard cannot stop specialization, s runs to -infinity",
    ),
    CorpusProgram(
        name="poly-explosion",
        source="""
(define (poly s d)
  (if (null? d)
      s
      (if (car d)
          (poly (cons 1 s) (cdr d))
          (poly (cons 2 s) (cdr d)))))""",
        signature="SD",
        goal="poly",
        static_args=("()",),
        note="two growing memo sites: exponentially many variants",
    ),
    CorpusProgram(
        name="ping-pong",
        source="""
(define (ping s d) (if (null? d) s (pong (cons 1 s) (cdr d))))
(define (pong s d) (if (null? d) s (ping (cons 2 s) (cdr d))))""",
        signature="SD",
        goal="ping",
        static_args=("()",),
        note="the growth hides in a two-function cycle",
    ),
    CorpusProgram(
        name="spin-unfold-hint",
        source="(define (spin s d) (if (null? d) s (spin s (cdr d))))",
        signature="SD",
        goal="spin",
        static_args=("0",),
        unfold_hints=("spin",),
        note="safe when memoized (see spin-memo-safe); forcing the call"
        " to unfold makes it loop with nothing decreasing",
    ),
    CorpusProgram(
        name="lambda-self-app",
        source="""
(define (hof s d)
  (let ((h (lambda (f x) (if (null? x) s (f f (cdr x))))))
    (h h d)))""",
        signature="SD",
        goal="hof",
        static_args=("0",),
        note="self-applied static closure recursing on dynamic data:"
        " infinite unfolding through the closure cycle",
    ),
)


SAFE: tuple[CorpusProgram, ...] = (
    CorpusProgram(
        name="power",
        source="(define (power x n)"
        " (if (zero? n) 1 (* x (power x (- n 1)))))",
        signature="DS",
        goal="power",
        static_args=("5",),
        dynamic_args=("2",),
        note="static recursion under a static guard: the program's own"
        " termination carries over to specialization",
    ),
    CorpusProgram(
        name="spin-memo-safe",
        source="(define (spin s d) (if (null? d) s (spin s (cdr d))))",
        signature="SD",
        goal="spin",
        static_args=("0",),
        dynamic_args=("(1 2 3)",),
        note="the diverger's look-alike: s is passed unchanged, so the"
        " memo table has exactly one entry and cuts the cycle",
    ),
    CorpusProgram(
        name="lambda-safe",
        source="""
(define (hof2 s d)
  (let ((h (lambda (f x) (if (null? x) 0 (f f (cdr x))))))
    (+ (h h s) d)))""",
        signature="SD",
        goal="hof2",
        static_args=("(1 2 3)",),
        dynamic_args=("4",),
        note="the same self-application pattern, recursing on *static*"
        " data: structural descent proves it",
    ),
    CorpusProgram(
        name="ackermann",
        source="""
(define (ack m n)
  (if (zero? m)
      (+ n 1)
      (if (zero? n)
          (ack (- m 1) 1)
          (ack (- m 1) (ack m (- n 1))))))""",
        signature="SS",
        goal="ack",
        static_args=("2", "3"),
        note="fully static: every conditional is decided at"
        " specialization time, no cycle sits under dynamic control."
        " The polyvariant BTA splits the residual goal (whose branches"
        " must lift) from an all-static value variant for the inner"
        " recursive calls, so specialization folds the whole tower to a"
        " constant; the monovariant join instead forces the lifted"
        " (dynamic) recursion result into a static parameter and dies"
        " with a BindingTimeError — pinned in test_bta.py",
    ),
    CorpusProgram(
        name="triangle-static",
        source="(define (tri s acc)"
        " (if (zero? s) acc (tri (- s 1) (+ acc s))))",
        signature="SS",
        goal="tri",
        static_args=("4", "0"),
        note="fully static tail recursion: specialization runs the"
        " whole computation and residualizes a constant",
    ),
    CorpusProgram(
        name="guarded-countdown",
        source="(define (cd s d) (if (zero? s) d (cd (- s 1) (cdr d))))",
        signature="SD",
        goal="cd",
        static_args=("3",),
        dynamic_args=("(1 2 3 4)",),
        note="the num-descent look-alike with the guard on the *static*"
        " side: the descent is bounded",
    ),
    CorpusProgram(
        name="rev-static-accum",
        source="(define (rev s acc d)"
        " (if (null? s) (cons acc d)"
        " (rev (cdr s) (cons (car s) acc) d)))",
        signature="SSD",
        goal="rev",
        static_args=("(1 2 3)", "()"),
        dynamic_args=("(9)",),
        note="one static grows, but only by the substructure the other"
        " loses: total static size is conserved",
    ),
)
