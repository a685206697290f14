"""Pins of the binding-time analysis output.

Every input below is analysed under ``bta="mono"`` and ``bta="poly"``;
the rendered result (per definition: name, parameter binding times,
residual flag and the annotated body; the sorted variants, widened
origins and call-site decisions) is hashed with SHA-256 and compared
with the digest checked in at ``bta_pins.json``.  A change to the
analysis's schedule or data structures must leave every digest as it
is; a change that means to alter a division regenerates the file and
says why.  The same inputs also check the solver's internal state
against a schedule that re-walks every definition after any change,
and against a walk that pushes demand only after it has descended.

Regenerate with ``PYTHONPATH=src python -m tests.test_bta_pins --write``
from the repository root.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

import pytest

from repro.lang import If, Lam, Let, parse_program, unparse
from repro.pe import BindingTime, BindingTimeError, analyze
from repro.pe.bta import _Analysis
from repro.sexp.writer import write
from tests.corpus_termination import DIVERGING, SAFE
from tests.strategies import (
    GUARDED_DESCENT_FILLERS,
    GUARDED_DESCENT_SHAPES,
    guarded_descent_source,
)

PINS = Path(__file__).with_name("bta_pins.json")
D = BindingTime.DYNAMIC
MODES = ("mono", "poly")

# The higher-order shapes of test_bta.py: closures through static and
# dynamic containers, and the application of a dynamic closure.
_HIGHER_ORDER = {
    "static-container": """
        (define (f d)
          (let ((env (cons (lambda () d) '())))
            (let ((th (car env)))
              (th))))""",
    "dynamic-container": """
        (define (f d)
          (let ((env (cons (lambda () (+ d 1)) d)))
            (let ((th (car env)))
              (th))))""",
    "dynamic-closure-app": """
        (define (f d)
          (let ((g (if (zero? d) (lambda (x) x) (lambda (x) (+ x 1)))))
            (g d)))""",
}


def _inputs() -> dict:
    """label -> (program, signature, memo hints, unfold hints)."""
    from repro.__main__ import _builtin_targets

    cases = {}
    for label, program, sig, goal in _builtin_targets("all"):
        if isinstance(program, str):
            program = parse_program(program, goal=goal)
        cases[label] = (program, sig, (), ())
    for entry in DIVERGING + SAFE:
        cases[f"corpus:{entry.name}"] = (
            parse_program(entry.source, goal=entry.goal),
            entry.signature,
            entry.memo_hints,
            entry.unfold_hints,
        )
    for shape in GUARDED_DESCENT_SHAPES:
        for filler in GUARDED_DESCENT_FILLERS:
            src, sig, goal = guarded_descent_source(shape, filler)
            cases.setdefault(
                f"descent:{shape}:{filler}",
                (parse_program(src, goal=goal), sig, (), ()),
            )
    for name, src in _HIGHER_ORDER.items():
        cases[f"higher-order:{name}"] = (parse_program(src), "D", (), ())
    return cases


def render(program, sig, memo, unfold, mode: str) -> str:
    """The analysis result as text; an analysis error renders as itself."""
    try:
        res = analyze(
            program, sig, memo_hints=memo, unfold_hints=unfold, bta=mode
        )
    except BindingTimeError as exc:
        return f"error {type(exc).__name__}: {exc}\n"
    lines = []
    for d in res.annotated.defs:
        bts = "".join(bt.value for bt in d.bts)
        lines.append(f"def {d.name} {bts} {d.residual} {write(unparse(d.body))}")
    for name, info in sorted(res.variants.items(), key=lambda kv: str(kv[0])):
        lines.append(f"variant {name} {info.signature} {info.role}")
    lines.append("widened " + " ".join(sorted(str(o) for o in res.widened)))
    for host, decs in sorted(res.decisions.items(), key=lambda kv: str(kv[0])):
        for path, callee, decision in decs:
            lines.append(f"decision {host} {path} {callee} {decision}")
    return "\n".join(lines) + "\n"


_CASES = _inputs()


def digests() -> dict[str, str]:
    return {
        f"{mode}:{label}": hashlib.sha256(
            render(*case, mode).encode()
        ).hexdigest()
        for label, case in _CASES.items()
        for mode in MODES
    }


_PINNED = json.loads(PINS.read_text()) if PINS.exists() else {}


def test_every_input_is_pinned():
    assert sorted(_PINNED) == sorted(
        f"{mode}:{label}" for label in _CASES for mode in MODES
    )


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("label", sorted(_CASES))
def test_analysis_matches_pin(label, mode):
    text = render(*_CASES[label], mode)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == _PINNED[f"{mode}:{label}"], text


class _FullSweep(_Analysis):
    """The reference schedule: any growth re-walks every definition,
    whatever it read."""

    def _grew(self, facts, key):
        super()._grew(facts, key)
        self._dirty.update(self.defs)


class _PostOrderWalk(_Analysis):
    """The reference walk order: a lambda, let or if pushes demand to
    its body or branches only after walking them, so demand moves down
    one nesting level per round."""

    def _analyze(self, e, host):
        nid = id(e)
        if isinstance(e, Lam):
            self.node_of[nid] = e
            self._add_aval(nid, ("lam", nid))
            self._analyze(e.body, host)
            if self._forced(nid):
                self._raise_bt(nid)
                self._demand(id(e.body))
        elif isinstance(e, Let):
            self.node_of[nid] = e
            self._analyze(e.rhs, host)
            self._analyze(e.body, host)
            self._flow_aval(id(e.rhs), e.var)
            self._flow_bt(id(e.rhs), e.var)
            self._flow_aval(id(e.body), nid)
            self._flow_bt(id(e.body), nid)
            if self._demanded(nid):
                self._demand(id(e.body))
        elif isinstance(e, If):
            self.node_of[nid] = e
            self._analyze(e.test, host)
            self._analyze(e.then, host)
            self._analyze(e.alt, host)
            for br in (e.then, e.alt):
                self._flow_aval(id(br), nid)
                self._flow_bt(id(br), nid)
            if self._get_bt(id(e.test)) is D:
                self._raise_bt(nid)
                self._demand(id(e.test))
                self._demand(id(e.then))
                self._demand(id(e.alt))
            elif self._demanded(nid):
                self._demand(id(e.then))
                self._demand(id(e.alt))
        else:
            super()._analyze(e, host)


def _state(analysis: _Analysis) -> tuple:
    return (
        analysis.bt,
        {k: v for k, v in analysis.aval.items() if v},
        analysis.demand,
        analysis.lam_forced,
        analysis._memo_called_set,
    )


@pytest.mark.parametrize("mode", MODES)
def test_solve_ends_clean_at_the_full_sweep_state(mode, monkeypatch):
    # Internal state, not just output: a missed dependency can leave a
    # demand or flow fact unjoined that no pinned output happens to show.
    solve = _Analysis.solve
    solved = []

    def checked_solve(self):
        twin = _FullSweep(
            self.program, self.signature, self.memo_hints,
            self.unfold_hints, self._origin,
        )
        solve(twin)
        solve(self)
        assert self._dirty == set()
        assert _state(self) == _state(twin)
        solved.append(self)

    monkeypatch.setattr(_Analysis, "solve", checked_solve)
    for program, sig, memo, unfold in _CASES.values():
        analyze(program, sig, memo_hints=memo, unfold_hints=unfold, bta=mode)
    assert len(solved) >= len(_CASES)


def _every_signature() -> list:
    """The pinned inputs, plus every other S/D signature of the
    termination corpus and of the section-7 interpreters."""
    from repro.workloads import lazy_interpreter, mixwell_interpreter

    cases = list(_CASES.values())
    programs = [(mixwell_interpreter(), (), ()), (lazy_interpreter(), (), ())]
    for entry in DIVERGING + SAFE:
        programs.append((
            parse_program(entry.source, goal=entry.goal),
            entry.memo_hints,
            entry.unfold_hints,
        ))
    for program, memo, unfold in programs:
        arity = len(program.lookup(program.goal).params)
        for sig in itertools.product("SD", repeat=arity):
            cases.append((program, "".join(sig), memo, unfold))
    return cases


@pytest.mark.parametrize("mode", MODES)
def test_walk_reaches_the_post_order_state(mode, monkeypatch):
    # Pushing demand before descending only reaches the fixpoint in
    # fewer rounds: every solve ends in the state the post-order walk
    # ends in, demand and forced lambdas included.
    solve = _Analysis.solve
    solved = []

    def checked_solve(self):
        twin = _PostOrderWalk(
            self.program, self.signature, self.memo_hints,
            self.unfold_hints, self._origin,
        )
        solve(twin)
        solve(self)
        assert _state(self) == _state(twin)
        solved.append(self)

    monkeypatch.setattr(_Analysis, "solve", checked_solve)
    cases = _every_signature()
    for program, sig, memo, unfold in cases:
        analyze(program, sig, memo_hints=memo, unfold_hints=unfold, bta=mode)
    assert len(solved) >= len(cases)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_bta_pins --write")
    PINS.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}")
