"""The offline partial evaluation system (the PGG).

Subsystems:

* :mod:`repro.pe.values` — specialization-time values (static / dynamic);
* :mod:`repro.pe.backend` — the residual-code constructor interface (the
  "syntax constructors" that deforestation replaces, §5.4) and the source
  backend that builds residual CS programs;
* :mod:`repro.pe.runstate` — the state and staged actions of one
  specialization run, shared by both engines (memoization, budgets,
  let-insertion, lifting, dynamic conditionals);
* :mod:`repro.pe.specializer` — the continuation-based specializer of
  Fig. 3 with standard memoization [30, 60], interpreting annotations
  (the A3 baseline);
* :mod:`repro.pe.fig3` — a literal, expression-level transliteration of
  Fig. 3 used to validate the production engine;
* :mod:`repro.pe.annprog` — Annotated Core Scheme;
* :mod:`repro.pe.bta` — binding-time analysis with a closure analysis,
  which annotates the program (Annotated Core Scheme);
* :mod:`repro.pe.check` — the independent congruence linter over the
  BTA's output (well-annotatedness re-checked after the fact);
* :mod:`repro.pe.cogen` — generating extensions (compiled specializers),
  the engine :class:`~repro.rtcg.GeneratingExtension` runs.
"""

from repro.pe.annprog import (
    AnnDef,
    AnnotatedProgram,
    BindingTime,
    parse_signature,
)
from repro.pe.backend import Backend, ResidualProgram, SourceBackend
from repro.pe.bta import BTAResult, analyze, prepare
from repro.pe.check import (
    AnnotationViolation,
    CongruenceKind,
    CongruenceViolation,
    check_annotated,
    check_bta,
    verify_annotated,
)
from repro.pe.errors import BindingTimeError, PEError, SpecializationError
from repro.pe.limits import ensure_recursion_limit
from repro.pe.residual_cache import ResidualCache
from repro.pe.specializer import Specializer, specialize
from repro.pe.values import Dynamic, SpecClosure, Static

__all__ = [
    "AnnDef",
    "AnnotatedProgram",
    "AnnotationViolation",
    "Backend",
    "BindingTime",
    "BindingTimeError",
    "BTAResult",
    "CongruenceKind",
    "CongruenceViolation",
    "Dynamic",
    "PEError",
    "ResidualCache",
    "ResidualProgram",
    "SourceBackend",
    "SpecClosure",
    "Specializer",
    "SpecializationError",
    "Static",
    "analyze",
    "check_annotated",
    "check_bta",
    "ensure_recursion_limit",
    "parse_signature",
    "prepare",
    "specialize",
    "verify_annotated",
]
