"""The composed system: run-time code generation from existing components.

This package wires the pieces into the artifacts the paper describes:

* :func:`make_generating_extension` — the PGG path: program + binding-time
  signature → a generating extension mapping static input to residual code
  (source or object code);
* :func:`specialize_to_source` / :func:`specialize_to_object_code` — one-
  shot specialization through either backend;
* :func:`run_specialized` — specialize and immediately execute: classic
  run-time code generation.
"""

from repro.rtcg.system import (
    GeneratingExtension,
    make_generating_extension,
    program_digest,
    run_specialized,
    specialize_to_object_code,
    specialize_to_source,
)

__all__ = [
    "GeneratingExtension",
    "make_generating_extension",
    "program_digest",
    "run_specialized",
    "specialize_to_object_code",
    "specialize_to_source",
]
