"""Compilers from Core Scheme to VM templates.

Two compilers live here, and the annotated compiler's two readings:

* :mod:`repro.compiler.annotated` — Acts 2/3: the ANF compiler written
  once against an annotation interface.  Erasing the annotations gives
  an ordinary compiler (:func:`~repro.compiler.annotated.erase`);
  reading them as code generators gives the ``make-residual-...``
  combinators, printed and loaded by
  :mod:`repro.compiler.combinator_source`.
* :mod:`repro.compiler.fusion` — the fused backend over the printed
  combinators.  RTCG runs it under the specializer, and
  :func:`compile_program` folds ANF syntax into it — Act 1's compiler
  for programs in A-normal form, which needs no compile-time
  continuation because ANF makes control flow explicit.
  :class:`ErasingBackend` is the same backend over the erased
  combinators: folded the same way, it is the erasing reading.
* :mod:`repro.compiler.stock` — the "stock Scheme 48 compiler" stand-in:
  compiles arbitrary CS, threading a compile-time continuation to identify
  tail calls.  Used as the Fig. 8 baseline and in the ANF ablation.
"""

from repro.compiler.annotated import CompileError
from repro.compiler.cenv import CompileTimeEnv, Closed, Global, Local
from repro.compiler.fusion import ErasingBackend, ObjectCodeBackend
from repro.compiler.program import CompiledProgram, compile_program
from repro.compiler.stock import StockCompiler

__all__ = [
    "Closed",
    "CompileError",
    "CompileTimeEnv",
    "CompiledProgram",
    "ErasingBackend",
    "Global",
    "Local",
    "ObjectCodeBackend",
    "StockCompiler",
    "compile_program",
]
