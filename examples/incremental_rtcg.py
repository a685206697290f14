"""Incremental specialization: code generated from generated code.

"The system makes realistic incremental specialization feasible which not
only allows for the implementation of dynamically evolving programs, but
can also avoid termination problems in partial evaluation [60]." (§1)

A query engine compiles each query to object code the moment it arrives —
classic run-time code generation — and *keeps installing* new compiled
queries into one shared machine as the workload evolves (the backend owns
the machine's residual-name supply, so every generation into it draws
distinct names and the incremental installation is safe).

Run:  python examples/incremental_rtcg.py
"""

import time

from repro.lang import unparse_program, with_prelude
from repro.rtcg import GeneratingExtension
from repro.runtime.values import datum_to_value, value_to_datum
from repro.sexp import read, write

# A record is an association list ((field value) ...).  A query is a list
# of clauses (field op constant) with op in {eq lt gt}.
ENGINE = """
(define (field-value record field)
  (let ((hit (assq field record)))
    (if hit (cadr hit) '())))

(define (holds? op actual expected)
  (cond ((eq? op 'eq) (equal? actual expected))
        ((eq? op 'lt) (< actual expected))
        ((eq? op 'gt) (> actual expected))
        (else #f)))

(define (matches? query record)
  (if (null? query)
      #t
      (if (holds? (car (cdar query))
                  (field-value record (caar query))
                  (cadr (cdar query)))
          (matches? (cdr query) record)
          #f)))
"""


def main() -> None:
    # Stage 1: the query becomes known; records stay dynamic.
    gen = GeneratingExtension(ENGINE, "SD", goal="matches?")

    query = datum_to_value(
        read("((age gt 30) (dept eq engineering) (level lt 5))")
    )

    t0 = time.perf_counter()
    matcher = gen.to_object_code([query])
    print(
        f"stage 1+2: query compiled to object code in"
        f" {time.perf_counter() - t0:.4f}s"
    )

    records = [
        "((age 41) (dept engineering) (level 3))",
        "((age 29) (dept engineering) (level 3))",
        "((age 41) (dept sales) (level 3))",
        "((age 41) (dept engineering) (level 7))",
    ]
    for text in records:
        record = datum_to_value(read(text))
        print(f"  match {text} -> {matcher.run([record])}")

    # Show the residual source for the curious: the query interpretation
    # is gone; what remains is a chain of assq/comparison steps.
    residual = gen.to_source([query])
    print("\nresidual filter (first 400 chars):")
    text = "\n".join(write(d) for d in unparse_program(residual.program))
    print(text[:400], "...")

    # Several queries, one machine: incremental installation.
    from repro.compiler import ObjectCodeBackend

    backend = ObjectCodeBackend()
    q1 = datum_to_value(read("((age gt 18))"))
    q2 = datum_to_value(read("((dept eq sales))"))
    m1 = gen.compiled().generate([q1], backend)
    m2 = gen.compiled().generate([q2], backend)
    rec = datum_to_value(read("((age 50) (dept sales))"))
    print(
        f"\ntwo filters in one machine: adult={m1.run([rec])},"
        f" sales={m2.run([rec])},"
        f" templates installed: {len(backend.templates)}"
    )


if __name__ == "__main__":
    main()
