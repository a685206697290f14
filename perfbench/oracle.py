"""Oracles that do not use the code under test.

* The MIXWELL Turing machine increments a binary number: checked
  against plain-Python binary increment.
* LAZY's primes program computes the n-th prime (0-based): checked
  against a plain-Python trial-division prime sequence.
* Generated programs are checked against ``repro.interp``, the
  tree-walking reference interpreter, running the MIXWELL or LAZY
  interpreter on the program.  The reference never touches the
  specializer, the compiler or the VM.

Every oracle answers in the system's printed form (``write_value``), so
a check is one string comparison.
"""

from __future__ import annotations

from functools import lru_cache


def binary_increment(bits: list[int]) -> str:
    """The printed tape the MIXWELL TM leaves for a most-significant-bit
    first binary number."""
    value = int("".join(map(str, bits)), 2) + 1
    return "(" + " ".join(bin(value)[2:]) + ")"


@lru_cache(maxsize=None)
def nth_prime(n: int) -> str:
    """The printed n-th prime, 0-based (``nth_prime(0) == "2"``)."""
    primes: list[int] = []
    candidate = 2
    while len(primes) <= n:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return str(primes[n])


class Reference:
    """Runs generated programs through ``repro.interp``.

    Parses each interpreter once; caches answers per (source, input),
    so oracle values for a served working set are computed once, before
    timing starts.
    """

    def __init__(self) -> None:
        from repro.workloads import lazy_interpreter, mixwell_interpreter

        self._interpreters = {
            "mixwell": mixwell_interpreter(),
            "lazy": lazy_interpreter(),
        }
        self._answers: dict[tuple[str, str, int], str] = {}

    def answer(self, lang: str, source: str, dynamic: int) -> str:
        key = (lang, source, dynamic)
        cached = self._answers.get(key)
        if cached is None:
            from repro.interp import run_program
            from repro.lang.prims import write_value
            from repro.runtime.values import datum_to_value
            from repro.sexp.reader import read

            program = datum_to_value(read(source))
            cached = write_value(
                run_program(self._interpreters[lang], [program, dynamic])
            )
            self._answers[key] = cached
        return cached
