"""Pins of the object code ``compile_program`` emits.

Every input below is compiled with ``compile_program(…, "auto")``; the
disassembly of each template (nested closure templates included) is
hashed with SHA-256 and compared with the digest checked in at
``compile_pins.json``.  The pins are the byte-level reference for the
ANF route: a change to how that route reaches its code generators must
leave every digest as it is; a change that means to alter the emitted
code regenerates the file and says why.

Inputs: every program of ``python -m repro … --builtin all``, the §7
residual sources (MIXWELL and LAZY specialized to their workload
programs, as source), and the expression cases of the annotated
compiler's tests, each as the body of a zero-argument ``t``.

Regenerate with ``PYTHONPATH=src python -m tests.test_compile_pins
--write`` from the repository root.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.compiler import compile_program
from repro.lang import parse_program
from repro.vm import disassemble
from tests.test_annotated_compiler import EXPR_CASES

PINS = Path(__file__).with_name("compile_pins.json")


def _inputs() -> dict:
    """label -> program."""
    from repro.__main__ import _builtin_targets
    from repro.rtcg import make_generating_extension
    from repro.workloads import (
        LAZY_SIGNATURE,
        MIXWELL_SIGNATURE,
        lazy_interpreter,
        lazy_primes_program,
        mixwell_interpreter,
        mixwell_tm_program,
    )

    cases = {}
    for label, program, _sig, goal in _builtin_targets("all"):
        if isinstance(program, str):
            program = parse_program(program, goal=goal)
        cases[label] = program
    for name, interp, sig, static in (
        ("mixwell", mixwell_interpreter(), MIXWELL_SIGNATURE,
         mixwell_tm_program()),
        ("lazy", lazy_interpreter(), LAZY_SIGNATURE, lazy_primes_program()),
    ):
        gen = make_generating_extension(interp, sig)
        cases[f"residual:{name}"] = gen.to_source([static]).program
    for source in EXPR_CASES:
        cases[f"expr:{source}"] = parse_program(f"(define (t) {source})")
    return cases


_CASES = _inputs()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def disassemblies(label: str) -> dict[str, str]:
    """``label/definition`` -> disassembly of that definition's template."""
    compiled = compile_program(_CASES[label], "auto")
    return {
        f"{label}/{name.name}": disassemble(template)
        for name, template in compiled.templates.items()
    }


def digests() -> dict[str, str]:
    return {
        key: _digest(text)
        for label in _CASES
        for key, text in disassemblies(label).items()
    }


_PINNED = json.loads(PINS.read_text()) if PINS.exists() else {}


def test_every_template_is_pinned():
    assert sorted(_PINNED) == sorted(digests())


@pytest.mark.parametrize("label", sorted(_CASES))
def test_object_code_matches_pins(label):
    for key, text in disassemblies(label).items():
        assert _digest(text) == _PINNED[key], text


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_compile_pins --write")
    PINS.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}")
