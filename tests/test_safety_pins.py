"""Pins of the specialization-safety analysis output.

Every entry of the termination corpus is analysed under its own
signature; its findings render as text (kind, definition, path and the
cycle lines) and are compared, in the order the analysis reports them,
with the lists checked in at ``safety_pins.json``.  The output of
``analyze --builtin all --json`` is pinned by its SHA-256 digest.  A
change to the call graph, the closure or their data structures must
leave every pin as it is.

Regenerate with ``PYTHONPATH=src python -m tests.test_safety_pins
--write`` from the repository root.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from repro.analysis import analyze_program
from tests.corpus_termination import DIVERGING, SAFE

PINS = Path(__file__).with_name("safety_pins.json")
BUILTIN_KEY = "analyze --builtin all --json"
_CORPUS = {entry.name: entry for entry in DIVERGING + SAFE}


def findings_text(entry) -> list[str]:
    report = analyze_program(
        entry.source,
        entry.signature,
        goal=entry.goal,
        memo_hints=entry.memo_hints,
        unfold_hints=entry.unfold_hints,
    )
    return [str(finding) for finding in report.findings]


def builtin_digest() -> str:
    from repro.__main__ import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["analyze", "--builtin", "all", "--json"])
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def pins() -> dict:
    table: dict = {name: findings_text(e) for name, e in _CORPUS.items()}
    table[BUILTIN_KEY] = builtin_digest()
    return table


_PINNED = json.loads(PINS.read_text()) if PINS.exists() else {}


def test_every_entry_is_pinned():
    assert sorted(_PINNED) == sorted([*_CORPUS, BUILTIN_KEY])


@pytest.mark.parametrize("name", sorted(_CORPUS))
def test_findings_match_pin(name):
    assert findings_text(_CORPUS[name]) == _PINNED[name]


def test_builtin_report_matches_pin():
    assert builtin_digest() == _PINNED[BUILTIN_KEY]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_safety_pins --write")
    PINS.write_text(json.dumps(pins(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}")
