"""Tests for the specialization-safety analyzer (:mod:`repro.analysis`).

The load-bearing property is exact separation of the labelled corpus
(:mod:`tests.corpus_termination`): every diverging program is flagged
with a cycle-path diagnostic, every safe look-alike analyzes clean.  On
top of that: the runtime budgets catch the divergers the analysis was
turned off for, the ``analyze=`` modes of :class:`GeneratingExtension`
behave, the ``pe.check`` facade and the CLI are wired through, and a
hypothesis property ties the two layers together — programs accepted
at ``forbid`` level actually reach a fixpoint within the budgets.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings

from repro.analysis import (
    AnalysisKind,
    UnsafeProgramError,
    analyze_bta,
    analyze_program,
    build_callgraph,
)
from repro.analysis.fixpoint import Solver, saturate
from repro.pe.bta import analyze
from repro.pe.errors import BudgetExceeded, SpecializationError
from repro.lang.parser import parse_program
from repro.rtcg import GeneratingExtension
from repro.runtime.values import datum_to_value
from repro.sexp import read

from tests.corpus_termination import DIVERGING, SAFE
from tests.strategies import guarded_descent_programs


def _report(entry):
    return analyze_program(
        entry.source,
        entry.signature,
        goal=entry.goal,
        memo_hints=entry.memo_hints,
        unfold_hints=entry.unfold_hints,
    )


def _statics(entry):
    return [datum_to_value(read(s)) for s in entry.static_args]


# -- corpus separation ---------------------------------------------------------


class TestCorpusSeparation:
    @pytest.mark.parametrize("entry", DIVERGING, ids=lambda e: e.name)
    def test_every_diverger_is_flagged(self, entry):
        report = _report(entry)
        assert not report.safe, f"{entry.name} not flagged ({entry.note})"
        assert any(
            f.kind is AnalysisKind.POSSIBLE_INFINITE_SPECIALIZATION
            for f in report.findings
        )

    @pytest.mark.parametrize("entry", DIVERGING, ids=lambda e: e.name)
    def test_findings_carry_cycle_diagnostics(self, entry):
        report = _report(entry)
        for f in report.findings:
            assert f.cycle, f"{entry.name}: finding without a cycle path"
            assert all(" -> " in edge and " at " in edge for edge in f.cycle)
            assert f.def_name and f.path

    @pytest.mark.parametrize("entry", SAFE, ids=lambda e: e.name)
    def test_zero_false_positives_on_safe_set(self, entry):
        report = _report(entry)
        assert report.safe, (
            f"{entry.name} falsely flagged ({entry.note}):\n{report}"
        )

    @pytest.mark.parametrize(
        "entry",
        [e for e in SAFE if e.runtime],
        ids=lambda e: e.name,
    )
    def test_safe_programs_actually_specialize(self, entry):
        gen = GeneratingExtension(
            entry.source,
            entry.signature,
            goal=entry.goal,
            memo_hints=entry.memo_hints,
            unfold_hints=entry.unfold_hints,
            analyze="forbid",
        )
        residual = gen.to_source(_statics(entry))
        assert residual.stats["residual_defs"] >= 1
        assert gen.cache_stats()["budget_trips"] == 0

    @pytest.mark.parametrize("entry", DIVERGING, ids=lambda e: e.name)
    def test_divergers_trip_the_runtime_budget(self, entry):
        # The backstop is independent of the analysis: with it off, the
        # same programs stop on a budget instead of diverging.
        gen = GeneratingExtension(
            entry.source,
            entry.signature,
            goal=entry.goal,
            memo_hints=entry.memo_hints,
            unfold_hints=entry.unfold_hints,
            analyze="off",
            max_unfold_depth=300,
            max_residual_size=20_000,
            cache_size=0,
        )
        with pytest.raises(BudgetExceeded) as exc:
            gen.to_source(_statics(entry))
        assert exc.value.cycle, "budget error should name the call cycle"
        assert gen.cache_stats()["budget_trips"] == 1


class TestBundledProgramsAreSafe:
    """The acceptance gate: examples and §7 workloads analyze clean."""

    def test_examples(self):
        from examples.incremental_rtcg import ENGINE
        from examples.quickstart import POWER
        from examples.rtcg_matcher import MATCHER

        for source, sig, goal in (
            (POWER, "DS", "power"),
            (MATCHER, "SD", "match"),
            (ENGINE, "SD", "matches?"),
        ):
            report = analyze_program(source, sig, goal=goal)
            assert report.safe, f"{goal}:\n{report}"

    def test_workloads(self):
        from repro.workloads import (
            LAZY_SIGNATURE,
            MIXWELL_SIGNATURE,
            lazy_interpreter,
            mixwell_interpreter,
        )

        for program, sig in (
            (mixwell_interpreter(), MIXWELL_SIGNATURE),
            (lazy_interpreter(), LAZY_SIGNATURE),
        ):
            report = analyze_program(program, sig)
            assert report.safe, f"{program.goal}:\n{report}"


# -- analysis internals --------------------------------------------------------


class TestAnalysisInternals:
    def test_callgraph_nodes_and_memo_edges(self):
        bta = analyze(
            parse_program(DIVERGING[0].source, goal="f"), "SD"
        )
        graph = build_callgraph(bta)
        assert "f" in graph.nodes
        assert any(e.src == "f" and e.dst == "f" for e in graph.memo_edges)

    def test_bloat_metrics_on_safe_program(self):
        # spin's recursion sits under a dynamic guard, so the self-call
        # is a memoized specialization point.
        report = analyze_program(
            "(define (spin s d) (if (null? d) s (spin s (cdr d))))",
            "SD",
            goal="spin",
        )
        assert report.safe
        entry = report.metrics["spin"]
        assert entry["residual_size_estimate"] >= 1
        assert entry["memo_sites"] == 1

    def test_unbounded_polyvariance_finding(self):
        report = _report(DIVERGING[0])  # count-up
        kinds = {f.kind for f in report.findings}
        assert AnalysisKind.UNBOUNDED_POLYVARIANCE in kinds
        assert report.metrics["f"]["unbounded_polyvariance"] is True

    def test_report_json_round_trips(self):
        report = _report(DIVERGING[0])
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["safe"] is False
        assert payload["findings"][0]["cycle"]

    def test_solver_reaches_fixpoint_with_dependencies(self):
        solver = Solver(join=max, bottom=0)

        def transfer(key, s):
            if key == "a":
                return 3
            return solver.get("a") + 1  # b depends on a

        solver.solve(["b", "a"], transfer)
        assert solver.env["a"] == 3
        assert solver.env["b"] == 4

    def test_saturate_closes_under_composition(self):
        # Transitive closure of a -> b -> c as pair composition.
        def combine(x, y):
            return ((x[0], y[1]),) if x[1] == y[0] else ()

        closed = saturate([("a", "b"), ("b", "c")], combine)
        assert ("a", "c") in closed


# -- GeneratingExtension modes and budgets -------------------------------------


class TestAnalyzeModes:
    def test_forbid_refuses_before_specialization(self):
        entry = DIVERGING[0]
        with pytest.raises(UnsafeProgramError) as exc:
            GeneratingExtension(
                entry.source, entry.signature, goal=entry.goal,
                analyze="forbid",
            )
        assert exc.value.findings
        assert "possible-infinite-specialization" in str(exc.value)

    def test_warn_warns_and_stores_the_report(self):
        entry = DIVERGING[0]
        with pytest.warns(UserWarning, match="specialization-safety"):
            gen = GeneratingExtension(
                entry.source, entry.signature, goal=entry.goal,
            )
        assert gen.analysis_report is not None
        assert not gen.analysis_report.safe

    def test_off_skips_the_analysis(self):
        entry = DIVERGING[0]
        gen = GeneratingExtension(
            entry.source, entry.signature, goal=entry.goal, analyze="off",
        )
        assert gen.analysis_report is None

    def test_safe_program_keeps_a_clean_report(self):
        gen = GeneratingExtension(
            SAFE[0].source, SAFE[0].signature, goal=SAFE[0].goal,
        )
        assert gen.analysis_report is not None
        assert gen.analysis_report.safe

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="analyze"):
            GeneratingExtension(
                SAFE[0].source, SAFE[0].signature, goal=SAFE[0].goal,
                analyze="maybe",
            )


class TestRuntimeBudgets:
    def test_unfold_budget_names_the_cycle(self):
        entry = next(e for e in DIVERGING if e.name == "spin-unfold-hint")
        gen = GeneratingExtension(
            entry.source, entry.signature, goal=entry.goal,
            unfold_hints=entry.unfold_hints, analyze="off",
            max_unfold_depth=100,
        )
        with pytest.raises(BudgetExceeded) as exc:
            gen.to_source(_statics(entry))
        assert exc.value.budget == "max_unfold_depth"
        # Under the polyvariant BTA the cycle names the variant clone
        # ("spin@SDv"), still rooted at the source function's name.
        assert any("spin" in str(f) for f in exc.value.cycle)

    def test_residual_size_budget(self):
        entry = DIVERGING[0]
        gen = GeneratingExtension(
            entry.source, entry.signature, goal=entry.goal,
            analyze="off", max_residual_size=200,
        )
        with pytest.raises(BudgetExceeded) as exc:
            gen.to_source(_statics(entry))
        assert exc.value.budget == "max_residual_size"
        assert exc.value.limit == 200

    def test_budget_exceeded_is_a_specialization_error(self):
        assert issubclass(BudgetExceeded, SpecializationError)

    def test_cogen_path_has_the_same_backstop(self):
        entry = DIVERGING[0]
        gen = GeneratingExtension(
            entry.source, entry.signature, goal=entry.goal, analyze="off",
        )
        compiled = gen.compiled()
        with pytest.raises(BudgetExceeded):
            compiled.generate(_statics(entry), max_residual_size=200)

    def test_stats_report_residual_size(self):
        gen = GeneratingExtension(
            SAFE[0].source, SAFE[0].signature, goal=SAFE[0].goal,
        )
        residual = gen.to_source(_statics(SAFE[0]))
        assert residual.stats["residual_size"] >= 1


# -- the pe.check facade -------------------------------------------------------


class TestCheckFacade:
    def test_check_specialization_safety_returns_report(self):
        from repro.pe.check import check_specialization_safety

        bta = analyze(
            parse_program(DIVERGING[0].source, goal="f"), "SD"
        )
        report = check_specialization_safety(bta)
        assert not report.safe
        assert report.to_json() == analyze_bta(bta).to_json()

    def test_verify_specialization_safety_raises(self):
        from repro.pe.check import verify_specialization_safety

        bta = analyze(
            parse_program(DIVERGING[0].source, goal="f"), "SD"
        )
        with pytest.raises(UnsafeProgramError):
            verify_specialization_safety(bta)
        safe_bta = analyze(
            parse_program(SAFE[0].source, goal="power"), "DS"
        )
        verify_specialization_safety(safe_bta)  # must not raise


# -- CLI -----------------------------------------------------------------------


class TestAnalyzeCli:
    def _write(self, tmp_path, entry):
        f = tmp_path / f"{entry.name}.scm"
        f.write_text(entry.source)
        return str(f)

    def test_diverger_exits_1_with_cycle(self, tmp_path, capsys):
        from repro.__main__ import main

        entry = DIVERGING[0]
        path = self._write(tmp_path, entry)
        code = main(["analyze", path, "--sig", entry.signature,
                     "--goal", entry.goal])
        out = capsys.readouterr().out
        assert code == 1
        assert "possible-infinite-specialization" in out
        assert " -> " in out  # the cycle edge

    def test_safe_program_exits_0(self, tmp_path, capsys):
        from repro.__main__ import main

        entry = SAFE[0]
        path = self._write(tmp_path, entry)
        code = main(["analyze", path, "--sig", entry.signature,
                     "--goal", entry.goal])
        assert code == 0
        assert "no findings" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        from repro.__main__ import main

        entry = DIVERGING[0]
        path = self._write(tmp_path, entry)
        code = main(["analyze", path, "--sig", entry.signature,
                     "--goal", entry.goal, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["safe"] is False
        findings = payload["programs"][path]["findings"]
        assert findings and findings[0]["cycle"]

    def test_builtin_workloads_gate(self, capsys):
        from repro.__main__ import main

        code = main(["analyze", "--builtin", "workloads"])
        out = capsys.readouterr().out
        assert code == 0
        assert "workload:mixwell" in out and "workload:lazy" in out

    def test_file_without_sig_is_usage_error(self, tmp_path, capsys):
        from repro.__main__ import main

        path = self._write(tmp_path, SAFE[0])
        assert main(["analyze", path]) == 1

    def test_lint_json(self, tmp_path, capsys):
        from repro.__main__ import main

        path = self._write(tmp_path, SAFE[0])
        code = main(["lint", path, "--goal", SAFE[0].goal,
                     "--sig", SAFE[0].signature, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["clean"] is True
        assert payload["bytecode"] == [] and payload["bta"] == []

    def test_disasm_json(self, tmp_path, capsys):
        from repro.__main__ import main

        path = self._write(tmp_path, SAFE[0])
        code = main(["disasm", path, "--goal", SAFE[0].goal,
                     "--verify", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["ok"] is True
        assert payload["templates"][0]["verified"] is True
        assert "disassembly" in payload["templates"][0]


# -- forbid-accepted programs specialize within budget -------------------------


class TestForbidSoundness:
    @given(case=guarded_descent_programs())
    @settings(max_examples=30, deadline=None)
    def test_accepted_programs_reach_a_fixpoint(self, case):
        source, signature, goal, static_args = case
        # ``forbid`` must accept every guarded-descent shape...
        gen = GeneratingExtension(
            source, signature, goal=goal, analyze="forbid",
            max_unfold_depth=2_000, max_residual_size=100_000,
            cache_size=0,
        )
        # ...and the accepted program must specialize inside the budget.
        residual = gen.to_source(
            [datum_to_value(_to_datum(v)) for v in static_args]
        )
        assert residual.stats["residual_defs"] >= 1
        assert gen.cache_stats()["budget_trips"] == 0


def _to_datum(value):
    if isinstance(value, list):
        return [_to_datum(v) for v in value]
    return value
