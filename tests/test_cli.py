"""Tests for the command-line driver."""

import pytest

from repro.__main__ import main

POWER = "(define (power x n) (if (zero? n) 1 (* x (power x (- n 1)))))"


@pytest.fixture()
def power_file(tmp_path):
    f = tmp_path / "power.scm"
    f.write_text(POWER)
    return str(f)


@pytest.fixture()
def broken_compiler(monkeypatch):
    """Make the ANF compiler emit a well-framed but unsound template (a
    branch past the end of its code) for every procedure."""
    from repro.compiler import program as program_mod
    from repro.vm.instructions import Op
    from repro.vm.template import Template

    class Broken:
        def __init__(self, *args, **kwargs):
            pass

        def compile_procedure(self, params, body, name="anonymous"):
            return Template(
                code=((Op.JUMP, 99), (Op.RETURN,)), literals=(),
                arity=len(params), nlocals=len(params), name=name,
            )

    monkeypatch.setattr(program_mod, "ANFCompiler", Broken)


class TestRunCommands:
    def test_run(self, power_file, capsys):
        assert main(["run", power_file, "2", "10", "--goal", "power"]) == 0
        assert capsys.readouterr().out.strip() == "1024"

    def test_interp(self, power_file, capsys):
        assert main(["interp", power_file, "3", "3", "--goal", "power"]) == 0
        assert capsys.readouterr().out.strip() == "27"

    def test_run_with_list_argument(self, tmp_path, capsys):
        f = tmp_path / "rev.scm"
        f.write_text("(define (main xs) (reverse xs))")
        assert main(["run", str(f), "(1 2 3)"]) == 0
        assert capsys.readouterr().out.strip() == "(3 2 1)"

    def test_run_with_prelude(self, tmp_path, capsys):
        f = tmp_path / "m.scm"
        f.write_text("(define (main xs) (map1 add1 xs))")
        assert main(["run", str(f), "(1 2)", "--prelude"]) == 0
        assert capsys.readouterr().out.strip() == "(2 3)"


class TestSpecializeCommands:
    def test_specialize_prints_residual(self, power_file, capsys):
        code = main(
            [
                "specialize", power_file, "--goal", "power",
                "--sig", "DS", "--static", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "define" in out
        assert "*" in out

    def test_rtcg_runs_generated_code(self, power_file, capsys):
        code = main(
            [
                "rtcg", power_file, "--goal", "power", "--sig", "DS",
                "--static", "5", "--dynamic", "2",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "32"

    def test_rtcg_disassemble(self, power_file, capsys):
        main(
            [
                "rtcg", power_file, "--goal", "power", "--sig", "DS",
                "--static", "2", "--dynamic", "3", "--disassemble",
            ]
        )
        captured = capsys.readouterr()
        assert "PRIM" in captured.err
        assert captured.out.strip() == "9"

    def test_rtcg_join_strategy(self, tmp_path, capsys):
        f = tmp_path / "c.scm"
        f.write_text("(define (f d) (+ (if (zero? d) 1 2) 10))")
        main(
            [
                "rtcg", str(f), "--sig", "D", "--dynamic", "0",
                "--dif-strategy", "join",
            ]
        )
        assert capsys.readouterr().out.strip() == "11"

    def test_stats_reports_cache_counters(self, power_file, capsys):
        code = main(
            [
                "stats", power_file, "--goal", "power", "--sig", "DS",
                "--static", "5", "--repeat", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cold generation" in out
        assert "cached application" in out
        assert "3 hit(s), 1 miss(es)" in out

    def test_stats_source_backend(self, power_file, capsys):
        assert main(
            [
                "stats", power_file, "--goal", "power", "--sig", "DS",
                "--static", "3", "--backend", "source",
            ]
        ) == 0
        assert "backend:             source" in capsys.readouterr().out

    def test_annotate(self, power_file, capsys):
        assert main(
            ["annotate", power_file, "--goal", "power", "--sig", "DS"]
        ) == 0
        out = capsys.readouterr().out
        assert "lift" in out
        assert "[DS]" in out

    def test_memo_hint(self, power_file, capsys):
        main(
            [
                "specialize", power_file, "--goal", "power",
                "--sig", "DS", "--static", "2", "--memo", "power",
            ]
        )
        out = capsys.readouterr().out
        # Memoized: several residual definitions.
        assert out.count("(define") == 3


class TestCombinatorsCommand:
    def test_prints_module(self, capsys):
        assert main(["combinators"]) == 0
        out = capsys.readouterr().out
        assert "def make_residual_if" in out
        assert "make_label()" in out


class TestStaticAnalysisCommands:
    def test_lint_clean_bytecode_only(self, power_file, capsys):
        assert main(["lint", power_file, "--goal", "power"]) == 0
        out = capsys.readouterr().out
        assert "bytecode clean" in out

    def test_lint_with_signature(self, power_file, capsys):
        assert main(
            ["lint", power_file, "--goal", "power", "--sig", "DS"]
        ) == 0
        out = capsys.readouterr().out
        assert "signature and bytecode clean" in out

    def test_disasm_prints_templates(self, power_file, capsys):
        assert main(["disasm", power_file, "--goal", "power"]) == 0
        out = capsys.readouterr().out
        assert "template power" in out
        assert "JUMP_IF_FALSE" in out
        # Jump targets get block labels.
        assert "-> L0" in out
        assert "L0:" in out

    def test_disasm_verify_reports_ok(self, power_file, capsys):
        assert main(
            ["disasm", power_file, "--goal", "power", "--verify"]
        ) == 0
        out = capsys.readouterr().out
        assert "verified ok" in out

    def test_disasm_stock_compiler(self, power_file, capsys):
        assert main(
            ["disasm", power_file, "--goal", "power",
             "--compiler", "stock"]
        ) == 0
        assert "template power" in capsys.readouterr().out

    def test_run_rejects_unsound_code(
        self, power_file, capsys, broken_compiler
    ):
        assert main(["run", power_file, "2", "5", "--goal", "power"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bytecode verification failed" in captured.err

    def test_lint_reports_a_verification_error(
        self, power_file, capsys, broken_compiler
    ):
        # compile_program rejects the broken ANF output; lint records
        # the error's report as that backend's finding.
        assert main(["lint", power_file, "--goal", "power"]) == 1
        out = capsys.readouterr().out
        assert ";; [auto] template power:" in out
        assert "bad-jump-target" in out
        assert ";; [stock]" not in out

    @pytest.mark.parametrize("argv", [
        ["run", "FILE", "--no-verify"],
        ["rtcg", "FILE", "--sig", "DS", "--no-verify"],
        ["image", "export", "FILE", "--sig", "DS", "--store", "s",
         "--no-verify"],
        ["image", "load", "FILE", "--no-verify"],
    ], ids=["run", "rtcg", "image-export", "image-load"])
    def test_no_switch_turns_verification_off(
        self, power_file, capsys, argv
    ):
        with pytest.raises(SystemExit) as exc:
            main([power_file if arg == "FILE" else arg for arg in argv])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-verify" in capsys.readouterr().err


class TestStatsJson:
    def test_json_output_is_machine_readable(self, power_file, capsys):
        import json

        assert main(
            [
                "stats", power_file, "--goal", "power", "--sig", "DS",
                "--static", "5", "--repeat", "3", "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "object"
        assert payload["dif_strategy"] == "duplicate"
        assert payload["cold_generation_ms"] > 0
        assert payload["cache"]["hits"] == 2
        assert payload["cache"]["misses"] == 1
        assert payload["disk_hit"] is False

    def test_json_with_store(self, power_file, tmp_path, capsys):
        import json

        store = str(tmp_path / "store")
        assert main(
            [
                "stats", power_file, "--goal", "power", "--sig", "DS",
                "--static", "5", "--store", store, "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache"]["store"]["writes"] == 1
        assert payload["cache"]["specializer_runs"] == 1


class TestTraceCommand:
    def test_text_report_covers_every_stage(self, power_file, capsys):
        assert main(
            [
                "trace", power_file, "--goal", "power", "--sig", "DS",
                "--static", "5", "--dynamic", "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        for stage in (
            "pe.bta",
            "pe.congruence",
            "analysis.safety",
            "rtcg.generate",
            "pe.specialize",
            "vm.assemble",
            "vm.verify",
            "vm.run",
        ):
            assert stage in out, f"report is missing stage {stage}"
        assert "stage totals" in out
        assert "cache.l1.misses" in out

    def test_json_is_valid_chrome_trace(self, power_file, capsys):
        import json

        assert main(
            [
                "trace", power_file, "--goal", "power", "--sig", "DS",
                "--static", "3", "--dynamic", "2", "--json",
            ]
        ) == 0
        trace = json.loads(capsys.readouterr().out)
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        assert events
        names = {ev["name"] for ev in events}
        assert {"pe.bta", "pe.specialize", "vm.assemble"} <= names
        for ev in events:
            assert ev["ph"] == "X"
            assert ev["ts"] >= 0 and ev["dur"] >= 0
            assert isinstance(ev["tid"], int)

    def test_out_writes_trace_file(self, power_file, tmp_path, capsys):
        import json

        out_file = tmp_path / "trace.json"
        assert main(
            [
                "trace", power_file, "--goal", "power", "--sig", "DS",
                "--static", "2", "--dynamic", "2", "--json",
                "-o", str(out_file),
            ]
        ) == 0
        capsys.readouterr()
        trace = json.loads(out_file.read_text())
        assert trace["traceEvents"]

    def test_builtin_examples(self, capsys):
        assert main(["trace", "--builtin", "examples"]) == 0
        out = capsys.readouterr().out
        assert "example:quickstart.py:POWER" in out
        assert "example:rtcg_matcher.py:MATCHER" in out

    def test_requires_file_or_builtin(self, capsys):
        assert main(["trace"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_file_requires_sig(self, power_file, capsys):
        assert main(["trace", power_file, "--goal", "power"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--sig" in err


class TestProfileCommand:
    def test_text_report_ranks_hot_templates(self, power_file, capsys):
        assert main(
            [
                "profile", power_file, "--goal", "power", "--sig", "DS",
                "--static", "5", "--dynamic", "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "result: 32" in out
        assert "opcode counts" in out
        assert "hot templates" in out
        assert "PRIM" in out

    def test_json_profile_shape(self, power_file, capsys):
        import json

        assert main(
            [
                "profile", power_file, "--goal", "power", "--sig", "DS",
                "--static", "4", "--dynamic", "3", "--repeat", "2",
                "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        (profile,) = payload.values()
        assert profile["calls"] == 2
        assert profile["total_instructions"] > 0
        assert profile["opcodes"]["PRIM"] > 0
        for entry in profile["templates"].values():
            assert entry["invocations"] >= 1
            assert entry["instructions"] >= 1

    def test_repeat_scales_counts_linearly(self, power_file, capsys):
        import json

        counts = []
        for repeat in ("1", "3"):
            assert main(
                [
                    "profile", power_file, "--goal", "power",
                    "--sig", "DS", "--static", "5", "--dynamic", "2",
                    "--repeat", repeat, "--json",
                ]
            ) == 0
            (profile,) = json.loads(capsys.readouterr().out).values()
            counts.append(profile["total_instructions"])
        assert counts[1] == 3 * counts[0]

    def test_builtin_workloads(self, capsys):
        assert main(["profile", "--builtin", "workloads"]) == 0
        out = capsys.readouterr().out
        assert "workload:mixwell" in out
        assert "workload:lazy" in out

    def test_requires_file_or_builtin(self, capsys):
        assert main(["profile"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_missing_file_is_an_error_not_a_traceback(self, capsys):
        assert main(
            ["profile", "/nonexistent/nope.scm", "--sig", "D"]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestImageCommands:
    def test_export_ls_load_gc_cycle(self, power_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(
            [
                "image", "export", power_file, "--goal", "power",
                "--sig", "DS", "--static", "5", "--store", store,
            ]
        ) == 0
        digest = capsys.readouterr().out.split()[0]
        assert len(digest) == 64

        assert main(["image", "ls", "--store", store]) == 0
        assert digest[:16] in capsys.readouterr().out

        # Digest prefixes resolve as long as they are unique.
        assert main(
            [
                "image", "load", digest[:12], "--store", store,
                "--dynamic", "2",
            ]
        ) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "32"
        assert "verified yes" in captured.err

        assert main(
            ["image", "gc", "--store", store, "--max-bytes", "0"]
        ) == 0
        assert "removed 1 object(s)" in capsys.readouterr().out
        assert main(["image", "ls", "--store", store]) == 0
        assert "store is empty" in capsys.readouterr().out

    def test_export_to_file_and_load(self, power_file, tmp_path, capsys):
        out_file = str(tmp_path / "power.rpoi")
        assert main(
            [
                "image", "export", power_file, "--goal", "power",
                "--sig", "DS", "--static", "4", "-o", out_file,
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            ["image", "load", out_file, "--dynamic", "3"]
        ) == 0
        assert capsys.readouterr().out.strip() == "81"

    def test_load_disassemble(self, power_file, tmp_path, capsys):
        out_file = str(tmp_path / "power.rpoi")
        main(
            [
                "image", "export", power_file, "--goal", "power",
                "--sig", "DS", "--static", "3", "-o", out_file,
            ]
        )
        capsys.readouterr()
        assert main(["image", "load", out_file, "--disassemble"]) == 0
        assert "PRIM" in capsys.readouterr().err

    def test_export_requires_a_destination(self, power_file, capsys):
        assert main(
            [
                "image", "export", power_file, "--goal", "power",
                "--sig", "DS", "--static", "3",
            ]
        ) == 2
        assert "needs --store" in capsys.readouterr().err

    def test_ls_json(self, power_file, tmp_path, capsys):
        import json

        store = str(tmp_path / "store")
        main(
            [
                "image", "export", power_file, "--goal", "power",
                "--sig", "DS", "--static", "5", "--store", store,
            ]
        )
        capsys.readouterr()
        assert main(["image", "ls", "--store", store, "--json"]) == 0
        (entry,) = json.loads(capsys.readouterr().out)
        assert entry["kind"] == "object"
        assert entry["bytes"] > 0

    def test_load_rejects_corrupt_image(self, power_file, tmp_path, capsys):
        out_file = tmp_path / "power.rpoi"
        main(
            [
                "image", "export", power_file, "--goal", "power",
                "--sig", "DS", "--static", "3", "-o", str(out_file),
            ]
        )
        capsys.readouterr()
        data = bytearray(out_file.read_bytes())
        data[-1] ^= 0xFF
        out_file.write_bytes(bytes(data))
        assert main(["image", "load", str(out_file)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_load_unknown_digest(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["image", "load", "deadbeef", "--store", store]) == 1
        assert "error:" in capsys.readouterr().err

    def test_gc_dry_run_removes_nothing(self, power_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(
            [
                "image", "export", power_file, "--goal", "power",
                "--sig", "DS", "--static", "5", "--store", store,
            ]
        )
        capsys.readouterr()
        assert main(
            ["image", "gc", "--store", store, "--max-bytes", "0", "--dry-run"]
        ) == 0
        out = capsys.readouterr().out
        assert "would remove" in out
        assert "(dry run)" in out
        # Nothing was actually collected: the image is still listed.
        assert main(["image", "ls", "--store", store]) == 0
        assert "store is empty" not in capsys.readouterr().out

    def test_gc_dry_run_json(self, power_file, tmp_path, capsys):
        import json

        store = str(tmp_path / "store")
        main(
            [
                "image", "export", power_file, "--goal", "power",
                "--sig", "DS", "--static", "5", "--store", store,
            ]
        )
        capsys.readouterr()
        assert main(
            [
                "image", "gc", "--store", store, "--max-bytes", "0",
                "--dry-run", "--json",
            ]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dry_run"] is True
        assert report["removed_objects"] >= 1
        assert report["would_remove"]


class TestDisasmCfg:
    def test_cfg_prints_block_table(self, power_file, capsys):
        assert main(["disasm", power_file, "--cfg"]) == 0
        out = capsys.readouterr().out
        assert ";; cfg power" in out
        # power has a conditional, so some block ends in a branch and
        # lists two successors.
        assert "JUMP_IF_FALSE" in out
        assert "(exit)" in out

    def test_cfg_json_block_shape(self, power_file, capsys):
        import json

        assert main(["disasm", power_file, "--cfg", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        (entry,) = [
            e for e in report["templates"] if e["template"] == "power"
        ]
        blocks = entry["cfg"]
        assert blocks[0]["start"] == 0
        for block in blocks:
            assert block["start"] < block["end"]
            assert isinstance(block["succs"], list)
            assert isinstance(block["preds"], list)
            assert block["terminator"]
        # Edges are consistent: every successor is some block's leader.
        starts = {b["start"] for b in blocks}
        assert all(s in starts for b in blocks for s in b["succs"])


class TestOptCommand:
    def test_opt_plain_file_reports_reduction(self, tmp_path, capsys):
        f = tmp_path / "chain.scm"
        # let-chains compile to the SETLOC/LOCAL slack the optimizer
        # exists to remove.
        f.write_text(
            "(define (main d)"
            " (let ((x (+ d 1))) (let ((y x)) (let ((z y)) (* z 2)))))"
        )
        assert main(["opt", str(f)]) == 0
        out = capsys.readouterr().out
        assert ";; opt: ok" in out
        assert "-- optimized to -->" in out

    def test_opt_differential_runs_both_loops(self, tmp_path, capsys):
        import json

        f = tmp_path / "chain.scm"
        f.write_text(
            "(define (main d)"
            " (let ((x (+ d 1))) (let ((y x)) (* y y))))"
        )
        assert main(["opt", str(f), "--dynamic", "6", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        (target,) = report["targets"].values()
        runs = target["differential"]
        assert set(runs) == {"machine", "profiled"}
        for run in runs.values():
            assert run["agree"] is True
            assert run["optimized"] == "49"

    def test_opt_builtin_workloads_json(self, capsys):
        import json

        assert main(["opt", "--builtin", "workloads", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        for target in report["targets"].values():
            assert target["after_instructions"] <= target["before_instructions"]
            for run in target["differential"].values():
                assert run["agree"] is True
            for entry in target["templates"]:
                assert entry["verified"], entry
                assert entry["violations"] == []

    def test_opt_optimizes_each_reported_template_once(self, capsys):
        # The twin the differential runs is built from the reported
        # templates, not optimized a second time.
        import json

        from repro import obs

        with obs.tracing() as (_tracer, metrics):
            assert main(["opt", "--builtin", "workloads", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        reported = sum(
            len(target["templates"]) for target in report["targets"].values()
        )
        assert reported > 0
        assert metrics.counter_value("vm.optimize.templates") == reported

    def test_opt_without_target_is_an_error(self, capsys):
        assert main(["opt"]) == 1
        assert "error:" in capsys.readouterr().err


class TestProfileEmptyRun:
    def test_repeat_zero_json_exits_zero(self, power_file, capsys):
        import json

        assert main([
            "profile", power_file, "--goal", "power", "--sig", "DS",
            "--static", "4", "--dynamic", "3", "--repeat", "0", "--json",
        ]) == 0
        (profile,) = json.loads(capsys.readouterr().out).values()
        assert profile["calls"] == 0
        assert profile["total_instructions"] == 0
        assert profile["opcodes"] == {}
        assert profile["templates"] == {}

    def test_repeat_zero_text_renders_none_sections(self, power_file, capsys):
        assert main([
            "profile", power_file, "--goal", "power", "--sig", "DS",
            "--static", "4", "--dynamic", "3", "--repeat", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "(not run)" in out
        assert out.count("(none)") == 2


class TestErrorPaths:
    """User mistakes exit non-zero with a message — never a traceback."""

    def test_missing_input_file(self, capsys):
        assert main(["run", "/nonexistent/nope.scm"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_unparsable_source(self, tmp_path, capsys):
        f = tmp_path / "bad.scm"
        f.write_text("(define (f x) (+ x 1)")  # unbalanced
        assert main(["run", str(f)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_bad_dif_strategy_is_a_usage_error(self, power_file, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(
                [
                    "specialize", power_file, "--goal", "power",
                    "--sig", "DS", "--dif-strategy", "bogus",
                ]
            )
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "Traceback" not in err

    def test_bad_signature(self, power_file, capsys):
        assert main(
            ["specialize", power_file, "--goal", "power", "--sig", "XY"]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_reader_closing_the_pipe_is_not_an_error(self):
        # ``repro opt --builtin all | head -1``: the output (~100 kB)
        # outgrows the pipe's buffer, so the writer meets the closed
        # pipe.  That ends the run as SIGPIPE would, with nothing on
        # stderr, not even the "Exception ignored" of a shutdown flush.
        import os
        import signal
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "opt", "--builtin", "all"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline().startswith(b";;")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 128 + signal.SIGPIPE
        assert err == b""

    def test_wrong_goal_name(self, power_file, capsys):
        assert main(["run", power_file, "--goal", "nope"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_sig_arity_mismatch(self, power_file, capsys):
        assert main(
            ["specialize", power_file, "--goal", "power", "--sig", "SDS"]
        ) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_datum_argument(self, power_file, capsys):
        assert main(
            ["run", power_file, "(1 2", "--goal", "power"]
        ) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestImageLsErrors:
    def test_missing_store_dir_is_exit_1_with_message(self, tmp_path, capsys):
        missing = str(tmp_path / "no-such-store")
        assert main(["image", "ls", "--store", missing]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        # and the command did not invent an empty store on disk
        assert not (tmp_path / "no-such-store").exists()

    def test_store_path_that_is_a_file(self, tmp_path, capsys):
        bogus = tmp_path / "not-a-dir"
        bogus.write_text("")
        assert main(["image", "ls", "--store", str(bogus)]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestServeCommands:
    def test_loadgen_in_process_json(self, tmp_path, capsys):
        import json

        code = main(
            [
                "loadgen", "--clients", "2", "--requests", "4",
                "--workload", "lazy",
                "--store", str(tmp_path / "store"), "--json",
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["ok"] == 8
        assert report["errors"] == {}
        assert report["protocol_errors"] == 0
        assert report["coalescing"]["coalesced"] is True
        lazy = report["workloads"]["lazy"]
        assert lazy["provenance"].get("miss", 0) == 1
        assert lazy["cold_ms"]["n"] == 2
        assert lazy["warm_ms"]["n"] == 6

    def test_loadgen_text_report(self, capsys):
        code = main(
            ["loadgen", "--clients", "2", "--requests", "2",
             "--workload", "mixwell"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "loadgen: 2 client(s) x 2 request(s)" in out
        assert "coalescing:" in out

    def test_loadgen_rejects_unknown_workload_mix(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["loadgen", "--workload", "nope"])
        assert exc_info.value.code == 2
