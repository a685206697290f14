"""Command-line driver: ``python -m repro <command> ...``.

Commands
--------
run FILE [ARGS...]
    Parse FILE (Scheme subset), run its goal function on ARGS through the
    bytecode VM.  Arguments are read as Scheme data.

interp FILE [ARGS...]
    Same, through the reference interpreter.

specialize FILE --sig SIG [--static DATUM ...] [--goal NAME]
    Binding-time-analyze FILE against SIG (e.g. ``SD``), specialize to the
    given static arguments, print the residual program.

rtcg FILE --sig SIG [--static DATUM ...] [--dynamic DATUM ...]
    Specialize directly to object code and run it on the dynamic
    arguments; print the result.  Add ``--disassemble`` to dump templates.

annotate FILE --sig SIG [--goal NAME]
    Print the binding-time-annotated program (ACS notation: ``lift``,
    ``if^D``, ``lambda^D``, ``memo-call``).

bta [FILE --sig SIG] [--builtin all|examples|workloads] [--json]
    Print the computed binding-time division: every function variant
    with its per-variant S/D parameter signature, unfold-vs-memoize
    classification, per-call-site unfold/memo decisions, and lift
    sites.  ``--bta mono`` shows the monovariant join instead.  Exit
    status 1 on any congruence violation (the CI self-gate).

disasm FILE [--compiler auto|stock] [--verify] [--cfg] [--json]
    Compile FILE and print the disassembly of every template, with block
    labels at jump targets.  ``--verify`` appends each template's
    verification report; ``--cfg`` appends the basic-block boundaries
    and successor edges; ``--json`` emits templates and findings as a
    JSON object.

opt [FILE [--sig SIG]] [--builtin all|examples|workloads] [--json]
    Run the dataflow bytecode optimizer (:mod:`repro.vm.opt`) over the
    templates of FILE — residual templates when ``--sig`` is given,
    the straight compilation otherwise — and/or the built-in targets.
    Prints before/after disassembly and per-pass instruction-count
    deltas; every optimized template is re-verified and differentially
    executed against its unoptimized twin on both dispatch loops.  Exit
    status 1 on any violation or semantic mismatch (the CI self-gate).

lint [FILE [--sig SIG]] [--builtin all|examples|workloads] [--json]
    Static checks: bytecode-verify every template each target compiles
    to (both backends), and — for targets with a signature — re-check
    the BTA's output with the variant-aware congruence linter.
    ``--division`` appends the division-quality report (polyvariant
    division vs. the monovariant baseline).  Exit status 1 if any error
    is found; ``--json`` emits the findings as a JSON object.

analyze [FILE --sig SIG] [--builtin all|examples|workloads] [--json]
    Specialization-safety analysis (termination + code bloat): prove
    that specializing FILE under SIG terminates with bounded residual
    code, or report ``possible-infinite-specialization`` /
    ``unbounded-polyvariance`` findings naming the offending call
    cycle.  ``--builtin`` additionally sweeps the bundled examples
    and/or the §7 benchmark workloads (the CI self-gate).  Exit status
    1 on any finding.

stats FILE --sig SIG [--static DATUM ...] [--repeat N] [--json]
    Build a generating extension, apply it N times to the same static
    input, and print residual-cache statistics: cold generation time,
    cached lookup time, amortized speedup, hit/miss/eviction counters.
    ``--store DIR`` attaches an on-disk image store (the L2 tier);
    ``--json`` emits the numbers as a JSON object for scripting.

image export FILE --sig SIG [--static DATUM ...] (--store DIR | -o FILE)
    Specialize FILE to the static input and persist the residual object
    code as a binary image: into a content-addressed store (``--store``)
    and/or a standalone image file (``-o``).  Prints the content digest.

image load IMAGE [--store DIR] [--dynamic DATUM ...] [--disassemble]
    Load a persisted image — IMAGE is a file path, or a content digest
    (unique prefix allowed) resolved in ``--store`` — verify its
    bytecode, and run it on the dynamic arguments if given.

image ls --store DIR [--json]
    List the store's images: key, content digest, size, goal.

image gc --store DIR [--max-bytes N] [--dry-run] [--json]
    Evict least-recently-used images beyond the size budget and drop
    dangling index references.  ``--dry-run`` reports which objects
    would be evicted and the bytes reclaimed, deleting nothing.

trace [FILE --sig SIG] [--builtin all|examples|workloads] [--json] [-o OUT]
    Run the full pipeline (build extension, generate object code, run
    it) with the span tracer and metrics registry enabled; print a text
    tree of every pipeline stage (BTA, congruence, safety analysis,
    specialize, assemble, verify, caches) with durations, or — with
    ``--json`` — the Chrome trace-event JSON (load it in
    ``chrome://tracing`` or https://ui.perfetto.dev).

profile [FILE --sig SIG] [--builtin all|examples|workloads] [--json]
    Generate object code and run it under the VM's *counting* dispatch
    loop: per-opcode execution counts, per-template invocation and
    instruction counts, and the hot-template ranking.  ``--repeat N``
    runs the residual program N times (counts accumulate).

serve [--host H] [--port P] [--store DIR] [--trust TENANT ...]
    Run the specialization service: a concurrent multi-tenant server
    speaking the length-prefixed frame protocol of
    :mod:`repro.serve.protocol`.  Each tenant gets its own generating
    extensions, residual caches and quotas; untrusted tenants pass
    through forbid-mode admission control.  Prints ``listening on
    HOST:PORT`` (stderr) once bound; ``--port 0`` picks an ephemeral
    port.  Stop with SIGINT/SIGTERM.

loadgen [--host H --port P] [--clients N] [--requests N] [--json]
    Drive concurrent clients against a specialization server and report
    cold/warm latency percentiles, throughput, and provenance counts
    over the §7 benchmark workloads.  Without ``--host``/``--port`` an
    in-process server is started for the run.  Exit status 1 on any
    protocol error or non-BUSY request error.

combinators
    Print the generated code-generation combinator module (Act 3's file).

Every command that compiles, generates or loads object code
bytecode-verifies it, and no flag turns that off (``disasm --verify``
only adds the report to the output).

Exit status: 0 on success, 1 on any reported error (bad input file,
parse error, specialization failure, corrupt image or code that fails
the verifier), 2 on usage errors, 141 (as under SIGPIPE), with nothing
on stderr, when the reader of stdout closes it early (``| head``).
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from pathlib import Path

from repro.compiler import compile_program
from repro.interp import run_program
from repro.lang import parse_program, unparse_def, unparse_program
from repro.lang.prelude import with_prelude
from repro.pe import analyze
from repro.pe.errors import PEError
from repro.lang.prims import write_value
from repro.runtime.errors import SchemeError
from repro.runtime.values import datum_to_value
from repro.sexp import read, write
from repro.vm import disassemble


def _load(path: str, goal: str | None, prelude: bool):
    text = Path(path).read_text()
    if prelude:
        return with_prelude(text, goal=goal)
    return parse_program(text, goal=goal)


def _data(items: list[str]) -> list:
    return [datum_to_value(read(item)) for item in items]


def cmd_run(args: argparse.Namespace) -> int:
    program = _load(args.file, args.goal, args.prelude)
    compiled = compile_program(program, compiler="auto")
    print(write_value(compiled.run(_data(args.args))))
    return 0


def cmd_interp(args: argparse.Namespace) -> int:
    program = _load(args.file, args.goal, args.prelude)
    print(write_value(run_program(program, _data(args.args))))
    return 0


def _extension(program, args: argparse.Namespace):
    """The generating extension for ``program`` under ``--sig`` and the
    analysis hints."""
    from repro.rtcg import GeneratingExtension

    return GeneratingExtension(
        program,
        args.sig,
        memo_hints=args.memo or (),
        unfold_hints=args.unfold or (),
    )


def cmd_specialize(args: argparse.Namespace) -> int:
    program = _load(args.file, args.goal, args.prelude)
    residual = _extension(program, args).to_source(
        _data(args.static or []), dif_strategy=args.dif_strategy
    )
    for d in unparse_program(residual.program):
        print(write(d))
    print(
        f";; goal: {residual.goal}  dynamic params:"
        f" ({' '.join(p.name for p in residual.goal_params)})",
        file=sys.stderr,
    )
    return 0


def cmd_rtcg(args: argparse.Namespace) -> int:
    program = _load(args.file, args.goal, args.prelude)
    residual = _extension(program, args).to_object_code(
        _data(args.static or []), dif_strategy=args.dif_strategy
    )
    if args.disassemble:
        for closure in residual.machine.globals.values():
            print(disassemble(closure.template), file=sys.stderr)
    if args.dynamic is not None:
        print(write_value(residual.run(_data(args.dynamic))))
    return 0


def cmd_annotate(args: argparse.Namespace) -> int:
    program = _load(args.file, args.goal, args.prelude)
    result = analyze(
        program,
        args.sig,
        memo_hints=args.memo or (),
        unfold_hints=args.unfold or (),
    )
    for d in result.annotated.defs:
        marker = "memoized" if d.residual else "unfolded"
        bts = "".join(bt.value for bt in d.bts)
        print(f";; {d.name}  [{bts}]  ({marker})")
        from repro.lang.ast import Def

        print(write(unparse_def(Def(d.name, d.params, d.body))))
    return 0


def _cfg_entry(template) -> list[dict]:
    """JSON-ready basic-block summary of a template's CFG."""
    from repro.vm.cfg import build_cfg
    from repro.vm.instructions import opcode_name

    cfg = build_cfg(template)
    preds = cfg.predecessors()
    return [
        {
            "start": block.start,
            "end": block.end,
            "terminator": opcode_name(block.terminator[0]),
            "succs": list(block.succs),
            "preds": list(preds[block.start]),
            "falls_off": block.falls_off,
        }
        for block in (cfg.blocks[leader] for leader in cfg.order)
    ]


def _print_cfg(name: str, blocks: list[dict]) -> None:
    print(f";; cfg {name}: {len(blocks)} block(s)")
    for b in blocks:
        succs = ", ".join(f"L{s}" for s in b["succs"]) or "(exit)"
        if b["falls_off"]:
            succs += "  !falls-off-end"
        preds = ", ".join(f"L{p}" for p in b["preds"]) or "(entry)"
        print(
            f";;   L{b['start']:<4} [{b['start']}..{b['end']})"
            f"  {b['terminator']:<14} -> {succs:<18} <- {preds}"
        )


def cmd_disasm(args: argparse.Namespace) -> int:
    import json

    from repro.vm.verify import check_template

    program = _load(args.file, args.goal, args.prelude)
    # compile_program rejects a template the verifier finds errors in,
    # so ``--verify`` reports the verdict and any warnings.
    compiled = compile_program(program, compiler=args.compiler)
    entries = []
    for name, template in compiled.templates.items():
        entry: dict = {
            "template": str(name),
            "disassembly": disassemble(template),
        }
        if args.cfg:
            entry["cfg"] = _cfg_entry(template)
        if args.verify:
            report = check_template(template)
            entry["verified"] = report.ok
            entry["violations"] = [str(v) for v in report.violations]
        entries.append(entry)
    if args.json:
        print(json.dumps({"templates": entries, "ok": True}, indent=2))
        return 0
    for entry in entries:
        print(entry["disassembly"])
        if args.cfg:
            _print_cfg(entry["template"], entry["cfg"])
        if args.verify:
            if entry["violations"]:
                print("\n".join(entry["violations"]))
            else:
                print(f";; {entry['template']}: verified ok")
        print()
    return 0


def _opt_template_entries(named_templates) -> tuple[list[dict], dict, bool]:
    """Optimize each ``(name, template)``: the report entries, the
    reported templates by name, and an ok flag.

    The optimizer verifies its input and re-verifies its output; the
    output is verified once more here so the entry lists any violation.
    ``ok`` drops on a violation or a
    :class:`~repro.vm.opt.TranslationValidationError`, whose template
    stays unoptimized in the returned templates.
    """
    from repro.vm.opt import TranslationValidationError, optimize
    from repro.vm.verify import check_template

    entries: list[dict] = []
    optimized: dict = {}
    ok = True
    for name, template in named_templates:
        optimized[name] = template
        try:
            result = optimize(template)
        except TranslationValidationError as exc:
            entries.append({
                "template": str(name),
                "error": str(exc),
                "verified": False,
            })
            ok = False
            continue
        optimized[name] = result.template
        report = check_template(result.template)
        entry = {
            "template": str(name),
            "before_instructions": result.before_instructions,
            "after_instructions": result.after_instructions,
            "removed": result.removed,
            "passes": dict(sorted(result.passes.items())),
            "skipped": result.skipped,
            "verified": not report.violations,
            "violations": [str(v) for v in report.violations],
            "before_disassembly": disassemble(template),
            "after_disassembly": disassemble(result.template),
        }
        if report.violations:
            ok = False
        entries.append(entry)
    return entries, optimized, ok


def _opt_differential(run_pairs) -> tuple[dict, bool]:
    """Differentially execute unoptimized/optimized twins.

    ``run_pairs`` maps a dispatch-loop label to a ``(run_base,
    run_optimized)`` pair of thunks; results are compared by their
    written (external) representation.
    """
    runs: dict = {}
    agree = True
    for label, (run_base, run_opt) in run_pairs.items():
        base_repr = write_value(run_base())
        opt_repr = write_value(run_opt())
        same = base_repr == opt_repr
        runs[label] = {
            "unoptimized": base_repr,
            "optimized": opt_repr,
            "agree": same,
        }
        agree = agree and same
    return runs, agree


def cmd_opt(args: argparse.Namespace) -> int:
    import json

    from repro.compiler.program import CompiledProgram
    from repro.pe.backend import ResidualProgram
    from repro.vm.machine import VmClosure
    from repro.vm.profile import VMProfile, call_named_profiled

    # Specialization targets (--builtin, and FILE when --sig is given)
    # optimize *residual* templates; a FILE without --sig optimizes the
    # straight compilation of the program itself.  Either way the
    # optimized twin that runs is built from the reported templates.
    plain_file = args.file if args.file and not args.sig else None
    if plain_file:
        args.file = None
    spec_targets = (
        _runnable_targets(args) if args.builtin or args.file else []
    )
    if plain_file:
        args.file = plain_file
    if not spec_targets and not plain_file:
        raise ValueError("opt needs FILE [--sig SIG], and/or --builtin")

    target_reports: dict[str, dict] = {}
    ok = True

    if plain_file:
        program = _load(plain_file, args.goal, args.prelude)
        base = compile_program(program, compiler="auto")
        entries, optimized, t_ok = _opt_template_entries(sorted(
            base.templates.items(), key=lambda item: item[0].name
        ))
        optd = CompiledProgram(optimized, base.goal)
        report: dict = {"templates": entries}
        if args.dynamic:
            dynamics = _data(args.dynamic)
            runs, agree = _opt_differential({
                "machine": (
                    lambda: base.run(dynamics),
                    lambda: optd.run(dynamics),
                ),
                "profiled": (
                    lambda: call_named_profiled(
                        base.machine(), base.goal, dynamics, VMProfile()
                    ),
                    lambda: call_named_profiled(
                        optd.machine(), optd.goal, dynamics, VMProfile()
                    ),
                ),
            })
            report["differential"] = runs
            t_ok = t_ok and agree
        target_reports[plain_file] = report
        ok = ok and t_ok

    if spec_targets:
        from repro.rtcg import GeneratingExtension

        for label, program, sig, goal, statics, dynamics in spec_targets:
            gen = GeneratingExtension(program, sig, goal=goal)
            base = gen.to_object_code(statics, dif_strategy=args.dif_strategy)
            named = sorted(
                (
                    (name, value.template)
                    for name, value in base.machine.globals.items()
                    if isinstance(value, VmClosure)
                ),
                key=lambda item: item[0].name,
            )
            entries, optimized, t_ok = _opt_template_entries(named)
            optd = ResidualProgram(
                goal=base.goal,
                goal_params=base.goal_params,
                machine=CompiledProgram(optimized, base.goal).machine(),
            )
            runs, agree = _opt_differential({
                "machine": (
                    lambda b=base: b.run(dynamics),
                    lambda o=optd: o.run(dynamics),
                ),
                "profiled": (
                    lambda b=base: b.run_profiled(dynamics, VMProfile()),
                    lambda o=optd: o.run_profiled(dynamics, VMProfile()),
                ),
            })
            target_reports[label] = {
                "templates": entries,
                "differential": runs,
            }
            ok = ok and t_ok and agree

    for report in target_reports.values():
        entries = [e for e in report["templates"] if "error" not in e]
        before = sum(e["before_instructions"] for e in entries)
        after = sum(e["after_instructions"] for e in entries)
        report["before_instructions"] = before
        report["after_instructions"] = after
        report["reduction"] = (before - after) / before if before else 0.0

    if args.json:
        print(json.dumps(
            {"targets": target_reports, "ok": ok}, indent=2
        ))
        return 0 if ok else 1

    for label, report in target_reports.items():
        print(f";; {label}")
        for e in report["templates"]:
            if "error" in e:
                print(f";; template {e['template']}: {e['error']}")
                continue
            passes = ", ".join(
                f"{name} x{n}" for name, n in e["passes"].items()
            ) or "none"
            print(
                f";; template {e['template']}:"
                f" {e['before_instructions']} ->"
                f" {e['after_instructions']} instruction(s)"
                f"  (passes: {passes})"
            )
            print(e["before_disassembly"])
            print(";;   -- optimized to -->")
            print(e["after_disassembly"])
            if e["violations"]:
                print("\n".join(";; " + v for v in e["violations"]))
        if "differential" in report:
            for loop, run in report["differential"].items():
                verdict = (
                    f"ok (result: {run['optimized']})" if run["agree"]
                    else f"MISMATCH ({run['unoptimized']}"
                    f" vs {run['optimized']})"
                )
                print(f";; differential [{loop}]: {verdict}")
        print(
            f";; total: {report['before_instructions']} ->"
            f" {report['after_instructions']} instruction(s)"
            f"  (-{report['reduction'] * 100:.1f}%)"
        )
        print()
    print(";; opt: ok" if ok else ";; opt: FAILED")
    return 0 if ok else 1


def cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.pe.check import check_bta
    from repro.vm.verify import VerificationError, check_template

    targets = _gather_targets(args, sig_optional=True)
    multi = len(targets) > 1
    errors = 0
    warnings = 0
    bytecode_findings = []
    bta_findings = []
    division_reports = []
    linted_sig = False
    for label, program, sig, goal in targets:
        for backend in ("stock", "auto"):
            # compile_program verifies: a template with errors stops it,
            # and its report is the backend's finding.  A clean
            # compilation can still carry warnings.
            try:
                compiled = compile_program(program, compiler=backend)
            except VerificationError as exc:
                reports = [exc.report]
            else:
                reports = [
                    check_template(t) for t in compiled.templates.values()
                ]
            for report in reports:
                if report.violations:
                    finding = {
                        "backend": backend,
                        "template": report.template.name,
                        "violations": [str(v) for v in report.violations],
                        "pretty": report.pretty(),
                    }
                    if multi:
                        finding["target"] = label
                    bytecode_findings.append(finding)
                errors += len(report.errors)
                warnings += len(report.warnings)
        if not sig:
            continue
        linted_sig = True
        memo = args.memo or () if label == args.file else ()
        unfold = args.unfold or () if label == args.file else ()
        result = analyze(
            program, sig, memo_hints=memo, unfold_hints=unfold, bta=args.bta
        )
        congruence = check_bta(result)
        prefix = f"{label}: " if multi else ""
        bta_findings.extend(prefix + str(v) for v in congruence)
        errors += len(congruence)
        if args.division and args.bta == "poly":
            from repro.analysis import analyze_division

            division_reports.append((
                label,
                analyze_division(
                    program, sig, memo_hints=memo, unfold_hints=unfold
                ),
            ))
    if args.json:
        payload = {
            "clean": errors == 0,
            "errors": errors,
            "warnings": warnings,
            "bytecode": [
                {k: f[k] for k in f if k != "pretty"}
                for f in bytecode_findings
            ],
            "bta": bta_findings,
        }
        if division_reports:
            payload["division"] = {
                label: report.to_json()
                for label, report in division_reports
            }
        print(json.dumps(payload, indent=2))
        return 1 if errors else 0
    for f in bytecode_findings:
        where = f" {f['target']}" if "target" in f else ""
        print(f";; [{f['backend']}]{where} template {f['template']}:")
        print(f["pretty"])
    for v in bta_findings:
        print(f";; [bta] {v}")
    for label, report in division_reports:
        print(f";; [division] {label}:")
        for line in str(report).splitlines():
            print(";;   " + line)
    noun = "signature and bytecode" if linted_sig else "bytecode"
    if errors:
        print(f";; lint: {errors} error(s), {warnings} warning(s)")
        return 1
    print(f";; lint: {noun} clean ({warnings} warning(s))")
    return 0


# The built-in targets of ``analyze --builtin``: every Scheme program
# embedded in examples/ (file, module constant, signature, goal) plus
# the two §7 benchmark workloads.  CI runs this as a self-gate.
_EXAMPLE_PROGRAMS = (
    ("quickstart.py", "POWER", "DS", "power"),
    ("rtcg_matcher.py", "MATCHER", "SD", "match"),
    ("incremental_rtcg.py", "ENGINE", "SD", "matches?"),
)


def _builtin_targets(which: str) -> list:
    """(label, program, signature, goal) tuples for --builtin."""
    targets = []
    if which in ("workloads", "all"):
        from repro.workloads import (
            LAZY_SIGNATURE,
            MIXWELL_SIGNATURE,
            lazy_interpreter,
            mixwell_interpreter,
        )

        targets.append(
            ("workload:mixwell", mixwell_interpreter(), MIXWELL_SIGNATURE, None)
        )
        targets.append(
            ("workload:lazy", lazy_interpreter(), LAZY_SIGNATURE, None)
        )
    if which in ("examples", "all"):
        import importlib.util

        examples = Path(__file__).resolve().parents[2] / "examples"
        if not examples.is_dir():
            raise OSError(
                f"examples directory not found at {examples}"
                " (--builtin examples needs a repository checkout)"
            )
        for fname, const, sig, goal in _EXAMPLE_PROGRAMS:
            spec = importlib.util.spec_from_file_location(
                f"_repro_example_{fname[:-3]}", examples / fname
            )
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            targets.append(
                (f"example:{fname}:{const}", getattr(module, const), sig, goal)
            )
    return targets


def cmd_analyze(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import analyze_program

    targets = _gather_targets(args)
    reports = []
    total = 0
    for label, program, sig, goal in targets:
        memo = args.memo or () if label == args.file else ()
        unfold = args.unfold or () if label == args.file else ()
        report = analyze_program(
            program, sig, goal=goal, memo_hints=memo, unfold_hints=unfold,
            bta=args.bta, with_division=args.division,
        )
        reports.append((label, report))
        total += len(report.findings)
    if args.json:
        print(json.dumps(
            {
                "safe": total == 0,
                "programs": {
                    label: report.to_json() for label, report in reports
                },
            },
            indent=2,
        ))
        return 1 if total else 0
    for label, report in reports:
        print(f";; {label}: {report}")
        if args.metrics and report.metrics:
            for name, entry in sorted(report.metrics.items()):
                print(f";;   {name}: {entry}")
    if total:
        print(f";; analyze: {total} finding(s) across {len(reports)} program(s)")
        return 1
    print(f";; analyze: {len(reports)} program(s), no findings")
    return 0


def cmd_bta(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.division import lift_sites
    from repro.pe.check import check_bta

    targets = _gather_targets(args)
    entries = {}
    violations_total = 0
    for label, program, sig, goal in targets:
        memo = args.memo or () if label == args.file else ()
        unfold = args.unfold or () if label == args.file else ()
        result = analyze(
            program, sig, memo_hints=memo, unfold_hints=unfold,
            bta=args.bta, max_variants=args.max_variants,
        )
        violations = check_bta(result)
        violations_total += len(violations)
        variants = []
        for d in result.annotated.defs:
            info = result.variants.get(d.name)
            variants.append({
                "name": str(d.name),
                "display": info.display if info else str(d.name),
                "origin": str(result.origin_of(d.name)),
                "signature": "".join(bt.value for bt in d.bts),
                "classification": "memo" if d.residual else "unfold",
                "call_sites": list(info.call_sites) if info else [],
                "lift_sites": list(lift_sites(d.body)),
                "decisions": [
                    {"path": path, "callee": str(callee), "decision": dec}
                    for path, callee, dec in result.decisions.get(d.name, ())
                ],
            })
        entries[label] = {
            "mode": result.mode,
            "signature": sig,
            "widened": [str(o) for o in sorted(result.widened, key=str)],
            "variants": variants,
            "congruence_violations": [str(v) for v in violations],
        }
    if args.json:
        print(json.dumps(
            {"clean": violations_total == 0, "programs": entries}, indent=2
        ))
        return 1 if violations_total else 0
    for label, entry in entries.items():
        widened = (
            f", widened: {', '.join(entry['widened'])}"
            if entry["widened"] else ""
        )
        print(
            f";; {label} [{entry['signature']}] {entry['mode']}:"
            f" {len(entry['variants'])} definition(s){widened}"
        )
        for v in entry["variants"]:
            print(f";;   {v['display']} [{v['signature']}]"
                  f" ({v['classification']})")
            for d in v["decisions"]:
                print(f";;     call {d['callee']} at {d['path']}:"
                      f" {d['decision']}")
            for site in v["lift_sites"]:
                print(f";;     lift at {site}")
            for site in v["call_sites"]:
                print(f";;     variant from {site}")
        for vio in entry["congruence_violations"]:
            print(f";;   violation: {vio}")
        print()
    if violations_total:
        print(f";; bta: {violations_total} congruence violation(s)")
        return 1
    print(f";; bta: {len(entries)} program(s), congruent")
    return 0


# Sample static/dynamic arguments (Scheme data) for the built-in
# targets, so ``trace``/``profile --builtin`` exercise the whole
# pipeline end to end, including running the residual code.
_BUILTIN_RUN_ARGS = {
    "example:quickstart.py:POWER": (["5"], ["2"]),
    "example:rtcg_matcher.py:MATCHER": (
        ["(config (host (? h)) (port (? p)) (host (? h)))"],
        ["(config (host a) (port 80) (host a))"],
    ),
    "example:incremental_rtcg.py:ENGINE": (
        ["((age gt 30) (dept eq engineering) (level lt 5))"],
        ["((age 41) (dept engineering) (level 3))"],
    ),
}


def _builtin_run_args(label: str) -> tuple:
    """Sample ``(statics, dynamics)`` run arguments for a builtin target."""
    if label in _BUILTIN_RUN_ARGS:
        statics_raw, dynamics_raw = _BUILTIN_RUN_ARGS[label]
        return _data(statics_raw), _data(dynamics_raw)
    if label == "workload:mixwell":
        from repro.workloads import mixwell_tm_program

        return [mixwell_tm_program()], [datum_to_value([1, 0, 1, 1, 0, 1])]
    if label == "workload:lazy":
        from repro.workloads import lazy_primes_program

        return [lazy_primes_program()], [4]
    # pragma: no cover - new builtin without run args
    raise ValueError(f"no sample run arguments for builtin {label}")


def _gather_targets(
    args: argparse.Namespace,
    runnable: bool = False,
    sig_optional: bool = False,
) -> list:
    """Sample-program loading shared by every multi-target subcommand.

    ``lint``/``analyze``/``bta``/``opt``/``trace``/``profile`` all accept
    ``--builtin all|examples|workloads`` targets plus an optional FILE;
    this is their one loader with one error path: every usage problem
    (missing FILE and ``--builtin``, FILE without a required ``--sig``)
    raises :class:`ValueError`, which :func:`main` prints as
    ``error: ...`` and turns into exit status 1 — never a traceback.

    Entries are ``(label, program, sig, goal)`` tuples, extended with
    ``(statics, dynamics)`` sample run arguments when ``runnable``
    (from ``--static``/``--dynamic`` for a FILE target, from the baked-in
    sample inputs for builtin targets).  Programs are always parsed —
    embedded example sources are run through the parser here.
    """
    targets = []
    if getattr(args, "builtin", None):
        for label, program, sig, goal in _builtin_targets(args.builtin):
            if isinstance(program, str):
                program = parse_program(program, goal=goal)
            entry = (label, program, sig, goal)
            if runnable:
                entry += _builtin_run_args(label)
            targets.append(entry)
    if getattr(args, "file", None):
        if not args.sig and not sig_optional:
            raise ValueError(f"{args.command} FILE needs --sig")
        program = _load(args.file, args.goal, args.prelude)
        entry = (args.file, program, args.sig, None)
        if runnable:
            entry += (_data(args.static or []), _data(args.dynamic or []))
        targets.append(entry)
    if not targets:
        sig = " [--sig SIG]" if sig_optional else " --sig SIG"
        raise ValueError(
            f"{args.command} needs FILE{sig}, and/or --builtin"
        )
    return targets


def _runnable_targets(args: argparse.Namespace) -> list:
    """(label, program, sig, goal, statics, dynamics) for trace/profile."""
    return _gather_targets(args, runnable=True)


def cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro import obs
    from repro.rtcg import GeneratingExtension

    targets = _runnable_targets(args)
    with obs.tracing() as (tracer, metrics):
        for label, program, sig, goal, statics, dynamics in targets:
            with obs.span("pipeline", target=label):
                gen = GeneratingExtension(program, sig, goal=goal)
                residual = gen.to_object_code(
                    statics, dif_strategy=args.dif_strategy
                )
                with obs.span("vm.run", target=label):
                    residual.run(dynamics)
    if args.json:
        trace = tracer.chrome_trace()
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(trace, fh, indent=2)
            print(f";; wrote {len(trace['traceEvents'])} events to {args.out}")
        else:
            print(json.dumps(trace, indent=2))
        return 0
    print(tracer.report())
    print()
    print(";; stage totals")
    for name, entry in tracer.stage_totals().items():
        print(
            f";;   {name:<28} x{entry['count']:<4}"
            f" {entry['seconds'] * 1e3:9.3f} ms"
        )
    print(";; metrics")
    for line in metrics.report().splitlines():
        print(";; " + line)
    if args.out:
        with open(args.out, "w") as fh:
            tracer.write_chrome_trace(fh)
        print(f";; wrote Chrome trace to {args.out}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    import json

    from repro.rtcg import GeneratingExtension
    from repro.vm.profile import VMProfile

    targets = _runnable_targets(args)
    results = []
    for label, program, sig, goal, statics, dynamics in targets:
        gen = GeneratingExtension(program, sig, goal=goal)
        residual = gen.to_object_code(
            statics, dif_strategy=args.dif_strategy
        )
        profile = VMProfile()
        value = None
        for _ in range(args.repeat):
            value = residual.run_profiled(dynamics, profile)
        results.append((label, profile, value))
    if args.json:
        print(json.dumps(
            {label: profile.to_json() for label, profile, _ in results},
            indent=2,
        ))
        return 0
    for label, profile, value in results:
        result = write_value(value) if args.repeat > 0 else "(not run)"
        print(f";; {label}  (result: {result})")
        for line in profile.report(top=args.top).splitlines():
            print(";; " + line)
        print()
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.rtcg import GeneratingExtension

    program = _load(args.file, args.goal, args.prelude)
    gen = GeneratingExtension(
        program,
        args.sig,
        memo_hints=args.memo or (),
        unfold_hints=args.unfold or (),
        cache_size=args.cache_size,
        store_dir=args.store,
        remote_store=args.remote,
    )
    static = _data(args.static or [])
    generate = {
        "object": lambda: gen.to_object_code(
            static, dif_strategy=args.dif_strategy
        ),
        "source": lambda: gen.to_source(
            static, dif_strategy=args.dif_strategy
        ),
    }[args.backend]

    t0 = time.perf_counter()
    residual = generate()
    cold = time.perf_counter() - t0
    warm_times = []
    for _ in range(max(args.repeat - 1, 1)):
        t0 = time.perf_counter()
        generate()
        warm_times.append(time.perf_counter() - t0)
    warm = min(warm_times)
    # With a remote tier attached, drain the write-behind queue before
    # reporting (and before the process exits with images still queued).
    gen.flush_store()
    stats = gen.cache_stats()
    speedup = cold / warm if warm > 0 else float("inf")
    if args.json:
        print(json.dumps({
            "backend": args.backend,
            "dif_strategy": args.dif_strategy,
            "residual_defs": residual.stats.get("residual_defs"),
            "cold_generation_ms": cold * 1e3,
            "cached_application_ms": warm * 1e3,
            "amortized_speedup": speedup,
            "disk_hit": bool(residual.stats.get("disk_hit", False)),
            "cache": stats,
        }, indent=2, default=str))
        return 0
    print(f"backend:             {args.backend}")
    print(f"dif strategy:        {args.dif_strategy}")
    print(f"residual defs:       {residual.stats.get('residual_defs', '?')}")
    print(f"cold generation:     {cold * 1e3:.3f} ms")
    print(f"cached application:  {warm * 1e3:.3f} ms")
    print(f"amortized speedup:   {speedup:.1f}x")
    print(
        f"cache:               {stats['hits']} hit(s),"
        f" {stats['misses']} miss(es), {stats['evictions']} eviction(s),"
        f" {stats['entries']}/{stats['maxsize']} entries"
    )
    if "store" in stats:
        ss = stats["store"]
        print(
            f"image store:         {ss['hits']} hit(s), {ss['misses']}"
            f" miss(es), {ss['writes']} write(s) at {ss['root']}"
        )
        if "remote" in ss:
            rs = ss["remote"]
            print(
                f"remote tier:         {rs['remote_hits']} hit(s),"
                f" {rs['remote_misses']} miss(es),"
                f" {rs['write_behind.flush']} pushed,"
                f" {rs['write_behind.drop']} dropped at {rs['endpoint']}"
                f"{' [down]' if rs['down'] else ''}"
            )
    return 0


def _image_store(args: argparse.Namespace):
    from repro.image import ImageStore

    return ImageStore(args.store)


def _resolve_digest(store, prefix: str) -> str:
    """Resolve a (possibly abbreviated) content digest in the store."""
    matches = []
    try:
        for shard in sorted(store.backend.objects_dir.iterdir()):
            if not shard.is_dir():
                continue
            for obj in sorted(shard.iterdir()):
                if obj.name.startswith(prefix):
                    matches.append(obj.name)
    except OSError:
        pass
    if not matches:
        raise FileNotFoundError(
            f"no image matches digest prefix {prefix!r} in {store.root}"
        )
    if len(matches) > 1:
        raise ValueError(
            f"digest prefix {prefix!r} is ambiguous"
            f" ({len(matches)} matches)"
        )
    return matches[0]


def cmd_image_export(args: argparse.Namespace) -> int:
    from repro.image import save_image
    from repro.rtcg import GeneratingExtension

    if not args.store and not args.out and not args.remote:
        print(
            "error: image export needs --store, --remote, and/or -o",
            file=sys.stderr,
        )
        return 2
    program = _load(args.file, args.goal, args.prelude)
    gen = GeneratingExtension(
        program,
        args.sig,
        memo_hints=args.memo or (),
        unfold_hints=args.unfold or (),
        store_dir=args.store,
        remote_store=args.remote,
    )
    static = _data(args.static or [])
    if args.backend == "object":
        residual = gen.to_object_code(static, dif_strategy=args.dif_strategy)
    else:
        residual = gen.to_source(static, dif_strategy=args.dif_strategy)
    status = 0
    if args.remote and not gen.flush_store():
        print(
            "error: the write-behind queue did not drain (remote"
            " object server unreachable?)",
            file=sys.stderr,
        )
        status = 1
    if args.store or args.remote:
        digest = residual.stats.get("image_digest")
        if digest is None:
            print(
                "error: the image could not be persisted to the store"
                " (unwritable directory, or statics with no stable"
                " cross-process identity)",
                file=sys.stderr,
            )
            status = 1
        else:
            print(f"{digest}  key={residual.stats['image_key']}")
    if args.out:
        digest = save_image(residual, args.out)
        print(f"{digest}  file={args.out}")
    return status


def cmd_image_load(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.image import load_image, verify_residual

    if Path(args.image).is_file():
        residual = load_image(args.image)
        verify_residual(residual)
    elif args.store:
        store = _image_store(args)
        residual = store.load(_resolve_digest(store, args.image))
    else:
        raise FileNotFoundError(
            f"{args.image!r} is not an image file (pass --store to resolve"
            " it as a content digest)"
        )
    kind = "object" if residual.machine is not None else "source"
    params = " ".join(p.name for p in residual.goal_params)
    print(
        f";; image: goal {residual.goal} ({params}) [{kind}; verified yes]",
        file=sys.stderr,
    )
    if args.disassemble and residual.machine is not None:
        from repro.vm.machine import VmClosure

        for name in sorted(residual.machine.globals, key=lambda s: s.name):
            value = residual.machine.globals[name]
            if isinstance(value, VmClosure):
                print(disassemble(value.template), file=sys.stderr)
    if args.dynamic is not None:
        print(write_value(residual.run(_data(args.dynamic))))
    return 0


def cmd_image_ls(args: argparse.Namespace) -> int:
    import json

    # An inventory command must not invent an empty store: refuse (exit
    # 1 with a message, via main's error boundary) instead of mkdir-ing.
    if not Path(args.store).is_dir():
        raise OSError(
            f"image store directory {args.store!r} does not exist"
            " (or is not a directory)"
        )
    entries = _image_store(args).ls(strict=True)
    if args.json:
        print(json.dumps(entries, indent=2))
        return 0
    if not entries:
        print(";; store is empty")
        return 0
    for e in entries:
        if "error" in e:
            print(f"{e['key'][:16]}  <unreadable: {e['error']}>")
            continue
        print(
            f"{e['object'][:16]}  {e['bytes']:6d} B  {e.get('kind', '?'):6}"
            f"  {e.get('goal', '?')}({' '.join(e.get('params', []))})"
            f"  key={e['key'][:16]}"
        )
    return 0


def cmd_image_gc(args: argparse.Namespace) -> int:
    import json

    report = _image_store(args).gc(
        max_bytes=args.max_bytes, dry_run=args.dry_run
    )
    if args.json:
        print(json.dumps(report, indent=2))
    elif args.dry_run:
        for doomed in report["would_remove"]:
            print(f"would remove {doomed['object']}  {doomed['bytes']} B")
        print(
            f"would remove {report['removed_objects']} object(s),"
            f" {report['removed_refs']} dangling ref(s);"
            f" {report['bytes_before']} ->"
            f" {report['bytes_after']} bytes (dry run)"
        )
    else:
        print(
            f"removed {report['removed_objects']} object(s),"
            f" {report['removed_refs']} dangling ref(s);"
            f" {report['bytes_before']} -> {report['bytes_after']} bytes"
        )
    return 0


def _remote_client(args: argparse.Namespace):
    from repro.image import RemoteStoreClient, parse_endpoint

    host, port = parse_endpoint(args.remote)
    return RemoteStoreClient(host, port)


def cmd_image_serve_store(args: argparse.Namespace) -> int:
    from repro.image import ObjectServer

    server = ObjectServer(
        args.store,
        host=args.host,
        port=args.port,
        max_connections=args.max_connections,
    )
    return _serve_until_signalled(
        server, f"serving image objects from {args.store}",
        "object server stopped",
    )


def cmd_image_sync(args: argparse.Namespace) -> int:
    import json

    from repro.image import sync_stores

    report = sync_stores(_image_store(args), _remote_client(args))
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(
            f"pushed {report['objects_pushed']} object(s)"
            f" ({report['objects_deduped']} already remote),"
            f" wrote {report['refs_written']} ref(s),"
            f" {report['errors']} error(s) -> {report['remote']}"
        )
    return 1 if report["errors"] else 0


def cmd_image_prefetch(args: argparse.Namespace) -> int:
    import json

    from repro.image import prefetch_store

    report = prefetch_store(_image_store(args), _remote_client(args))
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(
            f"fetched {report['objects_fetched']} object(s),"
            f" wrote {report['refs_written']} ref(s)"
            f" ({report['refs_current']} already current),"
            f" {report['errors']} error(s) <- {report['remote']}"
        )
    return 1 if report["errors"] else 0


def cmd_image_fsck(args: argparse.Namespace) -> int:
    import json

    # Like ls: repairing a store that does not exist would silently
    # invent an empty one.
    if not Path(args.store).is_dir():
        raise OSError(
            f"image store directory {args.store!r} does not exist"
            " (or is not a directory)"
        )
    report = _image_store(args).fsck()
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(
            f"checked {report['checked']} object(s):"
            f" {len(report['corrupt'])} corrupt,"
            f" {report['quarantined']} quarantined,"
            f" {report['removed_refs']} ref(s) pruned"
        )
        for digest in report["corrupt"]:
            print(f"  corrupt: {digest}")
    return 0 if report["ok"] else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import SpecializationServer, TenantQuota

    quota = TenantQuota(
        max_programs=args.max_programs,
        max_cached_residuals=args.max_cached_residuals,
        max_in_flight=args.max_in_flight,
        max_unfold_depth=args.max_unfold_depth,
        max_residual_size=args.max_residual_size,
    )
    server = SpecializationServer(
        host=args.host,
        port=args.port,
        max_connections=args.max_connections,
        quota=quota,
        trusted=frozenset(args.trust or ()),
        store_dir=args.store,
        remote_store=args.remote_store,
    )
    return _serve_until_signalled(server, "listening", "server stopped")


def _serve_until_signalled(server, what: str, farewell: str) -> int:
    """Start ``server`` and run it until SIGINT/SIGTERM.  Prints
    ``<what> on HOST:PORT`` to stderr once it listens (scripts parse the
    endpoint from that line) and ``farewell`` after the clean stop."""
    import signal
    import time

    stop = {"requested": False}

    def request_stop(signum, frame):  # pragma: no cover - signal path
        stop["requested"] = True

    server.start()
    print(f"{what} on {server.host}:{server.port}", file=sys.stderr)
    sys.stderr.flush()
    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        previous[sig] = signal.signal(sig, request_stop)
    try:
        while not stop["requested"]:
            time.sleep(0.2)
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        server.stop()
    print(farewell, file=sys.stderr)
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    import json

    from repro.serve.loadgen import render_report, run_load, select_workloads

    workloads = select_workloads(args.workload) if args.workload else None
    own_server = None
    host, port = args.host, args.port
    if port is None:
        # No server given: run one in-process for the duration, with
        # quotas sized to the requested concurrency (the builtin
        # workloads pass forbid-mode admission, so no --trust needed).
        from repro.serve import SpecializationServer, TenantQuota

        own_server = SpecializationServer(
            host=host,
            port=0,
            store_dir=args.store,
            quota=TenantQuota(max_in_flight=max(args.clients, 8)),
            max_connections=max(args.clients + 4, 64),
        )
        own_server.start()
        port = own_server.port
    try:
        report = run_load(
            host,
            port,
            clients=args.clients,
            requests=args.requests,
            workloads=workloads,
            tenant=args.tenant,
            think_ms=args.think_ms,
        )
    finally:
        if own_server is not None:
            own_server.stop()
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(render_report(report))
    failed = report["protocol_errors"] > 0 or any(
        code != "BUSY" for code in report["errors"]
    )
    return 1 if failed else 0


def cmd_combinators(args: argparse.Namespace) -> int:
    from repro.compiler.combinator_source import emit_combinator_module

    print(emit_combinator_module())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Composing partial evaluation and compilation"
        " (Sperber & Thiemann, PLDI 1997).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def listener(p: argparse.ArgumentParser, port: int) -> None:
        """Where a frame server listens, and its connection pool bound."""
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument(
            "--port", type=int, default=port,
            help=f"TCP port (0 picks an ephemeral port; default: {port})",
        )
        p.add_argument(
            "--max-connections", type=int, default=64, dest="max_connections",
            help="connection pool bound; excess connections get a retryable"
            " BUSY frame (default: 64)",
        )

    def common(p: argparse.ArgumentParser, needs_sig: bool) -> None:
        p.add_argument("file", help="Scheme source file")
        p.add_argument("--goal", help="goal function name")
        p.add_argument(
            "--prelude", action="store_true", help="splice in the prelude"
        )
        if needs_sig:
            p.add_argument(
                "--sig", required=True,
                help="binding-time signature, e.g. SD",
            )
            p.add_argument(
                "--static", action="append",
                help="a static argument (Scheme datum); repeatable",
            )
            p.add_argument("--memo", action="append", help="memoization hint")
            p.add_argument("--unfold", action="append", help="unfold hint")
            p.add_argument(
                "--dif-strategy", default="duplicate",
                choices=("duplicate", "join"), dest="dif_strategy",
            )

    p = sub.add_parser("run", help="compile and run on the VM")
    common(p, needs_sig=False)
    p.add_argument("args", nargs="*", help="goal arguments (Scheme data)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("interp", help="run through the reference interpreter")
    common(p, needs_sig=False)
    p.add_argument("args", nargs="*")
    p.set_defaults(fn=cmd_interp)

    p = sub.add_parser("specialize", help="print the residual source program")
    common(p, needs_sig=True)
    p.set_defaults(fn=cmd_specialize)

    p = sub.add_parser("rtcg", help="generate object code and run it")
    common(p, needs_sig=True)
    p.add_argument(
        "--dynamic", action="append",
        help="a dynamic argument (Scheme datum); repeatable",
    )
    p.add_argument("--disassemble", action="store_true")
    p.set_defaults(fn=cmd_rtcg)

    p = sub.add_parser("annotate", help="print the annotated program")
    common(p, needs_sig=True)
    p.set_defaults(fn=cmd_annotate)

    p = sub.add_parser("disasm", help="print template disassembly")
    common(p, needs_sig=False)
    p.add_argument(
        "--compiler", default="auto", choices=("auto", "stock", "anf")
    )
    p.add_argument(
        "--verify", action="store_true",
        help="append each template's verification report",
    )
    p.add_argument(
        "--cfg", action="store_true",
        help="append each template's basic-block boundaries and"
        " successor edges",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit templates and verification findings as JSON",
    )
    p.set_defaults(fn=cmd_disasm)

    p = sub.add_parser(
        "lint", help="bytecode-verify templates; lint BTA output with --sig"
    )
    p.add_argument("file", nargs="?", help="Scheme source file")
    p.add_argument("--goal", help="goal function name")
    p.add_argument(
        "--prelude", action="store_true", help="splice in the prelude"
    )
    p.add_argument("--sig", help="binding-time signature, e.g. SD")
    p.add_argument("--memo", action="append", help="memoization hint")
    p.add_argument("--unfold", action="append", help="unfold hint")
    p.add_argument(
        "--bta", default="poly", choices=("mono", "poly"),
        help="binding-time discipline to lint under (default: poly)",
    )
    p.add_argument(
        "--builtin", choices=("all", "examples", "workloads"),
        help="also lint the bundled example programs and/or the §7"
        " benchmark workloads (the CI self-gate)",
    )
    p.add_argument(
        "--division", action="store_true",
        help="append the division-quality report (polyvariant division"
        " vs. the monovariant baseline) for each signed target",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit the findings as a JSON object",
    )
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser(
        "analyze",
        help="specialization-safety analysis: termination and code bloat",
    )
    p.add_argument("file", nargs="?", help="Scheme source file")
    p.add_argument("--goal", help="goal function name")
    p.add_argument(
        "--prelude", action="store_true", help="splice in the prelude"
    )
    p.add_argument("--sig", help="binding-time signature, e.g. SD")
    p.add_argument("--memo", action="append", help="memoization hint")
    p.add_argument("--unfold", action="append", help="unfold hint")
    p.add_argument(
        "--builtin", choices=("all", "examples", "workloads"),
        help="also analyze the bundled example programs and/or the §7"
        " benchmark workloads (the CI self-gate)",
    )
    p.add_argument(
        "--metrics", action="store_true",
        help="print per-specialization-point code-bloat metrics",
    )
    p.add_argument(
        "--bta", default="poly", choices=("mono", "poly"),
        help="binding-time discipline to analyze under (default: poly)",
    )
    p.add_argument(
        "--division", action="store_true",
        help="append the division-quality report (polyvariant division"
        " vs. the monovariant baseline)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit reports as a JSON object",
    )
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser(
        "bta",
        help="print the binding-time division: variants, unfold/memo"
        " decisions, lift sites",
    )
    p.add_argument("file", nargs="?", help="Scheme source file")
    p.add_argument("--goal", help="goal function name")
    p.add_argument(
        "--prelude", action="store_true", help="splice in the prelude"
    )
    p.add_argument("--sig", help="binding-time signature, e.g. SD")
    p.add_argument("--memo", action="append", help="memoization hint")
    p.add_argument("--unfold", action="append", help="unfold hint")
    p.add_argument(
        "--bta", default="poly", choices=("mono", "poly"),
        help="binding-time discipline (default: poly)",
    )
    p.add_argument(
        "--max-variants", type=int, default=8, dest="max_variants",
        help="polyvariant fan-out cap per function (default: 8)",
    )
    p.add_argument(
        "--builtin", choices=("all", "examples", "workloads"),
        help="also divide the bundled example programs and/or the §7"
        " benchmark workloads (the CI self-gate)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit the division as a JSON object",
    )
    p.set_defaults(fn=cmd_bta)

    def observability(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", nargs="?", help="Scheme source file")
        p.add_argument("--goal", help="goal function name")
        p.add_argument(
            "--prelude", action="store_true", help="splice in the prelude"
        )
        p.add_argument("--sig", help="binding-time signature, e.g. SD")
        p.add_argument(
            "--static", action="append",
            help="a static argument (Scheme datum); repeatable",
        )
        p.add_argument(
            "--dynamic", action="append",
            help="a dynamic argument (Scheme datum); repeatable",
        )
        p.add_argument(
            "--dif-strategy", default="duplicate",
            choices=("duplicate", "join"), dest="dif_strategy",
        )
        p.add_argument(
            "--builtin", choices=("all", "examples", "workloads"),
            help="trace/profile the bundled example programs and/or the"
            " §7 benchmark workloads with sample inputs",
        )

    p = sub.add_parser(
        "trace",
        help="trace every pipeline stage; text tree or Chrome trace JSON",
    )
    observability(p)
    p.add_argument(
        "--json", action="store_true",
        help="emit Chrome trace-event JSON instead of the text report",
    )
    p.add_argument(
        "-o", "--out", help="also write the Chrome trace JSON to a file"
    )
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "profile",
        help="run residual code under the counting VM dispatch loop",
    )
    observability(p)
    p.add_argument(
        "--repeat", type=int, default=1,
        help="run the residual program N times (default: 1)",
    )
    p.add_argument(
        "--top", type=int, default=10,
        help="hot templates to list (default: 10)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit the profile as a JSON object",
    )
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser(
        "opt",
        help="dataflow-optimize templates, with translation validation",
    )
    observability(p)
    p.add_argument(
        "--json", action="store_true",
        help="emit per-template deltas and differential results as JSON",
    )
    p.set_defaults(fn=cmd_opt)

    p = sub.add_parser(
        "stats", help="residual-cache statistics for repeated application"
    )
    common(p, needs_sig=True)
    p.add_argument(
        "--repeat", type=int, default=5,
        help="number of applications (default: 5)",
    )
    p.add_argument(
        "--backend", default="object", choices=("object", "source"),
    )
    p.add_argument(
        "--cache-size", type=int, default=128, dest="cache_size",
        help="residual-cache capacity (default: 128)",
    )
    p.add_argument(
        "--store", help="attach an on-disk image store (L2 tier)",
    )
    p.add_argument(
        "--remote", metavar="HOST:PORT",
        help="attach a remote object server (L3 tier behind --store)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit the statistics as a JSON object",
    )
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser(
        "image", help="persist and load residual object-code images"
    )
    image_sub = p.add_subparsers(dest="image_command", required=True)

    p = image_sub.add_parser(
        "export", help="specialize and persist the residual image"
    )
    common(p, needs_sig=True)
    p.add_argument("--store", help="content-addressed store directory")
    p.add_argument(
        "--remote", metavar="HOST:PORT",
        help="also push the image to a remote object server (L3)",
    )
    p.add_argument("-o", "--out", help="also write a standalone image file")
    p.add_argument(
        "--backend", default="object", choices=("object", "source"),
    )
    p.set_defaults(fn=cmd_image_export)

    p = image_sub.add_parser(
        "load", help="load (verify, optionally run) a persisted image"
    )
    p.add_argument(
        "image", help="image file path, or content digest with --store"
    )
    p.add_argument("--store", help="store directory for digest lookup")
    p.add_argument(
        "--dynamic", action="append",
        help="a dynamic argument (Scheme datum); repeatable",
    )
    p.add_argument("--disassemble", action="store_true")
    p.set_defaults(fn=cmd_image_load)

    p = image_sub.add_parser("ls", help="list the store's images")
    p.add_argument("--store", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_image_ls)

    p = image_sub.add_parser("gc", help="bound the store's size")
    p.add_argument("--store", required=True)
    p.add_argument(
        "--max-bytes", type=int, default=None, dest="max_bytes",
        help="object-payload budget (default: drop dangling refs only)",
    )
    p.add_argument(
        "--dry-run", action="store_true", dest="dry_run",
        help="report what would be evicted without deleting anything",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_image_gc)

    p = image_sub.add_parser(
        "fsck", help="scan for torn/corrupt objects and repair the store"
    )
    p.add_argument("--store", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_image_fsck)

    p = image_sub.add_parser(
        "serve-store",
        help="serve a store directory to remote workers (L3 object tier)",
    )
    p.add_argument("--store", required=True)
    listener(p, 7459)
    p.set_defaults(fn=cmd_image_serve_store)

    p = image_sub.add_parser(
        "sync", help="push the local store's objects to a remote server"
    )
    p.add_argument("--store", required=True)
    p.add_argument(
        "--remote", required=True, metavar="HOST:PORT",
        help="object server endpoint (see: image serve-store)",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_image_sync)

    p = image_sub.add_parser(
        "prefetch",
        help="pull the remote inventory down into the local store",
    )
    p.add_argument("--store", required=True)
    p.add_argument(
        "--remote", required=True, metavar="HOST:PORT",
        help="object server endpoint (see: image serve-store)",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_image_prefetch)

    p = sub.add_parser(
        "serve",
        help="run the concurrent multi-tenant specialization service",
    )
    listener(p, 7357)
    p.add_argument(
        "--store",
        help="root directory for per-tenant on-disk image stores (L2)",
    )
    p.add_argument(
        "--remote-store", metavar="HOST:PORT", dest="remote_store",
        help="shared remote object server (L3) behind every tenant's L2;"
        " replicas pointed at one endpoint share a warm cache",
    )
    p.add_argument(
        "--trust", action="append", metavar="TENANT",
        help="tenant whose admission findings warn instead of denying;"
        " repeatable",
    )
    p.add_argument(
        "--max-programs", type=int, default=8, dest="max_programs",
        help="distinct programs cached per tenant (default: 8)",
    )
    p.add_argument(
        "--max-cached-residuals", type=int, default=64,
        dest="max_cached_residuals",
        help="residual-cache capacity per tenant program (default: 64)",
    )
    p.add_argument(
        "--max-in-flight", type=int, default=8, dest="max_in_flight",
        help="concurrent requests per tenant before BUSY (default: 8)",
    )
    p.add_argument(
        "--max-unfold-depth", type=int, default=5000,
        dest="max_unfold_depth",
        help="per-request unfold-depth ceiling (default: 5000)",
    )
    p.add_argument(
        "--max-residual-size", type=int, default=1_000_000,
        dest="max_residual_size",
        help="per-request residual-size ceiling (default: 1000000)",
    )
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "loadgen",
        help="drive concurrent clients against a specialization server",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=None,
        help="server port (omit to start an in-process server)",
    )
    p.add_argument(
        "--builtin", choices=("workloads",), default="workloads",
        help="request mix (currently: the §7 benchmark workloads)",
    )
    p.add_argument(
        "--workload", action="append", choices=("mixwell", "lazy"),
        help="restrict the mix to the named workload(s); repeatable",
    )
    p.add_argument(
        "--clients", type=int, default=10,
        help="concurrent client connections (default: 10)",
    )
    p.add_argument(
        "--requests", type=int, default=16,
        help="requests per client (default: 16)",
    )
    p.add_argument("--tenant", default="loadgen")
    p.add_argument(
        "--think-ms", type=float, default=0.0, dest="think_ms",
        help="per-client pause between requests in ms (0 = closed-loop"
        " saturation; a few ms measures latency instead of queueing)",
    )
    p.add_argument(
        "--store",
        help="store directory for the in-process server (L2 tier)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit the report as a JSON object",
    )
    p.set_defaults(fn=cmd_loadgen)

    p = sub.add_parser("combinators", help="print the generated combinators")
    p.set_defaults(fn=cmd_combinators)

    # Note: with `run`/`interp`, give goal arguments right after FILE
    # (before any --options), e.g. ``run power.scm 2 10 --goal power``.
    ns = parser.parse_args(argv)
    try:
        status = ns.fn(ns)
        # Flush here, so a closed pipe is seen below and not at
        # interpreter shutdown.
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader stopped early (``| head``), which is normal use:
        # exit as a process killed by SIGPIPE would, and point stdout at
        # /dev/null so that the flush at shutdown has nothing to report.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 128 + signal.SIGPIPE
    except (SchemeError, PEError, OSError, ValueError) as exc:
        # User-level failures (missing files, parse errors, bad
        # signatures, corrupt images) exit with a message, not a
        # traceback; genuine bugs still propagate.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
