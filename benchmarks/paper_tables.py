"""Regenerate the paper's evaluation tables (Figs. 6-10) in one run.

Usage::

    python benchmarks/paper_tables.py [--rounds N]

Prints Markdown tables in the shape of the paper's figures, with the
paper's original numbers alongside for comparison.  EXPERIMENTS.md is
produced from this script's output.
"""

from __future__ import annotations

import argparse
import tempfile
import time
from pathlib import Path

from repro import obs
from repro.compiler import ObjectCodeBackend, StockCompiler, compile_program
from repro.lang import parse_program, unparse_program
from repro.pe import SourceBackend, analyze
from repro.pe.cogen import compile_generating_extension
from repro.rtcg import make_generating_extension
from repro.runtime.values import datum_to_value
from repro.sexp import write
from repro.vm.opt import optimize
from repro.workloads import (
    LAZY_SIGNATURE,
    MIXWELL_SIGNATURE,
    lazy_interpreter,
    lazy_primes_program,
    mixwell_interpreter,
    mixwell_tm_program,
)

ROUNDS = 7


def best_of(fn, rounds=None):
    times = []
    for _ in range(rounds or ROUNDS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def split_generation(ext, static, rounds=None):
    """The fastest of N object-code generations: ``(total, verify)``
    seconds, ``verify`` being that run's own ``vm.verify`` spans.

    Generation always verifies; the paper's generation has no
    verifier, so its bare time is ``total - verify``.
    """
    runs = []
    for _ in range(rounds or ROUNDS):
        registry = obs.MetricsRegistry()
        with obs.recording(registry):
            t0 = time.perf_counter()
            ext.generate([static], backend=ObjectCodeBackend())
            total = time.perf_counter() - t0
        runs.append((total, obs.stage_totals(registry)["vm.verify"]["seconds"]))
    return min(runs)


def residual_instructions(residual) -> int:
    """Instructions over a residual program's templates."""
    from repro.vm.machine import VmClosure

    return sum(
        value.template.instruction_count()
        for value in residual.machine.globals.values()
        if isinstance(value, VmClosure)
    )


def ms(seconds: float) -> str:
    return f"{seconds * 1000:8.2f}"


def workloads():
    return [
        ("MIXWELL", mixwell_interpreter(), MIXWELL_SIGNATURE, mixwell_tm_program()),
        ("LAZY", lazy_interpreter(), LAZY_SIGNATURE, lazy_primes_program()),
    ]


def stage_breakdown(rows) -> None:
    """Per-stage wall-clock totals from ``cache_stats()["stages"]``.

    ``GeneratingExtension`` records every span its construction and
    generations open (``pe.bta``, ``pe.congruence``, ``analysis.safety``,
    ``pe.cogen.compile``, ``pe.specialize``, ``vm.assemble``,
    ``vm.verify``, ``image.*``) into an always-on registry, keyed by
    span name; fold them under the figure so the headline numbers come
    with their decomposition.  Nested spans count in full, so
    ``pe.specialize`` includes the assembly and verification inside it
    and the rows do not sum to a total.
    """
    print("stage breakdown (from `cache_stats()[\"stages\"]`):")
    print()
    print("| workload | stage | calls | total (ms) |")
    print("|---|---|---|---|")
    for name, stages in rows:
        for stage, entry in sorted(stages.items()):
            print(
                f"| {name} | {stage} | {entry['count']} |"
                f" {ms(entry['seconds'])} |"
            )
    print()


def fig6(store_root=None) -> None:
    print("## Figure 6 — Generation speed (ms, best of N)")
    print()
    print(
        "| workload | source code | object code | ratio |"
        " object+verify | verify overhead | optimize pass | opt share |"
        " disk hit (warm start) |"
        " paper src (s) | paper obj (s) | paper ratio |"
    )
    print("|---|---|---|---|---|---|---|---|---|---|---|---|")
    paper = {"MIXWELL": (3.072, 3.770), "LAZY": (1.832, 3.451)}
    store_root = Path(store_root or tempfile.mkdtemp(prefix="repro-fig6-"))
    stage_rows = []
    for name, interp, sig, static in workloads():
        gen = make_generating_extension(interp, sig)
        ext = gen.compiled()
        t_src = best_of(lambda: ext.generate([static], backend=SourceBackend()))
        # Object code: the fastest generation less its own verify spans;
        # object+verify: that generation as it runs.
        t_ver, t_verify = split_generation(ext, static)
        t_obj = t_ver - t_verify
        # The stand-alone optimizer over the default residual's
        # templates, as a share of that verified generation.
        default = ObjectCodeBackend()
        ext.generate([static], backend=default)
        t_opt = best_of(
            lambda: [optimize(t) for t in default.templates.values()]
        )
        # Warm start: the store is populated, L1 dropped each round, so
        # every application decodes + re-verifies the persisted image.
        store_gen = make_generating_extension(
            interp, sig, store_dir=store_root / name.lower()
        )
        store_gen.to_object_code([static])

        def from_disk():
            store_gen.cache_clear()
            rp = store_gen.to_object_code([static])
            assert rp.stats["disk_hit"]

        t_disk = best_of(from_disk)
        p_src, p_obj = paper[name]
        print(
            f"| {name} | {ms(t_src)} | {ms(t_obj)} |"
            f" {t_obj / t_src:.2f}x | {ms(t_ver)} |"
            f" {t_ver / t_obj:.2f}x | {ms(t_opt)} |"
            f" {t_opt / t_ver:.1%} | {ms(t_disk)} |"
            f" {p_src} | {p_obj} |"
            f" {p_obj / p_src:.2f}x |"
        )
        # One cold generation through the extension's own pipeline so
        # the specialize stage shows up next to the construction stages
        # (BTA, lint, safety analysis, compiling the extension).
        gen.cache_clear()
        gen.to_object_code([static])
        stage_rows.append((name, gen.cache_stats()["stages"]))
    print()
    stage_breakdown(stage_rows)


def fig7() -> None:
    print("## Figure 7 — Compilation times for the specialization output (ms)")
    print()
    print(
        "| workload | load residual source (print+read+compile) |"
        " src gen + load | direct object gen | direct/two-pass |"
        " residual instrs | optimized instrs | reduction |"
    )
    print("|---|---|---|---|---|---|---|---|")
    for name, interp, sig, static in workloads():
        ext = make_generating_extension(interp, sig).compiled()
        rp = ext.generate([static], backend=SourceBackend())

        def two_pass():
            # Generate source, print it, read it back and compile it.
            src = ext.generate([static], backend=SourceBackend())
            text = "\n".join(write(d) for d in unparse_program(src.program))
            program = parse_program(text, goal=src.goal.name)
            compile_program(program)

        def load_route():
            text = "\n".join(write(d) for d in unparse_program(rp.program))
            program = parse_program(text, goal=rp.goal.name)
            compile_program(program)

        def direct():
            ext.generate([static], backend=ObjectCodeBackend())

        # Every route runs as it does by default: verifier on, no
        # optimizer.  The routes alternate, so neither owns the warmer
        # half of a run.
        routes = {"two-pass": two_pass, "load": load_route, "direct": direct}
        times: dict[str, list[float]] = {route: [] for route in routes}
        order = list(routes)
        for _ in range(ROUNDS):
            for route in order:
                t0 = time.perf_counter()
                routes[route]()
                times[route].append(time.perf_counter() - t0)
            order.reverse()
        t_two, t_load, t_obj = (
            min(times[route]) for route in ("two-pass", "load", "direct")
        )
        # Static payoff of the stand-alone optimizer on the default
        # residual templates (recursive over nested closure templates).
        default = ObjectCodeBackend()
        ext.generate([static], backend=default)
        results = [optimize(t) for t in default.templates.values()]
        n_before = sum(r.before_instructions for r in results)
        n_after = sum(r.after_instructions for r in results)
        print(
            f"| {name} | {ms(t_load)} | {ms(t_two)} |"
            f" {ms(t_obj)} | {t_obj / t_two:.2f} |"
            f" {n_before} | {n_after} |"
            f" {(n_before - n_after) / n_before:.1%} |"
        )
    print()


def fig8(store_root=None) -> None:
    print("## Figure 8 — Using RTCG for normal compilation (ms)")
    print()
    print("| workload | BTA | Load | Generate | Compile | Warm start |")
    print("|---|---|---|---|---|---|")
    store_root = Path(store_root or tempfile.mkdtemp(prefix="repro-fig8-"))
    stage_rows = []
    for name, interp, sig, static in workloads():
        t_bta = best_of(lambda: analyze(interp, "DD"), rounds=5)
        bta = analyze(interp, "DD")
        t_load = best_of(
            lambda: compile_generating_extension(bta.annotated), rounds=5
        )
        ext = compile_generating_extension(bta.annotated)
        t_gen = best_of(
            lambda: ext.generate([], backend=ObjectCodeBackend()), rounds=5
        )
        stock = StockCompiler()
        names = frozenset(d.name for d in interp.defs)
        t_compile = best_of(
            lambda: [
                stock.compile_procedure(
                    d.params, d.body, name=d.name.name, program=names
                )
                for d in interp.defs
            ],
            rounds=5,
        )
        # Warm start: what a fresh process pays when the image store is
        # already populated — decode + re-verify instead of BTA + Load +
        # Generate.
        store = store_root / name.lower()
        make_generating_extension(interp, "DD", store_dir=store).to_object_code([])
        warm_gen = make_generating_extension(interp, "DD", store_dir=store)

        def from_disk():
            warm_gen.cache_clear()
            rp = warm_gen.to_object_code([])
            assert rp.stats["disk_hit"]

        t_warm = best_of(from_disk, rounds=5)
        print(
            f"| {name} | {ms(t_bta)} | {ms(t_load)} |"
            f" {ms(t_gen)} | {ms(t_compile)} | {ms(t_warm)} |"
        )
        stage_rows.append((name, warm_gen.cache_stats()["stages"]))
    print()
    stage_breakdown(stage_rows)
    print("paper (s): MIXWELL 2.730 / 4.026 / 0.652 / 0.964;"
          " LAZY 2.253 / 3.217 / 0.568 / 0.604"
          " (warm start has no paper analogue: residual code did not"
          " survive the Scheme 48 session)")
    print()


def fig10() -> None:
    print("## Figure 10 (ours) — Specialization service latency")
    print()
    print(
        "| workload | cold p50 (ms) | warm p50 (ms) | warm p99 (ms) |"
        " warm speedup | specializer runs |"
    )
    print("|---|---|---|---|---|---|")
    from repro.serve import SpecializationServer, TenantQuota
    from repro.serve.loadgen import run_load

    clients = 10
    with tempfile.TemporaryDirectory(prefix="repro-fig10-") as store:
        with SpecializationServer(
            port=0,
            store_dir=store,
            quota=TenantQuota(max_in_flight=clients),
            max_connections=clients + 4,
        ) as server:
            report = run_load(
                "127.0.0.1", server.port, clients=clients, requests=16,
                think_ms=5.0,
            )
    runs = (report.get("coalescing") or {}).get("specializer_runs", "?")
    for name, entry in report["workloads"].items():
        cold, warm = entry["cold_ms"], entry["warm_ms"]
        speedup = (
            f"{entry['p50_speedup']:.1f}x" if "p50_speedup" in entry else "?"
        )
        print(
            f"| {name.upper()} | {ms(cold['p50'] / 1e3)} |"
            f" {ms(warm['p50'] / 1e3)} | {ms(warm['p99'] / 1e3)} |"
            f" {speedup} | {runs} total |"
        )
    print()
    print(
        f"({clients} concurrent clients x 16 requests over real sockets,"
        f" one tenant; {report['ok']}/{report['total_requests']} ok,"
        f" {report['throughput_rps']:.0f} req/s."
        " Cold = each client's first request per workload — the"
        " stampede is coalesced by the single-flight cache into one"
        " specializer run per key; warm = every later request, an L1"
        " hit.  No paper analogue: the paper's extensions are"
        " in-process; this table prices the same amortization claim"
        " behind a service boundary.)"
    )
    print()


def fig11() -> None:
    print("## Figure 11 (ours) — Distributed warm starts (remote L3 tier)")
    print()
    print(
        "| workload | fully cold (ms) | warm L3, cold local (ms) |"
        " speedup | specializer runs (machine 2) |"
    )
    print("|---|---|---|---|---|")
    from repro.image.remote import ObjectServer

    rounds = min(ROUNDS, 5)
    root = Path(tempfile.mkdtemp(prefix="repro-fig11-"))
    for name, interp, sig, static in workloads():
        with ObjectServer(root / f"{name.lower()}-l3", port=0) as server:
            endpoint = ("127.0.0.1", server.port)
            m1 = make_generating_extension(
                interp, sig, store_dir=root / f"{name.lower()}-m1",
                remote_store=endpoint,
            )
            m1.to_object_code([static])
            assert m1.flush_store()
            m1.close_store()

            def cold(interp=interp, sig=sig, static=static):
                gen = make_generating_extension(interp, sig)
                return best_of(
                    lambda: gen.to_object_code([static]), rounds=1
                )

            t_cold = min(cold() for _ in range(rounds))
            stats = {}
            machines = iter(range(10_000))

            def warm(
                interp=interp, sig=sig, static=static, name=name,
                endpoint=endpoint, stats=stats, machines=machines,
            ):
                gen = make_generating_extension(
                    interp, sig,
                    store_dir=root / f"{name.lower()}-m2-{next(machines)}",
                    remote_store=endpoint,
                )
                t = best_of(lambda: gen.to_object_code([static]), rounds=1)
                stats.update(gen.cache_stats())
                gen.close_store(flush=False)
                return t

            t_warm = min(warm() for _ in range(rounds))
        runs = stats["specializer_runs"]
        print(
            f"| {name} | {ms(t_cold)} | {ms(t_warm)} |"
            f" {t_cold / t_warm:7.1f}x | {runs} |"
        )
    print()
    print(
        "(Machine 1 specializes once and publishes the image to a"
        " shared object server; machine 2 boots with a cold process"
        " AND a cold local store, and its first call is a remote fetch"
        " + decode + re-verify — the network is untrusted, so the"
        " bytecode verifier runs on every remote image before it can"
        " reach the machine.  Extension construction (BTA, congruence,"
        " safety analysis) is identical on both machines and sits"
        " outside the timed region, as in Figure 8.  No paper analogue:"
        " residual code did not leave the Scheme 48 heap, let alone the"
        " machine.)"
    )
    print()


def ablations() -> None:
    print("## Ablations")
    print()
    # A1: the two routes of compile_program on the residual sources.
    print("### A1 — compile_program: ANF route vs stock compiler (§6.1)")
    print()
    print(
        "| workload | ANF route (ms) | stock (ms) | ANF/stock |"
        " instrs (ANF) | instrs (stock) |"
    )
    print("|---|---|---|---|---|---|")
    for name, interp, sig, static in workloads():
        program = make_generating_extension(interp, sig).to_source(
            [static]
        ).program
        times: dict[str, list[float]] = {"auto": [], "stock": []}
        order = list(times)
        for _ in range(ROUNDS):
            for compiler in order:
                t0 = time.perf_counter()
                compile_program(program, compiler)
                times[compiler].append(time.perf_counter() - t0)
            order.reverse()
        t_anf, t_stock = min(times["auto"]), min(times["stock"])
        n_anf, n_stock = (
            compile_program(program, compiler).instruction_count()
            for compiler in ("auto", "stock")
        )
        print(
            f"| {name} | {ms(t_anf)} | {ms(t_stock)} |"
            f" {t_anf / t_stock:.2f} | {n_anf} | {n_stock} |"
        )
    print()
    # A2: specialization speedup.
    print("### A2 — specialization speedup (interpreter vs residual, on the VM)")
    print()
    print("| workload | interpreted (ms) | specialized (ms) | speedup |")
    print("|---|---|---|---|")
    cases = {
        "MIXWELL": (
            mixwell_interpreter(),
            MIXWELL_SIGNATURE,
            mixwell_tm_program(),
            [datum_to_value([1, 0, 1, 1, 0, 1])],
        ),
        "LAZY": (lazy_interpreter(), LAZY_SIGNATURE, lazy_primes_program(), [4]),
    }
    for name, (interp, sig, static, dyn_args) in cases.items():
        compiled_interp = compile_program(interp, compiler="auto")
        machine = compiled_interp.machine()
        ext = make_generating_extension(interp, sig).compiled()
        specialized = ext.generate([static], backend=ObjectCodeBackend())
        t_i = best_of(
            lambda: compiled_interp.run([static, *dyn_args], machine)
        )
        t_s = best_of(lambda: specialized.run(list(dyn_args)))
        print(f"| {name} | {ms(t_i)} | {ms(t_s)} | {t_i / t_s:.1f}x |")
    print()

    # A3: cogen vs interpreted annotations.
    from repro.pe import Specializer

    print("### A3 — compiled generating extension vs interpreting annotations (ms)")
    print()
    print("| workload | specializer | compiled extension | speedup |")
    print("|---|---|---|---|")
    for name, interp, sig, static in workloads():
        gen = make_generating_extension(interp, sig)
        ext = gen.compiled()
        t_interp = best_of(
            lambda: Specializer(gen.bta.annotated, SourceBackend()).run([static])
        )
        t_cogen = best_of(lambda: ext.generate([static]))
        print(f"| {name} | {ms(t_interp)} | {ms(t_cogen)} | {t_interp / t_cogen:.2f}x |")
    print()

    # Monovariant vs polyvariant division on the residual code.
    print("### Monovariant vs polyvariant division on the residual code")
    print()
    print(
        "| workload | residual instrs (mono) | residual instrs (poly) |"
        " reduction |"
    )
    print("|---|---|---|---|")
    for name, interp, sig, static in workloads():
        # A generating extension runs the polyvariant division; the
        # monovariant baseline is compiled from its annotation directly.
        mono = residual_instructions(
            compile_generating_extension(
                analyze(interp, sig, bta="mono").annotated
            ).generate([static], ObjectCodeBackend(), dif_strategy="join")
        )
        poly = residual_instructions(
            make_generating_extension(interp, sig)
            .to_object_code([static], dif_strategy="join")
        )
        print(f"| {name} | {mono} | {poly} | {(mono - poly) / mono:.1%} |")
    print()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--rounds", type=int, default=7)
    args = parser.parse_args()
    global ROUNDS
    ROUNDS = args.rounds
    fig6()
    fig7()
    fig8()
    fig10()
    fig11()
    ablations()


if __name__ == "__main__":
    main()
