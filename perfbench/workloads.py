"""The three workloads: ``cold``, ``run`` and ``serve``.

Each workload function takes the seed, the measuring time, a
:class:`~layers.LayerTracer` (or ``None`` for the untraced run) and a
scratch directory inside the checkout, and returns a plain dict:

* ``setup_s``: the median of the run's set-ups;
* ``construct_ms``: from :class:`Constructions`;
* ``latencies_ms``: one entry per completed, timed op;
* ``busy_s``: the time the throughput is taken over;
* ``attempted``, ``errors``, ``wrong``: failure accounting;
* ``exact``: counts that must repeat exactly for a seed;
* ``layers``: per-layer figures (traced run only);
* ``shares``: the measured mix of the input property the workload
  depends on.

Every GeneratingExtension and server knob stays at its default; only
store directories, ports and the remote endpoint are passed.
"""

from __future__ import annotations

import os
import re
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any

import gen
from layers import LayerTracer, count_instructions, delta
from oracle import Reference, binary_increment, nth_prime

# Set-ups per run of ``cold`` and ``run``, one after another before the
# timed loop; setup_s is their median.  ``serve`` sets up once.
SETUP_REPEATS = 5
# Construction rounds per untraced run: one before set-up, the rest
# spread over the timed loop and the last one after it; and the
# constructions per interpreter in each round.
CONSTRUCT_ROUNDS = 6
CONSTRUCT_REPEATS = 3
# The first ops of a ``cold`` run whose counts must repeat exactly (ten
# cycles), and the fewest ops it times; ``run`` counts over its first
# cycle.
COLD_COUNT_OPS = 100
SERVE_CLIENTS = 2


def _interpreters() -> dict[str, tuple[str, str, str]]:
    from repro.workloads import (
        LAZY_GOAL, LAZY_SIGNATURE, LAZY_SOURCE,
        MIXWELL_GOAL, MIXWELL_SIGNATURE, MIXWELL_SOURCE,
    )

    return {
        "mixwell": (MIXWELL_SOURCE, MIXWELL_SIGNATURE, MIXWELL_GOAL),
        "lazy": (LAZY_SOURCE, LAZY_SIGNATURE, LAZY_GOAL),
    }


def _value(source: str) -> Any:
    from repro.runtime.values import datum_to_value
    from repro.sexp.reader import read

    return datum_to_value(read(source))


def _printed(value: Any) -> str:
    from repro.lang.prims import write_value

    return write_value(value)


def _construct(store_dirs: dict[str, Any],
               remote: Any = None) -> dict[str, Any]:
    """Build both extensions."""
    from repro.rtcg import GeneratingExtension

    return {
        lang: GeneratingExtension(
            source, signature, goal=goal,
            store_dir=store_dirs.get(lang), remote_store=remote,
        )
        for lang, (source, signature, goal) in _interpreters().items()
    }


class Constructions:
    """``GeneratingExtension`` construction times of one run, without
    stores, taken in rounds spread over the run (:data:`CONSTRUCT_ROUNDS`).

    The host runs at one of two speeds about 1.5x apart and switches
    every few seconds, so a round of a second reads one of them.  A
    median over all of a run's constructions would take the speed of
    the majority of its rounds, and jump between the two from run to
    run; the mean over the rounds moves with the share of each.
    """

    def __init__(self) -> None:
        self.rounds: list[dict[str, list[float]]] = []
        self.layers: dict[str, float] = {}

    def round(self, tracer: "LayerTracer | None") -> None:
        """Construct each extension :data:`CONSTRUCT_REPEATS` times.  The
        first round gives the construction layers' figures; later ones
        run with the tracer paused, so that they add nothing to the
        figures of the loop they interrupt."""
        from repro.rtcg import GeneratingExtension

        first = not self.rounds
        mark = tracer.snapshot() if tracer and first else None
        times: dict[str, list[float]] = {}
        with tracer.paused() if tracer and not first else nullcontext():
            for _ in range(CONSTRUCT_REPEATS):
                for lang, (source, signature, goal) in (
                        _interpreters().items()):
                    t0 = time.perf_counter()
                    GeneratingExtension(source, signature, goal=goal)
                    times.setdefault(lang, []).append(
                        time.perf_counter() - t0)
        self.rounds.append(times)
        if mark is not None:
            self.layers = _construct_layers(
                delta(tracer.snapshot(), mark), 2 * CONSTRUCT_REPEATS)

    def due(self, progress: float) -> bool:
        """Whether a timed loop ``progress`` of the way through its
        measuring time is due its next round."""
        between = CONSTRUCT_ROUNDS - 1
        return (len(self.rounds) < between
                and progress >= len(self.rounds) / between)

    def construct_ms(self) -> float:
        """The mean over the rounds of each round's figure: the mean
        over the two interpreters of each one's median in the round (a
        median over both would fall between them)."""
        return statistics.mean(
            statistics.mean(statistics.median(t) for t in times.values())
            for times in self.rounds) * 1e3


def _peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _per(seconds: dict, calls: int, name: str, scale: float = 1e3) -> float:
    return seconds.get(name, 0.0) * scale / calls if calls else 0.0


def _ratio(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def _op_layers(phase: dict, ops: int) -> dict[str, float]:
    """Per-op self times and counts of the generation layers."""
    s, c, n = phase["seconds"], phase["calls"], phase["counts"]
    return {
        "pe.specializer.self_ms": _per(s, ops, "pe.specializer"),
        "compiler.assemble_ms": _per(s, ops, "compiler.assemble"),
        "vm.verify_ms": _per(s, ops, "vm.verify"),
        "vm.verify.templates": n.get("vm.verify.templates", 0) / ops,
        "vm.opt_ms": _per(s, ops, "vm.opt"),
        "pe.freeze_us": _per(s, c.get("pe.freeze", 0), "pe.freeze", 1e6),
        "pe.cache.self_ms": _per(s, ops, "pe.residual_cache"),
        "pe.cache.l1_hit_ratio": _ratio(
            n.get("pe.cache.hits", 0), n.get("pe.cache.misses", 0)
        ),
        "image.encode_ms": _per(s, ops, "image.encode"),
        "image.bytes_per_residual": (
            n.get("image.bytes", 0) / c["image.encode"]
            if c.get("image.encode") else 0.0
        ),
        "image.decode_ms": _per(s, ops, "image.decode"),
        "image.store.put_ms": _per(s, ops, "image.store.put"),
        "image.store.get_ms": _per(s, ops, "image.store.get"),
        "image.store.hit_ratio": _ratio(
            n.get("image.store.hits", 0), n.get("image.store.misses", 0)
        ),
        "image.tier.self_ms": _per(s, ops, "image.tier"),
        "image.l3.fetch_ms": _per(s, ops, "image.l3.fetch"),
        "image.l3.hit_ratio": _ratio(
            n.get("image.l3.hits", 0), n.get("image.l3.misses", 0)
        ),
        "vm.run_ms": _per(s, ops, "vm.run"),
        "rtcg.self_ms": _per(s, ops, "rtcg"),
        # Collections run inside whichever layer allocated, so this time
        # is part of the self times above, not added to them.
        "python.gc_ms": n.get("python.gc_s", 0) * 1e3 / ops,
        "python.gc_full": n.get("python.gc_full", 0) / ops,
    }


def _construct_layers(phase: dict, constructions: int) -> dict[str, float]:
    s = phase["seconds"]
    return {
        "lang.parse_ms": _per(s, constructions, "lang.parse"),
        "pe.bta_ms": _per(s, constructions, "pe.bta"),
        "pe.check_ms": _per(s, constructions, "pe.check"),
        "analysis.safety_ms": _per(s, constructions, "analysis.safety"),
    }


def _opt_memo(phase: dict) -> float:
    """Optimizer memo hits / optimizer calls."""
    calls = phase["calls"].get("vm.opt", 0)
    return phase["counts"].get("vm.optimize.memo_hit", 0) / calls \
        if calls else 0.0


class OpLog:
    """The timed ops of one closed loop and their failures."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.latencies_ms: list[float] = []
        self.busy = 0.0
        self.attempted = 0
        self.errors = 0
        self.wrong = 0

    def timed(self, fn: Any, *args: Any) -> tuple[bool, Any]:
        """Run one op; ``(True, result)``, or ``(False, None)`` when it
        raised (counted as an error)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # counted and reported, never fatal
            self.busy += time.perf_counter() - t0
            self.errors += 1
            print(f"{self.name} op failed: {exc!r}", file=sys.stderr)
            return False, None
        elapsed = time.perf_counter() - t0
        self.busy += elapsed
        self.latencies_ms.append(elapsed * 1e3)
        return True, result

    def check(self, got: str, expected: str, what: str) -> None:
        if got != expected:
            self.wrong += 1
            print(f"{self.name}: wrong value {got} != {expected} for {what}",
                  file=sys.stderr)

    def result(self, setups: list[float], constructs: Constructions,
               layers: dict[str, float], **extra: Any) -> dict[str, Any]:
        return {
            "setup_s": statistics.median(setups),
            "construct_ms": constructs.construct_ms(),
            "layers": {**constructs.layers, **layers},
            "latencies_ms": self.latencies_ms,
            "busy_s": self.busy,
            "attempted": self.attempted,
            "errors": self.errors,
            "wrong": self.wrong,
            **extra,
        }


def _sizes(sizes: dict[str, list[int]], ops: int) -> dict[str, float]:
    return {
        "input.mixwell_share": len(sizes["mixwell"]) / ops,
        "input.mixwell_size_mean": statistics.mean(sizes["mixwell"]),
        "input.lazy_size_mean": statistics.mean(sizes["lazy"]),
    }


# -- cold ----------------------------------------------------------------------


def _cold_setup(setups: list[float], workdir: Path) -> dict[str, Any]:
    """Both extensions, each over an empty L2 store."""
    t0 = time.perf_counter()
    exts = _construct({
        lang: tempfile.mkdtemp(dir=workdir) for lang in ("mixwell", "lazy")
    })
    setups.append(time.perf_counter() - t0)
    return exts


def cold(seed: int, seconds: float, tracer: "LayerTracer | None",
         workdir: Path) -> dict[str, Any]:
    """Generate code for never-seen static programs, one after another."""
    reference = Reference()
    constructs = Constructions()
    constructs.round(tracer)
    setups: list[float] = []
    for _ in range(SETUP_REPEATS):
        exts = _cold_setup(setups, workdir)
    layers: dict[str, float] = {}

    programs = gen.cold_programs(seed)
    log = OpLog("cold")
    exact = {"residual_instrs": 0, "vm.dispatches": 0,
             "pe.specializer.residual_defs": 0,
             "pe.bta.variants": sum(
                 len(e.bta.variants) for e in exts.values())}
    sizes: dict[str, list[int]] = {"mixwell": [], "lazy": []}
    results: list[tuple[Any, int, str]] = []  # program, input, printed value
    start = tracer.snapshot() if tracer else None
    count_mark = start
    while log.busy < seconds or log.attempted < COLD_COUNT_OPS:
        for _ in range(len(gen.COLD_CYCLE)):
            program, dynamic = next(programs)
            static = _value(program.source)
            sizes[program.lang].append(program.lines)
            ok, residual = log.timed(
                exts[program.lang].to_object_code, [static])
            if ok:
                with tracer.paused() if tracer else nullcontext():
                    results.append((program, dynamic,
                                    _run_checked(residual, [dynamic])))
                    if log.attempted <= COLD_COUNT_OPS:
                        exact["residual_instrs"] += count_instructions(
                            residual)
                        exact["pe.specializer.residual_defs"] += (
                            residual.stats["residual_defs"])
                        exact["vm.dispatches"] += _dispatches(
                            residual, [dynamic])
            if tracer and log.attempted == COLD_COUNT_OPS:
                count_mark = tracer.snapshot()
        if constructs.due(log.busy / seconds):
            constructs.round(tracer)
    peak_rss_mb = _peak_rss_self_mb()
    # The reference interpreter runs after the loop: its allocations
    # would otherwise move the garbage collector's schedule in the loop.
    with tracer.paused() if tracer else nullcontext():
        for program, dynamic, got in results:
            log.check(got, reference.answer(program.lang, program.source,
                                            dynamic),
                      f"\n{program.source} on {dynamic}")
    if tracer:
        loop = delta(tracer.snapshot(), start)
        ops = len(log.latencies_ms)
        layers.update(_op_layers(loop, ops))
        layers["vm.opt.memo_hit_ratio"] = _opt_memo(loop)
        layers["vm.opt.instrs_removed"] = delta(count_mark, start)[
            "counts"].get("vm.opt.instrs_removed", 0)
        _check_coverage(loop, log.busy)
        layers["trace.unaccounted_ms"] = (
            log.busy - sum(loop["seconds"].values())) * 1e3 / ops
    constructs.round(tracer)
    return log.result(
        setups, constructs,
        peak_rss_mb=peak_rss_mb,
        exact=exact,
        layers=layers,
        shares=_sizes(sizes, log.attempted),
    )


# Warn when ``to_object_code``'s own code, outside every wrapped layer,
# takes more than this share of the traced op time: by construction the
# layer self times always add up to the op time, so time spent in code
# that no wrapper reaches shows up in ``rtcg.self_ms``, not in the
# remainder.
RTCG_SELF_SHARE = 0.10


def _check_coverage(loop: dict, busy: float) -> None:
    """Warn on standard error when the layers do not account for the
    traced op time of ``cold``."""
    accounted = sum(loop["seconds"].values())
    rtcg = loop["seconds"].get("rtcg", 0.0)
    if not 0 <= busy - accounted <= 0.05 * busy:
        print(f"cold: layer self times cover {accounted:.3f} s of"
              f" {busy:.3f} s of traced op time", file=sys.stderr)
    if rtcg > RTCG_SELF_SHARE * busy:
        print(f"cold: {rtcg:.3f} s of {busy:.3f} s of traced op time is"
              " to_object_code's own, outside every wrapped layer",
              file=sys.stderr)


def _run_checked(residual: Any, args: list) -> str:
    try:
        return _printed(residual.run(args))
    except Exception as exc:  # a residual that raises is a wrong answer
        return f"<error {exc!r}>"


def _dispatches(residual: Any, args: list) -> int:
    from repro.vm.profile import VMProfile

    profile = VMProfile()
    residual.run_profiled(args, profile)
    return profile.total_instructions


# -- run -----------------------------------------------------------------------


def _fresh_optimizer() -> None:
    """Empty the optimizer's process-wide memo, so that a repeated set-up
    generates code as a fresh process would."""
    from repro.vm.opt import clear_memo

    clear_memo()


def _run_setup(setups: list[float]) -> tuple[dict, dict]:
    """Both extensions and the residuals of the two §7 input programs."""
    from repro.workloads import lazy_primes_program, mixwell_tm_program

    _fresh_optimizer()
    statics = {"mixwell": mixwell_tm_program(), "lazy": lazy_primes_program()}
    t0 = time.perf_counter()
    exts = _construct({})
    residuals = {
        lang: exts[lang].to_object_code([statics[lang]]) for lang in exts
    }
    setups.append(time.perf_counter() - t0)
    return exts, residuals


def run(seed: int, seconds: float, tracer: "LayerTracer | None",
        workdir: Path) -> dict[str, Any]:
    """Run the two §7 residuals on seeded dynamic inputs."""
    constructs = Constructions()
    constructs.round(tracer)
    setups: list[float] = []
    mark = tracer.snapshot() if tracer else None
    for _ in range(SETUP_REPEATS):
        exts, residuals = _run_setup(setups)
    layers: dict[str, float] = {}
    if tracer:
        setup = delta(tracer.snapshot(), mark)
        layers["vm.opt.memo_hit_ratio"] = _opt_memo(setup)
        layers["pe.specializer.residual_defs"] = sum(
            r.stats["residual_defs"] for r in residuals.values())

    schedule = gen.run_schedule(seed)
    log = OpLog("run")
    count_set: list[tuple[str, Any]] = []
    sizes: dict[str, list[int]] = {"mixwell": [], "lazy": []}
    start = tracer.snapshot() if tracer else None
    while log.busy < seconds:
        for _ in range(len(gen.RUN_CYCLE)):
            lang, item = next(schedule)
            if lang == "mixwell":
                arg = _value("(" + " ".join(map(str, item)) + ")")
                expected = binary_increment(item)
                sizes[lang].append(len(item))
            else:
                arg, expected = item, nth_prime(item)
                sizes[lang].append(item)
            if len(count_set) < len(gen.RUN_CYCLE):
                count_set.append((lang, arg))
            ok, value = log.timed(residuals[lang].run, [arg])
            if ok:
                log.check(_printed(value), expected, f"{lang} on {item}")
        if constructs.due(log.busy / seconds):
            constructs.round(tracer)

    dispatches = sum(_dispatches(residuals[lang], [arg])
                     for lang, arg in count_set)
    if tracer:
        layers.update(_op_layers(delta(tracer.snapshot(), start),
                                 len(log.latencies_ms)))
        with tracer.paused():
            t0 = time.perf_counter()
            for lang, arg in count_set:
                residuals[lang].run([arg])
            plain = time.perf_counter() - t0
        layers["vm.ns_per_dispatch"] = plain * 1e9 / dispatches
    peak_rss_mb = _peak_rss_self_mb()
    constructs.round(tracer)
    return log.result(
        setups, constructs,
        peak_rss_mb=peak_rss_mb,
        exact={
            "residual_instrs": sum(
                count_instructions(r) for r in residuals.values()),
            "vm.dispatches": dispatches,
            "pe.bta.variants": sum(
                len(e.bta.variants) for e in exts.values()),
        },
        layers=layers,
        shares=_sizes(sizes, log.attempted),
    )


# -- serve ---------------------------------------------------------------------

# Requests drawn per run; the clients stop at the deadline, long before.
SERVE_SCHEDULE = 40_000
_ENDPOINT = re.compile(r" on ([0-9.]+):(\d+)")


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path("src").resolve())
    env["PYTHONHASHSEED"] = "0"
    return env


class _Process:
    """A ``python -m repro`` child that reports ``... on HOST:PORT``."""

    def __init__(self, args: list[str], log: Path):
        self._fh = open(log, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            stdout=subprocess.DEVNULL, stderr=self._fh, env=_child_env(),
        )
        deadline = time.monotonic() + 60
        while True:
            match = _ENDPOINT.search(log.read_text())
            if match:
                self.endpoint = f"{match.group(1)}:{match.group(2)}"
                self.port = int(match.group(2))
                return
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(
                    f"{args[0]} did not start: {log.read_text()}")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kb = re.search(r"VmHWM:\s+(\d+) kB", status)
        return int(kb.group(1)) / 1024.0 if kb else 0.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._fh.close()


class _Deployment:
    """One set-up of the ``serve`` workload.

    An ``image serve-store`` process, filled with the residuals of the
    whole working set (the L3 tier), and a ``serve`` process over a
    fresh L2 directory with that L3 behind it, warmed with one request
    per interpreter.  With ``in_process`` the server runs as a
    :class:`~repro.serve.SpecializationServer` in this process instead.
    """

    def __init__(self, work: "gen.ServeSet", warmups: dict, workdir: Path,
                 setups: list[float], in_process: bool):
        from repro.serve import SpecializationClient, SpecializationServer

        t0 = time.perf_counter()
        self.server: Any = None
        self.store = _Process(
            ["image", "serve-store", "--store",
             tempfile.mkdtemp(dir=workdir), "--port", "0"],
            workdir / "serve-store.log",
        )
        try:
            self.exts = _construct({}, remote=self.store.endpoint)
            self.residual_instrs = 0
            for program in work.programs:
                residual = self.exts[program.lang].to_object_code(
                    [_value(program.source)])
                self.residual_instrs += count_instructions(residual)
            for ext in self.exts.values():
                if not ext.flush_store(timeout=60):
                    raise RuntimeError("the L3 write-behind did not drain")
                ext.close_store()
            server_dir = tempfile.mkdtemp(dir=workdir)
            if in_process:
                self.server = SpecializationServer(
                    store_dir=server_dir,
                    remote_store=self.store.endpoint).start()
            else:
                self.server = _Process(
                    ["serve", "--port", "0", "--store", server_dir,
                     "--remote-store", self.store.endpoint],
                    workdir / "serve.log",
                )
            self.port = self.server.port
            with SpecializationClient("127.0.0.1", self.port) as client:
                for lang, program in warmups.items():
                    _serve_request(client, lang, program.source, 0)
        except BaseException:
            self.stop()
            raise
        setups.append(time.perf_counter() - t0)

    def stats(self) -> dict[str, Any]:
        from repro.serve import SpecializationClient

        with SpecializationClient("127.0.0.1", self.port) as client:
            return client.stats()

    def peak_rss_mb(self) -> float:
        """Peak RSS of the server and the object store together."""
        if not isinstance(self.server, _Process):
            return 0.0
        return self.server.peak_rss_mb() + self.store.peak_rss_mb()

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()
        self.store.stop()


def _serve_request(client: Any, lang: str, static: str, dynamic: int) -> dict:
    source, signature, goal = _interpreters()[lang]
    return client.specialize(source, signature, statics=[static],
                             goal=goal, dynamics=[str(dynamic)])


def serve(seed: int, seconds: float, tracer: "LayerTracer | None",
          workdir: Path) -> dict[str, Any]:
    """Two closed-loop clients against ``python -m repro serve`` backed
    by an L2 store and an L3 object server.  In the traced run the
    server runs in this process, so the layer wrappers reach it."""
    from repro.serve import SpecializationClient
    from repro.serve.client import ServiceError
    from repro.serve.protocol import FrameError

    work = gen.serve_set(seed, SERVE_SCHEDULE)
    reference = Reference()
    expected = {
        (index, dynamic): reference.answer(
            work.programs[index].lang, work.programs[index].source, dynamic)
        for index, dynamic in set(work.schedule)
    }
    warmups = {
        lang: gen.generate_program(gen.stream(seed, "warm-" + lang), lang, 1)
        for lang in ("mixwell", "lazy")
    }
    constructs = Constructions()
    constructs.round(tracer)
    setups: list[float] = []
    deployment = _Deployment(work, warmups, workdir, setups,
                             in_process=tracer is not None)
    layers: dict[str, float] = {}

    log = OpLog("serve")
    lock = threading.Lock()
    cursor = iter(work.schedule)
    served: list[str] = []  # provenance
    start = tracer.snapshot() if tracer else None

    def client_loop(deadline: float) -> None:
        with SpecializationClient("127.0.0.1", deployment.port) as client:
            while time.perf_counter() < deadline:
                with lock:
                    index, dynamic = next(cursor)
                    log.attempted += 1
                program = work.programs[index]
                t0 = time.perf_counter()
                try:
                    response = _serve_request(
                        client, program.lang, program.source, dynamic)
                except (ServiceError, OSError, FrameError) as exc:
                    with lock:
                        log.errors += 1
                    print(f"serve request failed: {exc!r}", file=sys.stderr)
                    continue
                elapsed = (time.perf_counter() - t0) * 1e3
                with lock:
                    log.latencies_ms.append(elapsed)
                    served.append(response["provenance"])
                    log.check(str(response.get("value")),
                              expected[(index, dynamic)],
                              f"\n{program.source} on {dynamic}")

    # The window is cut into parts, with a construction round between
    # two parts while the clients are stopped.
    parts = CONSTRUCT_ROUNDS - 1
    try:
        for part in range(parts):
            if part:
                constructs.round(tracer)
            window = time.perf_counter()
            threads = [
                threading.Thread(target=client_loop,
                                 args=(window + seconds / parts,))
                for _ in range(SERVE_CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            log.busy += time.perf_counter() - window
        loop = delta(tracer.snapshot(), start) if tracer else None
        stats = deployment.stats()
        peak = deployment.peak_rss_mb()
    finally:
        deployment.stop()

    ops = len(served)
    provenance = {k: 0.0 for k in ("l1", "l2", "l3", "miss")}
    for source in served:
        provenance[source] += 1 / ops
    shares = {f"serve.provenance.{k}": v for k, v in provenance.items()}
    if tracer:
        layers.update(_op_layers(loop, ops))
        # The server's whole handling of a request frame, from the
        # decoded frame to the response it sends (the response's own
        # ``elapsed_ms`` stops before the fingerprint and the run).
        server_ms = (loop["total"]["serve.dispatch"] * 1e3
                     / loop["calls"]["serve.dispatch"])
        layers.update({
            "serve.server_ms": server_ms,
            "serve.client_overhead_ms": (
                statistics.mean(log.latencies_ms) - server_ms),
            "serve.busy": sum(t["busy"] for t in stats["tenants"].values()),
            "serve.frame_errors": stats["counters"]["frame_errors"],
            "serve.admission.analyzed": stats["admission"]["analyzed"],
            "image.l3.write_behind_drops": loop["counts"].get(
                "image.l3.write_behind.drop", 0),
        })
    touched = [work.programs[i] for i, _ in work.schedule[:log.attempted]]
    constructs.round(tracer)
    return log.result(
        setups, constructs,
        peak_rss_mb=peak,
        exact={
            "residual_instrs": deployment.residual_instrs,
            "pe.bta.variants": sum(
                len(e.bta.variants) for e in deployment.exts.values()),
        },
        layers=layers,
        shares={
            **shares,
            "input.mixwell_share": sum(
                p.lang == "mixwell" for p in touched) / len(touched),
            "input.mixwell_size_mean": statistics.mean(
                p.lines for p in work.programs if p.lang == "mixwell"),
            "input.lazy_size_mean": statistics.mean(
                p.lines for p in work.programs if p.lang == "lazy"),
        },
    )


WORKLOADS = {"cold": cold, "run": run, "serve": serve}
