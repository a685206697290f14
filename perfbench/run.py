"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload cold|run|serve --seed N \\
        --seconds S --trace 0|1

Run from the repository root.  With ``--trace 0`` it prints every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` every
per-layer metric.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Any wrong output
makes the command exit 1 (after printing it); a missing source tree or a
failed run exits 2 without a result.

Each measurement runs in a fresh ``worker.py`` process with
``PYTHONHASHSEED`` pinned.  A traced run makes two of them from the same
seed: the untraced one first, then the traced one; it checks that the
exact counts of the two agree and reports the difference of their
median op latencies as the tracing overhead.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKER_TIMEOUT_S = 170
# Counts that must repeat exactly between two runs of one seed.
EXACT = ("residual_instrs", "pe.bta.variants", "vm.dispatches")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def worker(args: argparse.Namespace, trace: int, seconds: float,
           workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    workdir.mkdir(parents=True, exist_ok=True)
    # The worker leads its own process group, so that whatever it
    # started (the serve and object-store processes) goes down with it.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--workdir", str(workdir)],
        stdout=subprocess.PIPE, env=env, text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("cold", "run", "serve"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn a termination request into an exception, so that the
    # ``finally`` in worker() still takes the worker's processes down.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no source tree at {ROOT / 'src' / 'repro'}; "
                    "run from the repository root")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    # Half the time each for the untraced and the traced run.
    seconds = args.seconds / 2 if args.trace else args.seconds
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        plain = worker(args, 0, seconds, workdir)
        runs = [plain]
        figures = dict(plain["e2e"])
        if args.trace:
            traced = worker(args, 1, seconds, workdir)
            runs.append(traced)
            for name in EXACT:
                if plain["exact"].get(name) != traced["exact"].get(name):
                    return fail(
                        f"exact count {name} differs between two runs of"
                        f" seed {args.seed}: {plain['exact'].get(name)}"
                        f" != {traced['exact'].get(name)}")
            figures = {**traced["exact"], **traced["layers"]}
            figures["trace.overhead_ms"] = (
                traced["e2e"]["op_p50_ms"] - plain["e2e"]["op_p50_ms"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            IndexError) as exc:
        return fail(f"{args.workload} run failed: {exc!r}")
    finally:
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    names = {m["name"] for m in wanted}
    unknown = set(figures) - names - {"residual_instrs"}
    if unknown:
        return fail(f"the worker reported unknown metrics {sorted(unknown)}")
    # A layer that a workload bypasses reports nothing and reads 0.
    wrong = sum(r["wrong"] for r in runs)
    report = runs[-1]
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            m["name"]: {"value": float(figures.get(m["name"], 0.0)),
                        "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
