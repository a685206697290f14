"""One measured run of one workload, in a fresh process.

``run.py`` starts this with ``PYTHONHASHSEED`` pinned; it prints one
JSON object on its last line: the end-to-end figures, the exact counts,
failure accounting and, with ``--trace 1``, the per-layer figures.

    python3 perfbench/worker.py --workload cold --seed 1 --seconds 10 \\
        --trace 0 --workdir .bench_work/x
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()
    args.workdir.mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.trace:
        tracer = layers.LayerTracer()
        layers.install(tracer)

    result = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, tracer, args.workdir
    )
    latencies = result["latencies_ms"]
    failed = result["errors"] + result["wrong"]
    summary = {
        "attempted": result["attempted"],
        "failed": failed,
        "wrong": result["wrong"],
        "ops": len(latencies),
        "e2e": {
            "setup_s": result["setup_s"],
            "construct_ms": result["construct_ms"],
            "ops_per_s": len(latencies) / result["busy_s"],
            "op_p50_ms": statistics.median(latencies),
            "op_p90_ms": p90(latencies),
            "ok_ratio": 1.0 - failed / result["attempted"],
            "peak_rss_mb": result["peak_rss_mb"],
            "residual_instrs": result["exact"]["residual_instrs"],
        },
        "exact": result["exact"],
        "layers": {**result["shares"], **result["layers"]},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
