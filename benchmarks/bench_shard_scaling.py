"""Shard-scaling benchmark: the exact sharded resolver's speedup curve.

Times :class:`repro.shard.ShardedResolver` (exact mode) against
the serial :class:`repro.core.PowerResolver` on an ACMPub-scale workload
at 1/2/4/8 workers, measures the Amdahl parallel fraction from an inline
instrumented run, verifies every run byte-identical to the serial
baseline *while* timing it, and writes the machine-readable report to
``benchmarks/results/BENCH_shard.json``.

Runs two ways:

* under pytest (the benchmark suite): ``pytest benchmarks/bench_shard_scaling.py``
* standalone: ``PYTHONPATH=src python benchmarks/bench_shard_scaling.py --check``

Gate: 2.5x speedup at 4 workers — measured wall-clock on hosts with >= 4
CPUs, Amdahl projection from the measured parallel fraction on
``cpu_limited`` hosts (the report records which basis applied).
``POWER_BENCH_FAST=1`` shrinks the workload to a <60s smoke run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.experiments import emit, shard_scaling

RESULT_NAME = "BENCH_shard.json"
HEADERS = ("workers", "shards", "seconds", "measured", "projected", "equivalent")


def test_shard_scaling(benchmark, results):
    from conftest import run_once

    report = run_once(benchmark, shard_scaling.run_shard_benchmark)
    shard_scaling.write_report(report, results(RESULT_NAME))
    emit(
        "Sharded exact-mode speedup curve",
        HEADERS,
        shard_scaling.summary_rows(report),
    )
    failures = shard_scaling.acceptance_failures(report)
    assert not failures, "; ".join(failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="acmpub",
                        choices=("acmpub", "cora", "restaurant"))
    parser.add_argument("--scale", type=float, default=None,
                        help="ACMPub subsample fraction (default 0.15; 0.02 in fast mode)")
    parser.add_argument("--workers", type=int, nargs="+", default=None,
                        help="speedup-curve points (default 1 2 4 8)")
    parser.add_argument("--shards", type=int, default=None,
                        help="tiles per parallel stage (default 2x workers)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).parent / "results" / RESULT_NAME)
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero when an equivalence or speedup gate fails")
    args = parser.parse_args(argv)

    report = shard_scaling.run_shard_benchmark(
        dataset=args.dataset,
        scale=args.scale,
        worker_counts=tuple(args.workers) if args.workers else None,
        shards=args.shards,
        seed=args.seed,
    )
    path = shard_scaling.write_report(report, args.out)
    emit(
        "Sharded exact-mode speedup curve",
        HEADERS,
        shard_scaling.summary_rows(report),
    )
    print(f"report -> {path}")
    print(
        f"parallel fraction {report['parallel_fraction']:.3f} "
        f"({report['parallel_seconds']:.2f}s of {report['inline']['seconds']:.2f}s), "
        f"gate basis: {report['target']['basis']}"
        + (" [cpu_limited]" if report["cpu_limited"] else "")
    )

    failures = shard_scaling.acceptance_failures(report)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if args.check and failures:
        return 1
    if not failures:
        print("all gates passed:",
              json.dumps({
                  f"{run['workers']}w": f"{run['measured_speedup']}x"
                  for run in report["runs"]
              }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
