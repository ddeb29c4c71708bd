"""The repository benchmark: serial, sharded and served resolution.

Run from the root of a checkout::

    python3 perfbench/run.py --workload acmpub-resolve --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen and which
layer metric should move which end-to-end metric):

* ``acmpub-resolve`` — serial ``PowerResolver`` on synthetic ACMPub
  (join-dominated), one fresh interpreter per resolve.
* ``acmpub-shard2`` — ``ShardedResolver(workers=2, mode="exact")`` on the
  ACMPub table, one fresh interpreter per resolve.
* ``serve-stream`` — a warm ``repro serve`` process and a closed loop of
  two tenants streaming ACMPub slices over the line protocol.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  Every line before the last is for people; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
program's outputs are checked after each timed phase; a failed check makes
``correct`` false and the exit code 1.

The benchmark only orchestrates: each resolve or served stream runs in a
child interpreter (``perfbench/worker.py``) with the checkout's ``src`` on
its path, thread pools pinned to one thread and the cost planner pointed
at an absent host profile.  Scratch files go to ``.bench_work/`` in the
checkout.

End-to-end timings are reported at the speed of a nominal host: each is
divided by the host's slowdown, the lowest reading of two fixed
reference kernels taken in the run (``worker.host_reading``).  The
unscaled values are printed on the line before the metrics.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from worker import another_round  # noqa: E402  (stdlib-only at import)

#: The synthetic dataset is generated at this fixed seed, so every run
#: resolves the same table, as the paper evaluates on fixed datasets;
#: ``--seed`` drives ``PowerConfig.seed`` (the simulated crowd's workers
#: and Power's choices).  See README.md for why.
ACMPUB_DATA_SEED = 13

WORKLOADS = {
    "acmpub-resolve": {
        "task": "resolve", "path": "serial", "check": "shard",
        "scale": 0.05, "data_seed": ACMPUB_DATA_SEED, "threshold": 0.3,
    },
    "acmpub-shard2": {
        "task": "resolve", "path": "shard", "check": "serial",
        "scale": 0.05, "data_seed": ACMPUB_DATA_SEED, "threshold": 0.3,
    },
    "serve-stream": {
        "task": "serve", "scale": 0.0125,
        "data_seed": ACMPUB_DATA_SEED, "threshold": 0.3,
        "tenants": 2, "batch": 50, "min_ingests": 100, "warmup_batches": 10,
    },
}

#: A batch run resolves with this many crowd seeds derived from ``--seed``
#: (see ``crowd_seeds``) and reports the crowd's counts as their mean: on
#: one seed, ``crowd_iterations`` is an integer near 5 that moves by 1/5
#: from one seed to the next.
CROWD_SEEDS = 3
#: Worker processes (shard pool) and connections (serve tenants).
WORKERS = 2
#: Set-up is measured at least this many times per run (median reported).
MIN_SETUPS = 3
#: A child that has not answered after this long is killed and counted failed.
CHILD_TIMEOUT_S = 150.0

E2E_UNITS = {
    "setup_s": "s",
    "records_per_s": "records/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ingest_ms.p50": "ms",
    "ingest_ms.p90": "ms",
    "query_ms.p50": "ms",
    "questions": "count",
    "crowd_iterations": "count",
    "cost_cents": "cents",
    "f_measure": "ratio",
    "ok_frac": "ratio",
}

LAYER_UNITS = {
    "data.generate_s": "s",
    "similarity.join_s": "s",
    "similarity.join_pairs": "count",
    "similarity.join_recall": "ratio",
    "similarity.join_precision": "ratio",
    "similarity.vectorize_s": "s",
    "similarity.vectorize_pairs": "count",
    "graph.construct_s": "s",
    "graph.vertices": "count",
    "graph.edges": "count",
    "selection.select_s": "s",
    "selection.rounds": "count",
    "selection.cover_s": "s",
    "selection.propagate_s": "s",
    "selection.incremental": "bool",
    "selection.inferred_per_asked": "ratio",
    "crowd.setup_s": "s",
    "crowd.ask_s": "s",
    "crowd.ask_calls": "count",
    "crowd.pairs_asked": "count",
    "core.cluster_s": "s",
    "shard.join_s": "s",
    "shard.vectors_s": "s",
    "shard.graph_s": "s",
    "shard.selection_s": "s",
    "shard.tasks": "count",
    "shard.retries": "count",
    "shard.fallbacks": "count",
    "shard.parallel_efficiency": "ratio",
    "stream.add_batch_s": "s",
    "stream.index_s": "s",
    "stream.new_pairs": "count",
    "stream.checkpoint_s": "s",
    "stream.checkpoint_bytes": "bytes",
    "stream.clusters_s": "s",
    "serve.checkpoint_ms.p50": "ms",
    "serve.overhead_ms": "ms",
    "serve.refusals": "count",
    "serve.evictions": "count",
    "serve.restores": "count",
    "obs.trace_overhead_frac": "ratio",
    "obs.unaccounted_frac": "ratio",
}


class ChildFailed(Exception):
    """A child interpreter crashed, timed out or broke the line protocol."""


class Child:
    """One ``worker.py`` interpreter; construction waits for its set-up."""

    def __init__(self, spec: dict, env: dict, log: Path) -> None:
        self.log = open(log, "w", encoding="utf-8")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
            env=env,
            cwd=ROOT,
        )
        self._lines: queue.Queue[str] = queue.Queue()
        threading.Thread(target=self._pump, daemon=True).start()
        self.ready = self._read("ready")
        self.setup_s = time.perf_counter() - started
        self.readings = self._read("speed")["readings"]

    def _pump(self) -> None:
        """Move the worker's protocol lines into a queue until EOF."""
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put("")

    def _read(self, event: str) -> dict:
        try:
            line = self._lines.get(timeout=CHILD_TIMEOUT_S)
        except queue.Empty:
            line = ""
        try:
            message = json.loads(line)
        except json.JSONDecodeError:
            message = {}
        if message.get("event") != event:
            self.close()
            raise ChildFailed(
                f"expected {event!r} from the worker, got {line[:200]!r} "
                f"(exit {self.proc.returncode}; see {self.log.name})"
            )
        return message

    def run(self) -> dict:
        """Start the timed task and return its result."""
        self.proc.stdin.write("go\n")
        self.proc.stdin.flush()
        result = self._read("result")
        self.close()
        if self.proc.returncode != 0:
            raise ChildFailed(f"worker exited {self.proc.returncode}; see {self.log.name}")
        return result

    def close(self) -> None:
        """Tell an idle worker to stop, and wait until it has ended."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("stop\n")
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
            try:
                self.proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


class Run:
    """Book-keeping of one benchmark run: children, set-ups, failures."""

    def __init__(self, workload: str, seed: int, seconds: int, traced: bool) -> None:
        self.config = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.work = ROOT / ".bench_work" / f"{workload}-seed{seed}-trace{int(traced)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = hermetic_env(self.work)
        self.setups: list[float] = []
        self.readings: list[float] = []
        self.generate: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._children = 0

    def spec(self, **overrides) -> dict:
        spec = dict(self.config)
        spec.update(
            seed=self.seed, seconds=self.seconds, traced=False,
            workers=WORKERS, work=str(self.work),
        )
        spec.update(overrides)
        return spec

    def child(self, spec: dict) -> Child:
        self._children += 1
        log = self.work / f"worker{self._children}.log"
        child = Child(spec, self.env, log)
        self.setups.append(child.setup_s)
        self.readings.extend(child.readings)
        self.generate.append(child.ready["generate_s"])
        return child

    def attempt(self, spec: dict) -> dict | None:
        """Run one child task, counting it; ``None`` when it failed."""
        self.attempted += 1
        try:
            result = self.child(spec).run()
        except ChildFailed as error:
            self.failed += 1
            self.problems.append(str(error))
            return None
        self.readings.extend(result.get("readings", []))
        return result

    def check(self, name: str, passed: bool) -> None:
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.problems.append(f"check failed: {name}")

    def pad_setups(self, spec: dict) -> None:
        """Measure set-up alone until there are ``MIN_SETUPS`` samples."""
        while len(self.setups) < MIN_SETUPS:
            try:
                self.child(spec).close()
            except ChildFailed as error:
                self.attempted += 1
                self.failed += 1
                self.problems.append(str(error))
                return


def hermetic_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # An absent profile: a host calibration must not flip ``join_method="auto"``.
    env["REPRO_PLAN_PROFILE"] = str(work / "absent-plan-profile.json")
    # One malloc arena: which pool thread of the server handles which
    # batch is left to the scheduler, and per-thread arenas would make the
    # peak RSS depend on it.
    env["MALLOC_ARENA_MAX"] = "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    ):
        env[name] = "1"
    return env


def median(values) -> float:
    return statistics.median(list(values))


def p90(values) -> float:
    values = list(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def parent_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def scaled_timings(run: Run, records_per_s, cpu_s, ingest_ms, query_ms) -> dict:
    """The end-to-end timings at nominal host speed.

    Each timing is divided by the host's slowdown against the nominal host:
    the lowest of the readings (``worker.host_reading``) the run's children
    took, after each set-up and around each resolve or served round.  The
    lowest reading is the host's speed when no neighbour contends, so it
    follows the host's slow drift but not its second-to-second jitter,
    which the medians over the run's samples absorb.  The unscaled values
    are printed for people.
    """
    slowdown = min(run.readings)
    print(
        f"host slowdown {slowdown:.4g} (lowest of {len(run.readings)} readings; median "
        f"{median(run.readings):.4g}); unscaled: setup_s {median(run.setups):.6g}, "
        f"records_per_s {records_per_s:.6g}, cpu_s {cpu_s:.6g}, "
        f"ingest_ms.p50 {median(ingest_ms):.6g}, ingest_ms.p90 {p90(ingest_ms):.6g}, "
        f"query_ms.p50 {median(query_ms):.6g}"
    )
    return {
        "setup_s": median(run.setups) / slowdown,
        "records_per_s": records_per_s * slowdown,
        "cpu_s": cpu_s / slowdown,
        "ingest_ms.p50": median(ingest_ms) / slowdown,
        "ingest_ms.p90": p90(ingest_ms) / slowdown,
        "query_ms.p50": median(query_ms) / slowdown,
    }


# --------------------------------------------------------------------------- #
# Batch workloads
# --------------------------------------------------------------------------- #


def crowd_seeds(seed: int) -> list[int]:
    """The ``PowerConfig.seed`` values a batch run with ``--seed`` uses."""
    return [seed * CROWD_SEEDS + i for i in range(CROWD_SEEDS)]


def run_batch(run: Run) -> dict | None:
    """Fresh-interpreter resolves, then the other path as the cross-check.

    The timed resolves take the crowd seeds in turn, each at least once.
    """
    config = run.config
    seeds = crowd_seeds(run.seed)
    results = []
    if run.traced:
        # One untraced and one traced resolve: the ratio of their walls is
        # the tracing overhead.
        for traced in (False, True):
            result = run.attempt(run.spec(traced=traced, seed=seeds[0]))
            if result is not None:
                results.append(result)
    else:
        durations = []
        while len(results) < len(seeds) or another_round(durations, run.seconds):
            started = time.perf_counter()
            result = run.attempt(run.spec(seed=seeds[len(results) % len(seeds)]))
            if result is None:
                break
            results.append(result)
            durations.append(time.perf_counter() - started)
    reference = run.attempt(run.spec(path=config["check"], seed=seeds[0]))
    run.pad_setups(run.spec())
    if not results:
        return None

    for result in results:
        for name, passed in result["checks"].items():
            run.check(f"{config['path']}: {name}", passed)
    if reference is not None:
        for name, passed in reference["checks"].items():
            run.check(f"{config['check']}: {name}", passed)
        run.check(
            f"{config['path']} and {config['check']} paths agree",
            results[0]["digest"] == reference["digest"],
        )
    run.check(
        "repeated resolves are identical",
        all(r["digest"] == results[i % len(seeds)]["digest"] for i, r in enumerate(results)),
    )

    first = results[0]
    print(
        f"join_method auto -> {first['join_method']}; "
        f"{len(results)} timed resolve(s) over crowd seeds {seeds}, "
        f"each in a fresh interpreter (cold caches)"
    )
    if run.traced:
        untraced, traced = results if len(results) == 2 else (first, first)
        layers = dict(traced.get("layers", {}))
        layers["obs.trace_overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1.0
        layers["data.generate_s"] = median(run.generate)
        return {"layers": layers}
    walls_ms = [r["wall_s"] * 1000.0 for r in results]
    # The check resolve ends with the first resolve's matches, so its
    # read-path samples are the same operation taken at another moment.
    queries = [q for r in results + [reference] if r for q in r["query_ms"]]
    return {
        "e2e": {
            **scaled_timings(
                run,
                records_per_s=median(r["records"] / r["wall_s"] for r in results),
                cpu_s=median(r["cpu_s"] for r in results),
                ingest_ms=walls_ms,
                query_ms=queries,
            ),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in results) + parent_rss_mb(),
            **{
                name: statistics.fmean(r[key] for r in results[: len(seeds)])
                for name, key in (
                    ("questions", "questions"),
                    ("crowd_iterations", "iterations"),
                    ("cost_cents", "cost_cents"),
                    ("f_measure", "f_measure"),
                )
            },
        },
        "samples": {"ingest_ms": len(walls_ms), "query_ms": len(queries)},
    }


# --------------------------------------------------------------------------- #
# Served streams
# --------------------------------------------------------------------------- #


def run_serve(run: Run) -> dict | None:
    """One warm server under a closed loop of tenants, then direct replays."""
    report = run.attempt(run.spec(traced=run.traced))
    run.pad_setups(run.spec())
    if report is None:
        return None
    run.attempted += report["attempted"]
    run.failed += report["failed"]
    run.problems.extend(report["errors"])
    for name, passed in report["checks"].items():
        run.check(name, passed)
    rounds = report["rounds"]
    if not rounds:
        return None
    ingest = [ms for r in rounds for ms in r["latency_ms"]["ingest"]]
    query = [ms for r in rounds for ms in r["latency_ms"]["query_clusters"]]
    print(
        f"{len(rounds)} measured round(s) of {run.config['tenants']} tenants on a warm "
        f"server (one discarded warm-up round; every round streams new records); "
        f"similar_pairs not used: the stream joins incrementally"
    )
    if run.traced:
        layers = dict(report.get("layers", {}))
        layers.update(
            {
                "data.generate_s": median(run.generate),
                "serve.refusals": report["refusals"],
                "serve.evictions": report["evictions"],
                "serve.restores": report["restores"],
            }
        )
        return {"layers": layers}
    return {
        "e2e": {
            **scaled_timings(
                run,
                records_per_s=median(r["records"] / r["wall_s"] for r in rounds),
                cpu_s=median(r["cpu_s"] for r in rounds),
                ingest_ms=ingest,
                query_ms=query,
            ),
            "peak_rss_mb": report["peak_rss_mb"] + parent_rss_mb(),
            "questions": report["questions"],
            "crowd_iterations": report["iterations"],
            "cost_cents": report["cost_cents"],
            "f_measure": report["f_measure"],
        },
        "samples": {"ingest_ms": len(ingest), "query_ms": len(query)},
    }


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #


def environment_line() -> str:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    scipy = "present" if importlib.util.find_spec("scipy") else "absent"
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (
        f"nproc {os.cpu_count()}; python {platform.python_version()}; "
        f"numpy {numpy}; scipy {scipy}; load average at start {load}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    print(f"workload {args.workload}; seed {args.seed}; {environment_line()}")
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    outcome = (run_serve if run.config["task"] == "serve" else run_batch)(run)
    for problem in run.problems:
        print(f"problem: {problem}")
    if outcome is None:
        print("no measured round completed; no result", file=sys.stderr)
        return 1

    if args.trace:
        values = {name: 0.0 for name in LAYER_UNITS}
        values.update(outcome["layers"])
        units = LAYER_UNITS
    else:
        values = dict(outcome["e2e"])
        values["ok_frac"] = (run.attempted - run.failed) / run.attempted
        units = E2E_UNITS
        print(
            f"samples: {len(run.setups)} set-ups, {outcome['samples']['ingest_ms']} "
            f"ingests, {outcome['samples']['query_ms']} queries"
        )
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:14.6g} {metric['unit']}")
    correct = run.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
