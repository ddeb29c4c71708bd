"""One fresh interpreter of the benchmark: set up, then run one timed task.

Run by ``perfbench/run.py``, never by hand::

    python3 perfbench/worker.py '<json spec>'

The worker imports ``repro`` and builds its inputs (the set-up), writes a
``ready`` line, takes host readings and writes them on a ``speed`` line,
then waits for ``go`` (or ``stop``) on stdin.  After ``go`` it runs its
task, writes one ``result`` line and exits.  Protocol lines go
to the original stdout; anything the program itself prints is sent to
stderr, so it cannot corrupt the protocol.

Tasks:

* ``resolve`` — one whole-table resolution through the serial
  (``PowerResolver``) or sharded (``ShardedResolver``) path, untraced
  (``resolve()``, as a user calls it) or traced (the benchmark calls each
  layer's public function itself and times it).  Correctness checks and
  the output digest are computed after the timed phase.
* ``serve`` — a ``repro serve`` process plus a closed loop of tenants, one
  connection each; afterwards every tenant stream is replayed directly
  through ``StreamingResolver`` and the final ``state_sha`` compared.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

_STARTED = time.perf_counter()

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Spans  # noqa: E402

#: After each resolve the read path (clusters from matches) is timed in
#: ``QUERY_BURSTS`` bursts of ``QUERY_BURST`` calls, with a host reading
#: between bursts, so the samples see more than one moment of a shared
#: host's jitter.
QUERY_BURSTS = 6
QUERY_BURST = 4
#: Host readings taken right after set-up, and between served rounds.
READINGS = 4
#: Pairwise F below this means the pipeline is broken, not merely slower.
F_MEASURE_FLOOR = 0.85
#: Client-side limit on one serve request before it counts as timed out.
REQUEST_TIMEOUT_S = 60.0


# --------------------------------------------------------------------------- #
# Host speed
# --------------------------------------------------------------------------- #

#: Seconds the two reference kernels take on the nominal host that scaled
#: timings refer to (about their times on a quiet 2-vCPU, 2.1 GHz virtual
#: machine).
NOMINAL_PYTHON_S = 0.05
NOMINAL_NUMPY_S = 0.02


def _python_kernel() -> float:
    """Seconds for fixed dict, set and str work, like the join's."""
    started = time.perf_counter()
    counts: dict[int, int] = {}
    keys: set[str] = set()
    for i in range(75_000):
        key = (i * 2654435761) % 100_003
        counts[key] = counts.get(key, 0) + 1
        keys.add(str(key))
    " ".join(sorted(keys)[:2500]).split()
    return time.perf_counter() - started


def _numpy_kernel() -> float:
    """Seconds for fixed sorts, counts and masks, like selection's."""
    import numpy as np

    values = np.random.default_rng(0).integers(0, 1 << 20, 300_000)
    started = time.perf_counter()
    for _ in range(2):
        np.sort(values)
        np.bincount(values & 0xFFFF)
        np.unique(values[(values & 7) == 3])
        np.packbits((values & 1) == 1)
    return time.perf_counter() - started


def host_reading() -> float:
    """How much slower than the nominal host this host runs right now.

    A shared host's speed drifts by tens of percent over seconds to
    minutes.  ``run.py`` divides a run's timings by the lowest reading
    taken in the run.  The kernels are fixed code of this
    benchmark, so no change to the program can move them.
    """
    # The cyclic collector would walk whatever heap the task left behind,
    # so it is off while the kernels run.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return (_python_kernel() / NOMINAL_PYTHON_S + _numpy_kernel() / NOMINAL_NUMPY_S) / 2.0
    finally:
        if enabled:
            gc.enable()


# --------------------------------------------------------------------------- #
# Process accounting
# --------------------------------------------------------------------------- #


def cpu_seconds() -> float:
    """User+sys CPU of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb(pool_size: int = 0) -> float:
    """This process's peak RSS plus ``pool_size`` times its largest child's.

    Linux reports ``ru_maxrss`` in KiB.  For a worker pool only the largest
    child's peak is known, so the pool is counted as that many of it.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_size * child) / 1024.0


def directory_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #


def make_table(spec: dict):
    from repro import acmpub

    return acmpub(scale=spec["scale"], seed=spec["data_seed"])


def make_config(spec: dict):
    from repro import PowerConfig

    return PowerConfig(seed=spec["seed"], pruning_threshold=spec["threshold"])


def auto_join_method(table) -> str:
    """What ``join_method="auto"`` resolves to for *table* on this host."""
    from repro.plan.hooks import planned_join_method
    from repro.similarity.join import AUTO_PREFIX_CROSSOVER
    from repro.similarity.tokenize import word_tokens

    sizes = [len(word_tokens(table.record_text(r.record_id))) for r in table]
    planned = planned_join_method(len(sizes), sum(sizes) / max(1, len(sizes)))
    if planned is not None:
        return planned
    return "prefix" if len(sizes) > AUTO_PREFIX_CROSSOVER else "naive"


# --------------------------------------------------------------------------- #
# Crowd session wrapper (times every crowd round trip)
# --------------------------------------------------------------------------- #


class TimedSession:
    """Delegates to a crowd session and records a span per ``ask_batch``."""

    def __init__(self, session, spans: Spans, parent: int | None) -> None:
        self._session = session
        self._spans = spans
        self._parent = parent

    def ask_batch(self, pairs):
        pairs = list(pairs)
        with self._spans.span("crowd.ask", parent=self._parent, pairs=len(pairs)):
            return self._session.ask_batch(pairs)

    def __getattr__(self, name):
        return getattr(self._session, name)


class TimedCrowd:
    """Delegates to a simulated crowd; its sessions are :class:`TimedSession`."""

    def __init__(self, crowd, spans: Spans, parent: int | None) -> None:
        self._crowd = crowd
        self._spans = spans
        self._parent = parent

    def session(self, *args, **kwargs):
        return TimedSession(self._crowd.session(*args, **kwargs), self._spans, self._parent)

    def __getattr__(self, name):
        return getattr(self._crowd, name)


# --------------------------------------------------------------------------- #
# Task: one whole-table resolve
# --------------------------------------------------------------------------- #


def resolve_task(spec: dict, table) -> dict:
    from repro import PowerResolver, ShardedResolver, clusters_from_matches

    readings = []
    config = make_config(spec)
    spans = Spans(spec["traced"])
    sharded = spec["path"] == "shard"
    cpu_before = cpu_seconds()
    started = time.perf_counter()
    if sharded:
        resolver = ShardedResolver(config, workers=spec["workers"], mode="exact")
        with spans.span("shard.resolve") as root:
            if spec["traced"]:
                # The sharded path builds its crowd from the pairs its join
                # finds, so the timed session is handed in through the
                # resolver's own crowd factory.
                make_crowd = resolver.simulated_crowd
                resolver.simulated_crowd = lambda *args, **kwargs: TimedCrowd(
                    make_crowd(*args, **kwargs), spans, root
                )
            result = resolver.resolve(table)
        outcome = _outcome_from_result(result)
    elif spec["traced"]:
        outcome = _traced_serial(PowerResolver(config), table, spans)
    else:
        outcome = _outcome_from_result(PowerResolver(config).resolve(table))
    wall = time.perf_counter() - started
    cpu = cpu_seconds() - cpu_before

    query_ms = []
    for _ in range(QUERY_BURSTS):
        readings.append(host_reading())
        # As ``timeit`` does, the cyclic collector is off while a burst is
        # timed: a collection would walk the whole resolve's heap.
        gc.collect()
        gc.disable()
        for _ in range(QUERY_BURST):
            query_started = time.perf_counter()
            clusters_from_matches(len(table), outcome["matches"])
            query_ms.append((time.perf_counter() - query_started) * 1000.0)
        gc.enable()

    report = {
        "readings": readings,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb(spec["workers"] if sharded else 0),
        "records": len(table),
        "query_ms": query_ms,
        "questions": outcome["selection"].questions,
        "iterations": outcome["selection"].iterations,
        "cost_cents": outcome["selection"].cost_cents,
        "f_measure": outcome["quality"].f_measure,
        "digest": digest(
            {
                "pairs": [list(p) for p in outcome["pairs"]],
                "labels": sorted(
                    [a, b, bool(v)] for (a, b), v in outcome["selection"].labels.items()
                ),
                "matches": sorted(list(p) for p in outcome["matches"]),
                "questions": outcome["selection"].questions,
            }
        ),
        "checks": _resolve_checks(table, outcome),
        "join_method": auto_join_method(table),
    }
    if spec["traced"]:
        report["layers"] = _layer_metrics(table, outcome, spans, wall, cpu, spec)
        spans.write(Path(spec["work"]) / f"spans-{spec['path']}.jsonl")
    return report


def _outcome_from_result(result) -> dict:
    return {
        "pairs": result.candidate_pairs,
        "selection": result.selection,
        "matches": result.matches,
        "clusters": result.clusters,
        "quality": result.quality,
        "graph": None,
    }


def _traced_serial(resolver, table, spans: Spans):
    """The serial pipeline, one public stage call per span."""
    from repro import clusters_from_matches, pairwise_quality
    from repro.data.ground_truth import true_match_pairs

    with spans.span("resolve") as root:
        with spans.span("similarity.join", parent=root):
            pairs = resolver.candidate_pairs(table)
        with spans.span("similarity.vectorize", parent=root):
            vectors = resolver.similarity_vectors(table, pairs)
        with spans.span("graph.construct", parent=root):
            graph = resolver.build_graph(table, pairs, vectors=vectors)
        with spans.span("crowd.setup", parent=root):
            session = resolver.simulated_crowd(table, pairs).session()
        with spans.span("selection.select", parent=root) as select:
            selection = resolver.make_selector().run(
                graph, TimedSession(session, spans, select)
            )
        with spans.span("core.cluster", parent=root):
            matches = selection.matches
            clusters = clusters_from_matches(len(table), matches)
            quality = pairwise_quality(matches, true_match_pairs(table))
    return {
        "pairs": pairs,
        "selection": selection,
        "matches": matches,
        "clusters": clusters,
        "quality": quality,
        "graph": graph,
    }


def _resolve_checks(table, outcome) -> dict:
    """Output invariants every resolve must satisfy (run untimed)."""
    pairs = set(outcome["pairs"])
    selection = outcome["selection"]
    matches = outcome["matches"]
    members = sorted(m for cluster in outcome["clusters"] for m in cluster)
    cluster_of = {m: i for i, cluster in enumerate(outcome["clusters"]) for m in cluster}
    hits = math.ceil(selection.questions / 10) * 5 if selection.questions else 0
    return {
        "labels_cover_candidates": set(selection.labels) == pairs,
        "matches_are_candidates": matches <= pairs,
        "clusters_partition_records": members == list(range(len(table))),
        "matches_within_clusters": all(cluster_of[a] == cluster_of[b] for a, b in matches),
        "questions_within_candidates": 0 < selection.questions <= len(pairs),
        "cost_is_pooled_billing": selection.cost_cents == hits * 10,
        "f_measure_above_floor": outcome["quality"].f_measure >= F_MEASURE_FLOOR,
    }


def _layer_metrics(table, outcome, spans: Spans, wall, cpu, spec) -> dict:
    from repro.data.ground_truth import true_match_pairs

    pairs = outcome["pairs"]
    truth = true_match_pairs(table)
    kept = len(truth.intersection(pairs))
    telemetry = outcome["selection"].extras.get("selection", {})
    per_round = telemetry.get("per_round", [])
    asked = sum(r["asked"] for r in per_round)
    colored = sum(r["colored"] for r in per_round)
    crowd_s = spans.total("crowd.ask")
    layers = {
        "similarity.join_pairs": len(pairs),
        "similarity.join_recall": kept / len(truth) if truth else 1.0,
        "similarity.join_precision": kept / len(pairs) if pairs else 0.0,
        "selection.rounds": telemetry.get("rounds", 0),
        "selection.cover_s": telemetry.get("cover_seconds", 0.0),
        "selection.propagate_s": telemetry.get("propagate_seconds", 0.0),
        "selection.incremental": int(bool(telemetry.get("incremental", False))),
        "selection.inferred_per_asked": colored / asked if asked else 0.0,
        "crowd.ask_s": crowd_s,
        "crowd.ask_calls": len(spans.named("crowd.ask")),
        "crowd.pairs_asked": sum(s["pairs"] for s in spans.named("crowd.ask")),
    }
    if spec["path"] == "shard":
        shard = outcome["selection"].extras["shard"]
        timings, executor = shard["timings"], shard["executor"]
        layers.update(
            {
                "shard.join_s": timings["join"],
                "shard.vectors_s": timings["vectors"],
                "shard.graph_s": timings["graph"],
                "shard.selection_s": timings["selection"],
                "shard.tasks": executor["tasks"],
                "shard.retries": executor["retries"],
                "shard.fallbacks": executor["fallbacks"],
                "shard.parallel_efficiency": cpu / (wall * spec["workers"]),
                "selection.select_s": timings["selection"] - crowd_s,
                "obs.unaccounted_frac": max(0.0, wall - sum(timings.values())) / wall,
            }
        )
    else:
        graph = outcome["graph"]
        (root,) = spans.named("resolve")
        layers.update(
            {
                "similarity.join_s": spans.total("similarity.join"),
                "similarity.vectorize_s": spans.total("similarity.vectorize"),
                "similarity.vectorize_pairs": len(pairs),
                "graph.construct_s": spans.total("graph.construct"),
                "graph.vertices": len(graph),
                # Counting edges builds the full dominance lists, so it
                # runs here, after the timed phase.
                "graph.edges": graph.num_edges,
                "crowd.setup_s": spans.total("crowd.setup"),
                "selection.select_s": spans.total("selection.select") - crowd_s,
                "core.cluster_s": spans.total("core.cluster"),
                "obs.unaccounted_frac": spans.self_time(root["id"]) / wall,
            }
        )
    return layers



def another_round(durations: list[float], seconds: float) -> bool:
    """Whether one more round is expected to end within *seconds* of the
    first round's start, given the durations of the rounds so far."""
    if not durations:
        return True
    return sum(durations) + statistics.fmean(durations) <= seconds


# --------------------------------------------------------------------------- #
# Task: served streams
# --------------------------------------------------------------------------- #


def tenant_streams(spec: dict, round_index: int) -> list[dict]:
    """Each tenant's record batches for one round; every round has new data.

    Round ``-1`` is the warm-up: only its first ``warmup_batches`` batches.
    """
    from repro import acmpub

    streams = []
    for tenant in range(spec["tenants"]):
        data_seed = spec["data_seed"] + 1000 * (round_index + 1) + tenant
        table = acmpub(scale=spec["scale"], seed=data_seed)
        rows = [list(r.values) for r in table]
        entity_ids = [r.entity_id for r in table]
        size = spec["batch"]
        batches = [
            (rows[i : i + size], entity_ids[i : i + size])
            for i in range(0, len(rows), size)
        ]
        if round_index < 0:
            batches = batches[: spec["warmup_batches"]]
        streams.append(
            {
                # Names repeat across rounds: a round's snapshot directories
                # are deleted after its sessions close.
                "session": f"tenant-{tenant}",
                "attributes": list(table.attributes),
                "batches": batches,
            }
        )
    return streams


class ServeHarness:
    """A ``repro serve`` child process and one connection per tenant."""

    def __init__(self, spec: dict) -> None:
        self.root = Path(spec["work"]) / "serve-root"
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        self.log = open(Path(spec["work"]) / "server.log", "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--checkpoint-root", str(self.root),
                "--host", "127.0.0.1", "--port", "0",
                "--crowd-latency", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
        )
        line = self.proc.stdout.readline()
        if "serving on" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split()[2].rsplit(":", 1)[1])

    def cpu_seconds(self) -> float:
        """CPU of the server process (from /proc) plus this process's."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks = sum(int(value) for value in fields[11:15])
        return ticks / os.sysconf("SC_CLK_TCK") + cpu_seconds()

    def peak_rss_mb(self) -> float:
        """The server's peak RSS (VmHWM) plus this process's."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            server = next(int(l.split()[1]) for l in handle if l.startswith("VmHWM:"))
        return server / 1024.0 + peak_rss_mb()

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        self.log.close()
        return self.proc.returncode


class StreamTally:
    """Per-op client latencies and the failure count of served streams."""

    def __init__(self) -> None:
        self.latency_ms: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def count(self, op: str) -> int:
        return len(self.latency_ms.get(op, []))

    async def request(self, client, op, spans: Spans, parent, trace, **fields):
        """One request; a refusal, protocol error or timeout counts failed."""
        import asyncio

        from repro.exceptions import PowerError

        self.attempted += 1
        started = time.perf_counter()
        try:
            with spans.span(f"serve.{op}", parent=parent, trace=trace):
                response = await asyncio.wait_for(
                    client.request(op, **fields), REQUEST_TIMEOUT_S
                )
        except (asyncio.TimeoutError, OSError, PowerError) as error:
            response = {"error": type(error).__name__, "message": str(error)}
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        if not response.get("ok"):
            # Never retried: an ``overloaded`` refusal is a failed request.
            self.failed += 1
            self.errors.append(f"{op}: {response.get('error')}: {response.get('message')}")
            return None
        self.latency_ms.setdefault(op, []).append(elapsed_ms)
        return response


async def _stream_tenant(client, stream, config, tally: StreamTally, spans: Spans, trace):
    """One tenant's closed loop: ingest then query each batch, checkpoint
    every 10th, close at the end.  Returns the final ``state_sha``."""
    with spans.span("tenant", trace=trace) as parent:
        session = stream["session"]

        async def call(op, **fields):
            return await tally.request(
                client, op, spans, parent, trace, session=session, **fields
            )

        if await call("create_session", attributes=stream["attributes"], config=config) is None:
            return None
        for index, (rows, entity_ids) in enumerate(stream["batches"]):
            if await call("ingest", rows=rows, entity_ids=entity_ids) is None:
                return None
            if await call("query_clusters") is None:
                return None
            if (index + 1) % 10 == 0 and await call("checkpoint") is None:
                return None
        closed = await call("close")
    return None if closed is None else closed["state_sha"]


async def _serve_rounds(spec: dict, harness: ServeHarness, streams_for) -> dict:
    """A warm-up round, then measured rounds back to back.

    Rounds continue while the next one is expected to end within
    ``spec["seconds"]``.  Host readings are taken between rounds.
    """
    import asyncio
    from dataclasses import asdict

    from repro.serve import AsyncServeClient

    config = asdict(make_config(spec))
    clients = [
        await AsyncServeClient(port=harness.port).connect()
        for _ in range(spec["tenants"])
    ]
    spans = Spans(True)
    tallies: list[StreamTally] = []
    rounds: list[dict] = []
    checks: dict[str, bool] = {}
    durations: list[float] = []
    readings: list[float] = []
    try:
        index = -1
        while index < 0 or (
            (spec["traced"] and len(rounds) < 2)
            or sum(r["ingests"] for r in rounds) < spec["min_ingests"]
            or another_round(durations, spec["seconds"])
        ):
            round_started = time.perf_counter()
            streams = streams_for(index)
            if index >= 0:
                readings.extend(host_reading() for _ in range(READINGS))
            traced = spec["traced"] and index % 2 == 1
            tally = StreamTally()
            tallies.append(tally)
            cpu_before = harness.cpu_seconds()
            started = time.perf_counter()
            shas = await asyncio.gather(
                *(
                    _stream_tenant(
                        client, stream, config, tally,
                        spans if traced else Spans(False), index,
                    )
                    for client, stream in zip(clients, streams)
                )
            )
            wall = time.perf_counter() - started
            cpu = harness.cpu_seconds() - cpu_before
            for stream in streams:
                shutil.rmtree(harness.root / stream["session"], ignore_errors=True)
            if None in shas:
                break
            if index >= 0:
                rounds.append(
                    {
                        "index": index,
                        "wall_s": wall,
                        "cpu_s": cpu,
                        "traced": traced,
                        "records": sum(len(rows) for s in streams for rows, _ in s["batches"]),
                        "ingests": tally.count("ingest"),
                        "latency_ms": tally.latency_ms,
                        "shas": shas,
                    }
                )
                durations.append(time.perf_counter() - round_started)
            index += 1
        readings.extend(host_reading() for _ in range(READINGS))
        metrics_text = (await clients[0].call("metrics"))["metrics"]
    finally:
        for client in clients:
            await client.close()
    return {
        "tallies": tallies,
        "checks": checks,
        "spans": spans,
        "rounds": rounds,
        "readings": readings,
        "metrics_text": metrics_text,
    }


def prometheus_total(text: str, family: str) -> float:
    """Sum of a Prometheus counter family over all its label sets."""
    return sum(
        float(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.startswith((family + "{", family + " "))
    )


def replay(spec: dict, stream: dict, directory: Path, spans: Spans | None) -> dict:
    """One tenant's batches straight through ``StreamingResolver``.

    With *spans*, the replay mirrors the served loop and times each call:
    clusters after each batch and a checkpoint every 10th batch.  Without,
    it only adds the batches; checkpoints do not change the state, so the
    final ``state_sha`` is the same either way.
    """
    from repro.stream import StreamingResolver

    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    resolver = StreamingResolver(
        stream["attributes"],
        config=make_config(spec),
        name=stream["session"],
        checkpoint_dir=directory,
    )
    checkpoint_bytes = []
    for index, (rows, entity_ids) in enumerate(stream["batches"]):
        if spans is None:
            resolver.add_batch(rows, entity_ids=entity_ids)
            continue
        with spans.span("stream.add_batch") as span_id:
            report = resolver.add_batch(rows, entity_ids=entity_ids)
        spans.annotate(
            span_id, index_s=report["index_seconds"], new_pairs=report["new_pairs"]
        )
        with spans.span("stream.clusters"):
            resolver.clusters()
        if (index + 1) % 10 == 0:
            before = directory_bytes(directory)
            with spans.span("stream.checkpoint"):
                resolver.checkpoint()
            checkpoint_bytes.append(directory_bytes(directory) - before)
    outcome = {
        "state_sha": resolver.checkpoint()["state_sha"],
        "questions": resolver.total_questions,
        "iterations": resolver.total_iterations,
        "cost_cents": resolver.cost_cents,
        "f_measure": resolver.quality().f_measure,
        "checkpoint_bytes": checkpoint_bytes,
    }
    shutil.rmtree(directory)
    return outcome


def replay_all(spec: dict, rounds, streams_for, spans: Spans, checks: dict) -> None:
    """Replay every tenant stream of every round and compare ``state_sha``.

    Runs after the measured rounds, while the server idles.  The replays
    are independent, so ``spec["workers"]`` forked processes share them;
    in a traced run the first round's are replayed here with spans.
    """
    import multiprocessing

    jobs = [
        (served, stream, sha)
        for served in rounds
        for stream, sha in zip(streams_for(served["index"]), served["shas"])
    ]

    def args(job):
        served, stream, _ = job
        name = f"round{served['index']}-{stream['session']}"
        return spec, stream, Path(spec["work"]) / "replay" / name

    detailed = len(rounds[0]["shas"]) if spec["traced"] and rounds else 0
    outcomes = [replay(*args(job), spans) for job in jobs[:detailed]]
    pool = multiprocessing.get_context("fork").Pool(spec["workers"])
    try:
        outcomes += pool.starmap(replay, [(*args(job), None) for job in jobs[detailed:]])
    finally:
        pool.close()
        pool.join()
    for served in rounds:
        served["replays"] = []
    for job, outcome in zip(jobs, outcomes):
        served, stream, sha = job
        checks[f"state_sha_round{served['index']}-{stream['session']}"] = (
            sha == outcome["state_sha"]
        )
        served["replays"].append(outcome)


def serve_task(spec: dict, harness: ServeHarness, streams_for) -> dict:
    import asyncio

    served = asyncio.run(_serve_rounds(spec, harness, streams_for))
    rounds, tallies, checks = served["rounds"], served["tallies"], served["checks"]
    replay_spans = Spans(spec["traced"])
    replay_all(spec, rounds, streams_for, replay_spans, checks)
    peak = harness.peak_rss_mb()
    checks["server_drained_cleanly"] = harness.stop() == 0
    checks["measured_rounds"] = bool(rounds)
    first = rounds[0]["replays"] if rounds else []
    text = served["metrics_text"]
    report = {
        "rounds": rounds,
        "readings": served["readings"],
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "errors": [e for t in tallies for e in t.errors][:10],
        "peak_rss_mb": peak,
        "questions": sum(r["questions"] for r in first),
        "iterations": sum(r["iterations"] for r in first),
        "cost_cents": sum(r["cost_cents"] for r in first),
        "f_measure": statistics.fmean(r["f_measure"] for r in first) if first else 0.0,
        "checks": checks,
        "refusals": prometheus_total(text, "repro_serve_shed_total"),
        "evictions": prometheus_total(text, "repro_serve_evictions_total"),
        "restores": prometheus_total(text, "repro_serve_restores_total"),
    }
    if spec["traced"] and rounds:
        report["layers"] = _serve_layers(served["spans"], replay_spans, rounds)
        served["spans"].write(Path(spec["work"]) / "spans-serve.jsonl")
        replay_spans.write(Path(spec["work"]) / "spans-replay.jsonl")
    return report


def _serve_layers(spans: Spans, replay_spans: Spans, rounds) -> dict:
    add_batch = replay_spans.named("stream.add_batch")
    direct_ms = statistics.median(replay_spans.durations("stream.add_batch")) * 1000.0
    tenants = spans.named("tenant")
    traced = [r["wall_s"] for r in rounds if r["traced"]]
    untraced = [r["wall_s"] for r in rounds if not r["traced"]]
    return {
        "stream.add_batch_s": direct_ms / 1000.0,
        "stream.index_s": statistics.median(s["index_s"] for s in add_batch),
        "stream.new_pairs": sum(s["new_pairs"] for s in add_batch),
        "stream.checkpoint_s": statistics.median(replay_spans.durations("stream.checkpoint")),
        "stream.checkpoint_bytes": statistics.median(
            b for r in rounds[0]["replays"] for b in r["checkpoint_bytes"]
        ),
        "stream.clusters_s": statistics.median(replay_spans.durations("stream.clusters")),
        "serve.checkpoint_ms.p50": statistics.median(
            ms for r in rounds for ms in r["latency_ms"]["checkpoint"]
        ),
        "serve.overhead_ms": statistics.median(
            ms for r in rounds for ms in r["latency_ms"]["ingest"]
        )
        - direct_ms,
        "obs.unaccounted_frac": sum(spans.self_time(t["id"]) for t in tenants)
        / sum(t["end"] - t["start"] for t in tenants),
        "obs.trace_overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1.0,
    }


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #


def main() -> int:
    spec = json.loads(sys.argv[1])
    protocol = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    import repro  # noqa: F401  (the import is part of the set-up)

    imported = time.perf_counter()
    harness = None
    try:
        if spec["task"] == "serve":
            streams: dict[int, list[dict]] = {}

            def streams_for(index: int) -> list[dict]:
                if index not in streams:
                    streams[index] = tenant_streams(spec, index)
                return streams[index]

            streams_for(-1)
            streams_for(0)
            generate_s = time.perf_counter() - imported
            harness = ServeHarness(spec)
        else:
            table = make_table(spec)
            generate_s = time.perf_counter() - imported
        ready = {"event": "ready", "import_s": imported - _STARTED, "generate_s": generate_s}
        protocol.write(json.dumps(ready) + "\n")
        readings = [host_reading() for _ in range(READINGS)]
        protocol.write(json.dumps({"event": "speed", "readings": readings}) + "\n")
        if sys.stdin.readline().strip() != "go":
            return 0
        if spec["task"] == "serve":
            result = serve_task(spec, harness, streams_for)
        else:
            result = resolve_task(spec, table)
    finally:
        if harness is not None:
            harness.stop()
    result["event"] = "result"
    protocol.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
