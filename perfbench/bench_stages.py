"""The benchmark pipeline: ingest-churn, query-index and serve-mixed stages.

Every run executes all three stages on one generated stream, so every run
measures every end-to-end metric; the workload chooses the configuration the
stream runs against (see ``WORKLOADS``).  The in-process stages run in
rounds: each round builds a fresh service, ingests the whole stream and runs
a slice of the query plan, with the stream's recovery between the slice's two
halves, so every in-process metric is sampled across the whole run rather
than in one burst.  Each stage checks the
program's outputs: a failed check is a failed operation.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import bench_gen
import bench_layers as layers
from bench_spans import Tracer, root_seconds

from repro.kernels import kernel_info
from repro.obs import get_registry
from repro.server import ServingClient
from repro.service.journal import JournalConfig
from repro.service.service import CheckpointPolicy, ServiceConfig, SimilarityService
from repro.streams.batch import ElementBatch
from repro.streams.edge import Action, StreamElement


@dataclass(frozen=True)
class Plan:
    """Everything one workload fixes besides the seed."""

    shards: int
    spec: bench_gen.StreamSpec = bench_gen.StreamSpec()
    #: Users the service's memory budget is provisioned for.  Headroom over
    #: the active users keeps the shared arrays' fill (beta) low, the regime
    #: in which LSH banding can find similar users at all.
    provisioned_users: int = 30_000
    checkpoint_every: int = 65536
    #: In-process rounds of construct -> ingest -> index build -> first half
    #: of the round's probes -> recover -> second half; the probes and pool
    #: queries are split evenly over the rounds.  The host's speed drifts over
    #: seconds, so each metric's samples are spread over the whole run.
    rounds: int = 3
    #: Daemon starts timed for ``setup_s`` (the last one serves).
    daemon_starts: int = 2
    probes: int = 110
    family_probe_share: float = 0.25
    top_k: int = 10
    pool_size: int = 512
    pool_queries: int = 30
    tracked_users: int = 2000
    serve_workers: int = 2
    serve_pool: int = 192
    serve_pairs: int = 256
    #: Open-loop rate (requests/s) of the write connection; the serve stage
    #: runs for ``--seconds``.  Each publish re-applies the publisher's
    #: cumulative patch, so write cost grows through the stage; 5/s stays
    #: sustainable.
    write_rate: float = 5.0
    #: Due times of the reads within each write period, as fractions of the
    #: period after the write's due time.  Reads land in the gap a healthy
    #: publish leaves, so latency percentiles sit on service times rather
    #: than on the share of reads that happen to queue behind a publish; a
    #: publish that overruns its gap still delays the reads after it.
    read_phases: tuple[float, ...] = (0.7, 0.86)
    #: Estimate_many requests per top_k_pairs request on the read connection.
    reads_per_pool_read: int = 3


#: The workloads: the same stream over 64 or 8 shards.  Per-shard fixed costs
#: (routing fan-out, one sub-batch per shard, per-shard index tables, row
#: gathers and publish overlays) dominate at 64 and fade at 8.
WORKLOADS = {
    "shards64": Plan(shards=64),
    "shards8": Plan(shards=8),
}


READ_OPS = {"estimate_many", "top_k_pairs"}
WRITE_OPS = {"ingest_batch"}


@dataclass(frozen=True)
class Request:
    """One open-loop request: its schedule slot, due/sent/done times, outcome."""

    op: str
    index: int
    due: float
    sent: float
    done: float
    ok: bool


def percentile(values, q: float) -> float:
    """The ``q``-quantile (0..1) with linear interpolation."""
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


@dataclass
class Outcome:
    """How many operations a run attempted and failed, and why."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, condition: bool, message: str) -> None:
        """Count one output check; a failed check is a failed operation."""
        self.attempted += 1
        if not condition:
            self.failed += 1
            self.problems.append(message)


@dataclass
class Rounds:
    """Samples gathered by the in-process rounds."""

    construct_s: list[float] = field(default_factory=list)
    ingest_eps: list[float] = field(default_factory=list)
    recover_s: list[float] = field(default_factory=list)
    build_s: list[float] = field(default_factory=list)
    topk_s: list[float] = field(default_factory=list)
    pool_s: list[float] = field(default_factory=list)
    relevant: int = 0
    found: int = 0
    probes: int = 0
    #: Wall time of the ingest + recovery part and of the query part.
    ingest_wall_s: float = 0.0
    query_wall_s: float = 0.0


class Pipeline:
    """One workload run: stream, stages, checks, metrics."""

    def __init__(
        self, plan: Plan, seed: int, seconds: float, work_dir: Path, src_dir: Path
    ) -> None:
        self.plan = plan
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir
        self.src_dir = src_dir
        self.tmp_dir = work_dir / "tmp"
        self.tmp_dir.mkdir(parents=True, exist_ok=True)
        self.outcome = Outcome()
        self.tracer: Tracer | None = None
        spec = replace(
            plan.spec, serve_batches=max(1, math.ceil(plan.write_rate * seconds))
        )
        self.stream = bench_gen.generate(spec, seed)
        self.batches = [
            ElementBatch(b.users, b.items, b.signs) for b in self.stream.ingest_batches
        ]
        self.elements = sum(len(b) for b in self.batches)
        live = [u for u, n in self.stream.live_sizes.items() if n > 0]
        self.live_users = np.array(sorted(live), dtype=np.int64)
        self.family_of = {u: members for members in self.stream.families for u in members}
        self.pool = sorted(self._sample_users(self._rng(2), plan.pool_size))
        kernel_info()  # resolve (and compile, on first use) the kernel tier
        self.daemon_start_s: list[float] = []
        self._daemons: list[subprocess.Popen] = []
        self.row_cache_hit_ratio = 0.0
        self.serve_records: list[Request] = []
        self.serve_walls: list[float] = []
        self.daemon_metrics: dict = {}

    # -- helpers ---------------------------------------------------------------------

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def _stage(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.stage = name

    def _config(self) -> ServiceConfig:
        return ServiceConfig(
            expected_users=self.plan.provisioned_users,
            num_shards=self.plan.shards,
            seed=self.seed,
            checkpoint=CheckpointPolicy(every_n_elements=self.plan.checkpoint_every),
            journal=JournalConfig(group_commit=True),
        )

    def _rng(self, stream: int) -> np.random.Generator:
        """An independent generator per purpose, so repeated passes draw the same plan."""
        return np.random.default_rng([self.seed, stream])

    def _sample_users(self, rng: np.random.Generator, count: int) -> list[int]:
        return rng.choice(self.live_users, count, replace=False).tolist()

    # -- in-process rounds -----------------------------------------------------------

    def in_process(self, rounds: int, tag: str) -> tuple[SimilarityService, Rounds]:
        """Run ``rounds`` rounds; returns the last round's service and all samples."""
        samples = Rounds()
        service = None
        for index in range(rounds):
            service = None  # release the previous round's state first
            snapshot = self.work_dir / f"{tag}{index}.vos"
            service = self.ingest_stage(snapshot, samples)
            self.query_stage(
                service, self._rng(10 + index), samples,
                halfway=lambda: self._check_recovered(
                    service, self.recover_stage(snapshot, samples)
                ),
            )
            self._check_cardinalities(service)
        return service, samples

    def ingest_stage(self, snapshot: Path, samples: Rounds) -> SimilarityService:
        """Serial columnar ingest with inline delta checkpoints."""
        started = time.perf_counter()
        service = SimilarityService.from_config(self._config())
        samples.construct_s.append(time.perf_counter() - started)
        service.save(snapshot)
        self._stage("ingest")
        started = time.perf_counter()
        for batch in self.batches:
            service.ingest(batch)
        service.save_delta()
        ingest_s = time.perf_counter() - started
        self._stage("")
        self.outcome.attempted += len(self.batches) + 1
        samples.ingest_eps.append(self.elements / ingest_s)
        samples.ingest_wall_s += ingest_s
        return service

    def recover_stage(self, snapshot: Path, samples: Rounds) -> SimilarityService:
        """Recover snapshot + journal into a second service."""
        self._stage("recover")
        started = time.perf_counter()
        recovered = SimilarityService.load(snapshot)
        recover_s = time.perf_counter() - started
        self._stage("")
        self.outcome.attempted += 1
        samples.recover_s.append(recover_s)
        samples.ingest_wall_s += recover_s
        return recovered

    def _check_recovered(self, live: SimilarityService, recovered: SimilarityService) -> None:
        differing = [
            index
            for index, (a, b) in enumerate(
                zip(live.sketch.row_shards(), recovered.sketch.row_shards())
            )
            if a.shared_array.to_packed_bytes() != b.shared_array.to_packed_bytes()
            or dict(a._cardinalities) != dict(b._cardinalities)
        ]
        self.outcome.check(not differing, f"recovered shards {differing} differ from the live ones")

    def _check_cardinalities(self, service: SimilarityService) -> None:
        sizes = self.stream.live_sizes
        tracked = self._sample_users(
            self._rng(1), min(self.plan.tracked_users, self.live_users.size)
        )
        tracked += list(self.stream.family_sets)
        wrong = [u for u in tracked if service.sketch.cardinality(u) != sizes[u]]
        self.outcome.check(not wrong, f"cardinality differs from the exact set size for {wrong[:5]}")

    def query_stage(
        self, service: SimilarityService, rng: np.random.Generator, samples: Rounds,
        halfway,
    ) -> None:
        """Index build, then LSH top-k probes mixed with exhaustive pairs over the hot pool.

        ``halfway()`` runs between the two halves of the probes, outside this
        stage's wall time.
        """
        plan, out = self.plan, self.outcome
        count = math.ceil(plan.probes / plan.rounds)
        family_probes = int(round(count * plan.family_probe_share))
        probes = rng.choice(sorted(self.family_of), family_probes, replace=False).tolist()
        probes += self._sample_users(rng, count - family_probes)
        rng.shuffle(probes)
        registry = get_registry()
        cache_before = self._row_cache_counts(registry)
        self._stage("query")
        started = time.perf_counter()
        service.index().build()
        samples.build_s.append(time.perf_counter() - started)
        # Pool queries are spread among the probes, so both sample the same span.
        pool_after = set(
            np.linspace(0, len(probes) - 1, math.ceil(plan.pool_queries / plan.rounds))
            .round().astype(int).tolist()
        )
        results, pool_results = [], []
        paused = 0.0
        for index, user in enumerate(probes):
            if index == len(probes) // 2:
                t0 = time.perf_counter()
                halfway()
                paused = time.perf_counter() - t0
                self._stage("query")
            t0 = time.perf_counter()
            results.append(service.top_k(user, k=plan.top_k, index="lsh"))
            samples.topk_s.append(time.perf_counter() - t0)
            if index in pool_after:
                t0 = time.perf_counter()
                pool_results.append(service.top_k_pairs(k=plan.top_k, users=self.pool))
                samples.pool_s.append(time.perf_counter() - t0)
        samples.query_wall_s += time.perf_counter() - started - paused
        self._stage("")
        samples.probes += len(probes)
        out.attempted += 1 + len(probes) + len(pool_results)
        hits, misses = (
            after - before
            for after, before in zip(self._row_cache_counts(registry), cache_before)
        )
        self.row_cache_hit_ratio = hits / (hits + misses) if hits + misses else 0.0

        # Every LSH pair's score must equal the exhaustive estimator's score.
        pairs = [(p.user_a, p.user_b) for result in results for p in result]
        lsh_scores = [p.jaccard for result in results for p in result]
        exhaustive = service.estimate_many(pairs)
        mismatched = sum(e.jaccard != s for e, s in zip(exhaustive, lsh_scores))
        out.check(mismatched == 0, f"{mismatched} LSH pair scores differ from exhaustive scores")
        out.check(
            all(r == pool_results[0] for r in pool_results),
            "repeated top_k_pairs over the hot pool disagree",
        )
        # Recall of planted family members with exact J >= 0.5.
        sets = self.stream.family_sets
        for user, result in zip(probes, results):
            returned = {p.user_b if p.user_a == user else p.user_a for p in result}
            for other in self.family_of.get(user, ()):
                if other != user and bench_gen.exact_jaccard(sets[user], sets[other]) >= 0.5:
                    samples.relevant += 1
                    samples.found += other in returned
        out.check(samples.relevant > 0, "no planted family pair reaches J >= 0.5")

    def jaccard_rmse(self, service: SimilarityService) -> float:
        """RMSE of the sketch's Jaccard over every planted family pair."""
        sets = self.stream.family_sets
        planted = [
            (a, b) for members in self.stream.families
            for i, a in enumerate(members) for b in members[i + 1:]
        ]
        estimates = service.estimate_many(planted)
        errors = [
            e.jaccard - bench_gen.exact_jaccard(sets[a], sets[b])
            for e, (a, b) in zip(estimates, planted)
        ]
        return math.sqrt(sum(e * e for e in errors) / len(errors))

    @staticmethod
    def _row_cache_counts(registry) -> tuple[int, int]:
        counters = registry.snapshot()["counters"]
        return tuple(
            counters.get(f"query.row_cache.{kind}", {}).get("value", 0)
            for kind in ("hits", "misses")
        )

    # -- serve-mixed -----------------------------------------------------------------

    def _start_daemon(self, snapshot: Path, trace_out: Path | None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src_dir)
        env["TMPDIR"] = str(self.tmp_dir)
        serve_args = [
            "serve", "--snapshot", str(snapshot), "--port", "0",
            "--serve-workers", str(self.plan.serve_workers),
        ]
        if trace_out is None:
            command = [sys.executable, "-m", "repro.cli", *serve_args]
        else:
            launcher = Path(__file__).with_name("traced_serve.py")
            command = [sys.executable, str(launcher), str(trace_out), *serve_args]
        started = time.perf_counter()
        with open(self.work_dir / "serve.log", "ab") as log:
            process = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=log, env=env, text=True
            )
        self._daemons.append(process)
        port = None
        for line in process.stdout:
            if line.startswith("# serving"):
                port = int(line.rsplit(":", 1)[1].split()[0])
                break
        if port is None:
            process.wait(timeout=60)
            raise RuntimeError(f"repro serve exited with {process.returncode} before serving")
        with ServingClient("127.0.0.1", port) as client:
            client.ping()
        self.daemon_start_s.append(time.perf_counter() - started)
        return process, port

    def close(self) -> None:
        """Stop every daemon this run started and wait for each to end."""
        for process in self._daemons:
            if process.returncode is None:
                self._stop_daemon(process)

    @staticmethod
    def _stop_daemon(process) -> int:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        try:
            process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
        return process.returncode

    def _read_plan(self, rng: np.random.Generator) -> list[tuple[float, str, object]]:
        plan = self.plan
        pool = sorted(self._sample_users(rng, plan.serve_pool))
        period = 1.0 / plan.write_rate
        offsets = [
            (index + 0.5 + phase) * period
            for index in range(len(self.stream.serve_batches))
            for phase in plan.read_phases
        ]
        schedule = []
        for index, offset in enumerate(offsets):
            if index % (plan.reads_per_pool_read + 1) == plan.reads_per_pool_read:
                schedule.append((offset, "top_k_pairs", pool))
            else:
                users = rng.choice(self.live_users, (plan.serve_pairs, 2))
                schedule.append((offset, "estimate_many", [tuple(p) for p in users.tolist()]))
        return schedule

    def _write_plan(self) -> list[tuple[float, str, object]]:
        rate = self.plan.write_rate
        schedule = []
        for index, batch in enumerate(self.stream.serve_batches):
            offset = (index + 0.5) / rate
            elements = [
                StreamElement(u, i, Action.INSERT if s > 0 else Action.DELETE)
                for u, i, s in zip(batch.users.tolist(), batch.items.tolist(), batch.signs.tolist())
            ]
            schedule.append((offset, "ingest_batch", elements))
        return schedule

    def _open_loop(self, port, schedule, t0, ready, stop, records, walls, problems) -> None:
        """Send ``schedule`` on its timetable over one connection (never waits to catch up)."""
        with ServingClient("127.0.0.1", port) as client:
            calls = {
                "estimate_many": client.estimate_many,
                "top_k_pairs": lambda users: client.top_k_pairs(k=self.plan.top_k, users=users),
                "ingest_batch": client.ingest_batch,
            }
            ready.wait()
            started = time.perf_counter()
            for index, (offset, op, payload) in enumerate(schedule):
                due = t0 + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    with self.span("loadgen.wait"):
                        stop.wait(delay)
                if stop.is_set():
                    break
                sent = time.perf_counter()
                ok = True
                try:
                    with self.span(f"client.{op}"):
                        calls[op](payload)
                except Exception as error:  # noqa: BLE001 - counted as a failed request
                    ok = False
                    problems.append(f"{op}: {type(error).__name__}: {error}")
                records.append(Request(op, index, due, sent, time.perf_counter(), ok))
            walls.append(time.perf_counter() - started)

    def serve_stage(self, service: SimilarityService, trace_out: Path | None) -> dict[str, float]:
        """Open-loop reads beside open-loop ingest against a ``repro serve`` daemon."""
        plan, out = self.plan, self.outcome
        # The daemon gets its own copy: replaying the writes into ``service``
        # for the parity check may write delta checkpoints to its journal.
        service.save(self.work_dir / "replay.vos", include_index=False)
        snapshot = self.work_dir / "serve.vos"
        shutil.copyfile(self.work_dir / "replay.vos", snapshot)
        for attempt in range(plan.daemon_starts):
            last = attempt == plan.daemon_starts - 1
            process, port = self._start_daemon(snapshot, trace_out if last else None)
            if not last:
                self._stop_daemon(process)
        reads, writes = self._read_plan(self._rng(3)), self._write_plan()
        records: list[Request] = []
        walls: list[float] = []
        problems: list[str] = []
        try:
            with ServingClient("127.0.0.1", port) as client:
                # Warm the daemon's per-user position cache before timing.
                users = self.live_users.tolist()
                client.estimate_many(list(zip(users[0::2], users[1::2])))
            self._stage("serve")
            ready, stop = threading.Event(), threading.Event()
            t0 = time.perf_counter() + 0.2
            threads = [
                threading.Thread(
                    target=self._open_loop,
                    args=(port, schedule, t0, ready, stop, records, walls, problems),
                )
                for schedule in (reads, writes)
            ]
            for thread in threads:
                thread.start()
            ready.set()
            try:
                for thread in threads:
                    thread.join()
            finally:
                stop.set()
            self._stage("")
            out.attempted += len(records)
            out.failed += sum(not r.ok for r in records)
            out.problems += problems[:5]
            with ServingClient("127.0.0.1", port) as client:
                self.daemon_metrics = client.metrics()
                self._check_serve_parity(client, service, writes, records)
        finally:
            code = self._stop_daemon(process)
        out.check(code == 0, f"repro serve exited with {code}")
        leftovers = sorted(p.name for p in self.tmp_dir.glob("repro-arena-*"))
        out.check(not leftovers, f"daemon left arena files behind: {leftovers[:3]}")
        self.serve_records, self.serve_walls = records, walls
        return {
            "serve_read_p50_ms": self.serve_latency(READ_OPS, 0.5),
            "serve_write_p50_ms": self.serve_latency(WRITE_OPS, 0.5),
        }

    def serve_latency(self, ops: set[str], q: float) -> float:
        """The ``q``-quantile of the serve stage's latencies from due time, in ms."""
        return percentile(
            [1000 * (r.done - r.due) for r in self.serve_records if r.op in ops and r.ok], q
        )

    def _check_serve_parity(self, client, service, writes, records) -> None:
        """Daemon answers must equal an in-process service that replayed the same batches.

        ``service`` holds exactly the state the daemon loaded from its snapshot.
        """
        self._stage("serve-check")
        applied = sorted(r.index for r in records if r.op == "ingest_batch" and r.ok)
        for index in applied:
            service.ingest(writes[index][2])
        rng = self._rng(5)
        pairs = [tuple(p) for p in rng.choice(self.live_users, (512, 2)).tolist()]
        pool = sorted(self._sample_users(rng, self.plan.serve_pool))
        self.outcome.check(
            client.estimate_many(pairs) == service.estimate_many(pairs),
            "daemon estimate_many differs from the in-process replay",
        )
        self.outcome.check(
            client.top_k_pairs(k=self.plan.top_k, users=pool)
            == service.top_k_pairs(k=self.plan.top_k, users=pool),
            "daemon top_k_pairs differs from the in-process replay",
        )
        self._stage("")

    def serve_layer_metrics(self, daemon_summary: dict | None) -> dict[str, float]:
        """Client round trips, daemon registry figures and daemon span metrics."""
        records, metrics = self.serve_records, self.daemon_metrics
        histograms, counters = metrics["histograms"], metrics["counters"]
        result: dict[str, float] = {}
        for op in ("estimate_many", "top_k_pairs", "ingest_batch"):
            trips = [1000 * (r.done - r.sent) for r in records if r.op == op and r.ok]
            result[f"serve.client.{op}.p50_ms"] = percentile(trips, 0.5)
            histogram = histograms.get(f"server.request.{op}.seconds", {})
            result[f"serve.server.request.{op}.p50_ms"] = 1000 * (histogram.get("p50") or 0.0)
        result["serve.loadgen.lag_p90_ms"] = percentile(
            [1000 * (r.sent - r.due) for r in records], 0.9
        )
        result["serve.loadgen.read_p90_ms"] = self.serve_latency(READ_OPS, 0.9)
        result["serve.loadgen.write_p90_ms"] = self.serve_latency(WRITE_OPS, 0.9)
        for name in ("publish", "swap_pause"):
            value = histograms.get(f"server.epoch.{name}", {}).get("p50") or 0.0
            result[f"serve.server.epoch.{name}.p50_ms"] = 1000 * value
        result["serve.server.epoch.delta_words.p50"] = (
            histograms.get("server.epoch.delta_words", {}).get("p50") or 0.0
        )
        result["serve.server.epoch.rebases"] = (
            counters.get("server.epoch.rebases", {}).get("value", 0)
        )
        hits = counters.get("query.row_cache.hits", {}).get("value", 0)
        misses = counters.get("query.row_cache.misses", {}).get("value", 0)
        result["serve.vos.row_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        result["serve.daemon_peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        )
        if daemon_summary is not None:
            reads = sum(1 for r in records if r.op != "ingest_batch")
            result.update(layers.daemon_layer_metrics(daemon_summary, reads))
        return result


#: End-to-end metrics: name -> unit.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ingest_eps": "1/s",
    "recover_s": "s",
    "index_build_s": "s",
    "topk_p50_ms": "ms",
    "topk_p90_ms": "ms",
    "pool_pairs_p50_ms": "ms",
    "lsh_recall": "ratio",
    "jaccard_rmse": "ratio",
    "serve_read_p50_ms": "ms",
    "serve_write_p50_ms": "ms",
}


def untraced(pipeline: Pipeline) -> dict[str, float]:
    """End-to-end metrics: every stage, no wrappers installed."""
    service, rounds = pipeline.in_process(pipeline.plan.rounds, "round")
    metrics = {
        "ingest_eps": statistics.median(rounds.ingest_eps),
        "recover_s": statistics.median(rounds.recover_s),
        "index_build_s": statistics.median(rounds.build_s),
        "topk_p50_ms": 1000 * percentile(rounds.topk_s, 0.5),
        "topk_p90_ms": 1000 * percentile(rounds.topk_s, 0.9),
        "pool_pairs_p50_ms": 1000 * percentile(rounds.pool_s, 0.5),
        "lsh_recall": rounds.found / rounds.relevant if rounds.relevant else 0.0,
        "jaccard_rmse": pipeline.jaccard_rmse(service),
    }
    metrics.update(pipeline.serve_stage(service, None))
    metrics["setup_s"] = (
        statistics.median(rounds.construct_s) + statistics.median(pipeline.daemon_start_s)
    )
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {name: metrics[name] for name in END_TO_END_UNITS}


def traced(pipeline: Pipeline, trace_dir: Path) -> dict[str, float]:
    """Per-layer metrics: one untraced round, then one traced round and the serve stage.

    The untraced round gives the wall times tracing overhead is measured
    against.  Spans are written to ``trace_dir`` (this process's and the
    daemon's).
    """
    plain_service, plain = pipeline.in_process(1, "plain")
    del plain_service
    tracer = Tracer()
    pipeline.tracer = tracer
    layers.instrument(tracer)
    daemon_trace = trace_dir / "daemon-trace.json"
    try:
        service, rounds = pipeline.in_process(1, "traced")
        pipeline.serve_stage(service, daemon_trace)
    finally:
        tracer.uninstall()
        pipeline.tracer = None
    tracer.write(trace_dir / "trace.json")
    summary = tracer.summary()
    daemon_summary = json.loads(daemon_trace.read_text()) if daemon_trace.exists() else None
    metrics = layers.ingest_layer_metrics(summary, pipeline.elements)
    metrics.update(
        layers.query_layer_metrics(summary, rounds.probes, pipeline.row_cache_hit_ratio)
    )
    metrics.update(pipeline.serve_layer_metrics(daemon_summary))
    metrics["ingest.trace.coverage"] = (
        root_seconds(summary, "ingest") + root_seconds(summary, "recover")
    ) / rounds.ingest_wall_s
    metrics["ingest.trace.overhead_s"] = rounds.ingest_wall_s - plain.ingest_wall_s
    metrics["query.trace.coverage"] = root_seconds(summary, "query") / rounds.query_wall_s
    metrics["query.trace.overhead_s"] = rounds.query_wall_s - plain.query_wall_s
    metrics["serve.trace.coverage"] = root_seconds(summary, "serve") / sum(pipeline.serve_walls)
    return {name: metrics[name] for name in layers.PER_LAYER_UNITS}
