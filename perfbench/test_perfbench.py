"""Self-tests of the benchmark: generator, span arithmetic, tiny runs of each workload."""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
try:  # pragma: no cover
    import repro  # noqa: F401
except ModuleNotFoundError:  # pragma: no cover
    sys.path.insert(0, str(SRC))

import math

import numpy as np
import pytest

import bench_gen
import bench_layers
import bench_stages
from bench_spans import SpanRecord, Tracer, covered_length, self_times, span_paths

TINY_SPEC = bench_gen.StreamSpec(
    users=200, items=4000, batches=4, batch_elements=512,
    families=4, family_size=3, family_base=40, family_extra=4,
)


def tiny(plan: bench_stages.Plan) -> bench_stages.Plan:
    return replace(
        plan, spec=TINY_SPEC, provisioned_users=2000, checkpoint_every=1024,
        rounds=1, daemon_starts=1, probes=6, pool_size=32,
        pool_queries=3, tracked_users=50, serve_pool=16,
        serve_pairs=16, write_rate=10.0,
    )


def span(span_id, parent, start, end, name="x"):
    return SpanRecord(span_id, parent, name, "stage", 1, start, end)


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        span(1, None, 0.0, 10.0, "root"),
        span(2, 1, 1.0, 4.0, "a"),
        span(3, 2, 2.0, 3.0, "b"),
        span(4, 1, 6.0, 7.5, "c"),
    ]
    selfs = self_times(spans)
    assert selfs == {1: 10.0 - 3.0 - 1.5, 2: 2.0, 3: 1.0, 4: 1.5}
    # Self times under one root add up to the root's duration.
    assert math.isclose(sum(selfs.values()), 10.0)
    assert span_paths(spans) == {1: "root", 2: "root/a", 3: "root/a/b", 4: "root/c"}


def test_child_coverage_is_a_clipped_union():
    assert covered_length([(1.0, 4.0), (3.0, 6.0)], 0.0, 10.0) == 5.0
    assert covered_length([(-1.0, 2.0), (8.0, 12.0)], 0.0, 10.0) == 4.0
    assert covered_length([], 0.0, 10.0) == 0.0


class _Layer:
    def work(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n

    def chunks(self, n):
        yield from range(n)

    def hot(self):
        return 1


def test_tracer_records_nested_spans_and_restores():
    original = _Layer.__dict__["work"]
    tracer = Tracer()
    tracer.stage = "s"
    tracer.wrap(_Layer, "work", "layer.work", work=lambda args, result: args[1])
    tracer.wrap(_Layer, "inner", "layer.inner")
    tracer.wrap(_Layer, "chunks", "layer.chunks")
    tracer.count(_Layer, "hot", "layer.hot")
    try:
        layer = _Layer()
        assert layer.work(5) == 6
        assert list(layer.chunks(3)) == [0, 1, 2]
        with tracer.span("root"):
            layer.hot()
            layer.hot()
    finally:
        tracer.uninstall()
    assert _Layer.__dict__["work"] is original
    summary = tracer.summary()
    rows = {row["path"]: row for row in summary["paths"]}
    assert rows["layer.work"]["work"] == 5
    assert rows["layer.work/layer.inner"]["calls"] == 1
    assert rows["layer.chunks"]["calls"] == 4  # three yields and the final resume
    assert summary["counts"] == [
        {"stage": "s", "root": "root", "name": "layer.hot", "calls": 2}
    ]


def test_generator_never_double_inserts_or_deletes_absent_edges():
    stream = bench_gen.generate(TINY_SPEC, seed=3)
    live: set[tuple[int, int]] = set()
    for batch in stream.ingest_batches + stream.serve_batches:
        inserted: set[tuple[int, int]] = set()
        deletes = 0
        for user, item, sign in zip(
            batch.users.tolist(), batch.items.tolist(), batch.signs.tolist()
        ):
            if sign > 0:
                assert (user, item) not in live
                live.add((user, item))
                inserted.add((user, item))
            else:
                deletes += 1
                assert (user, item) in live and (user, item) not in inserted
                live.remove((user, item))
        if batch is not stream.ingest_batches[0]:
            assert deletes == round(len(batch) * TINY_SPEC.delete_share)
        if batch is stream.ingest_batches[-1]:
            sizes: dict[int, int] = {}
            for user, _ in live:
                sizes[user] = sizes.get(user, 0) + 1
            assert sizes == stream.live_sizes
    for user, items in stream.family_sets.items():
        assert {item for u, item in live if u == user} == set(items.tolist())
    again = bench_gen.generate(TINY_SPEC, seed=3)
    assert np.array_equal(again.ingest_batches[1].items, stream.ingest_batches[1].items)


@pytest.mark.parametrize("workload", sorted(bench_stages.WORKLOADS))
def test_tiny_workload_passes_every_check(workload, tmp_path):
    pipeline = bench_stages.Pipeline(
        tiny(bench_stages.WORKLOADS[workload]), 5, 0.6, tmp_path, SRC
    )
    try:
        metrics = bench_stages.untraced(pipeline)
    finally:
        pipeline.close()
    assert pipeline.outcome.failed == 0, pipeline.outcome.problems
    assert set(metrics) == set(bench_stages.END_TO_END_UNITS)
    assert all(math.isfinite(value) for value in metrics.values())
    assert not list((tmp_path / "tmp").glob("repro-arena-*"))


def test_tiny_traced_run_covers_wall_time(tmp_path):
    pipeline = bench_stages.Pipeline(
        tiny(bench_stages.WORKLOADS["shards8"]), 6, 0.6, tmp_path, SRC
    )
    try:
        metrics = bench_stages.traced(pipeline, tmp_path)
    finally:
        pipeline.close()
    assert pipeline.outcome.failed == 0, pipeline.outcome.problems
    assert set(metrics) == set(bench_layers.PER_LAYER_UNITS)
    for stage in ("ingest", "query", "serve"):
        assert metrics[f"{stage}.trace.coverage"] >= 0.9
    assert (tmp_path / "trace.json").exists() and (tmp_path / "daemon-trace.json").exists()
