"""Which program functions the traced run wraps, and the per-layer metrics.

Spans are named ``<module>.<function>`` after the layer that owns the
function.  Root spans are the public calls the benchmark itself makes
(``service.*``, ``banding.build``, ``client.*``); their self time is the part
of a call that no deeper span claims.
"""

from __future__ import annotations

from bench_spans import Tracer, layer_totals, stage_counts


def _batch_length(args, result) -> float:
    return len(args[1])


def instrument(tracer: Tracer) -> None:
    """Wrap every traced layer of the program (in this process)."""
    import repro.kernels as kernels
    import repro.service.journal as journal
    import repro.service.snapshot as snapshot
    from repro.core.bitarray import SharedBitArray
    from repro.core.vos import VirtualOddSketch
    from repro.hashing.families import HashFamily
    from repro.hashing.universal import UniversalHash
    from repro.index.banding import BandedSketchIndex
    from repro.server.cow import CowEpochPublisher
    from repro.server.epochs import EpochManager
    from repro.service import batching
    from repro.service.service import SimilarityService
    from repro.service.sharding import ShardedVOS
    from repro.similarity import search

    # Root calls made by the benchmark (and by the daemon's request handlers).
    tracer.wrap(SimilarityService, "ingest", "service.ingest")
    tracer.wrap(SimilarityService, "load", "service.load")
    tracer.wrap(SimilarityService, "top_k", "service.top_k")
    tracer.wrap(SimilarityService, "top_k_pairs", "service.top_k_pairs")
    tracer.wrap(SimilarityService, "estimate_many", "service.estimate_many")
    tracer.wrap(SimilarityService, "save_delta", "service.save_delta",
                work=lambda args, result: result["bytes"])
    tracer.wrap(SimilarityService, "freeze_delta", "service.freeze_delta")
    tracer.wrap(BandedSketchIndex, "build", "banding.build")
    # Write path: batching -> route -> item hash -> position hash -> xor.
    tracer.wrap(batching, "ingest_stream", "batching.ingest_stream")
    tracer.wrap(ShardedVOS, "process_batch", "sharding.process_batch")
    tracer.wrap(ShardedVOS, "split_by_shard", "sharding.split_by_shard")
    tracer.wrap(VirtualOddSketch, "process_batch", "vos.process_batch", work=_batch_length)
    tracer.wrap(UniversalHash, "hash_array", "universal.hash_array")
    tracer.wrap(HashFamily, "hash_pairs", "families.hash_pairs")
    tracer.wrap(SharedBitArray, "xor_bulk", "bitarray.xor_bulk")
    # Persistence.
    tracer.wrap(snapshot, "load_snapshot_state", "snapshot.load_snapshot_state")
    tracer.wrap(journal, "replay_journal", "journal.replay_journal")
    # Read path: scan -> candidates -> positions -> row gather -> popcount.
    tracer.wrap(search, "nearest_neighbours", "search.nearest_neighbours")
    tracer.wrap(search, "top_k_similar_pairs", "search.top_k_similar_pairs")
    tracer.wrap(BandedSketchIndex, "neighbour_candidates", "banding.neighbour_candidates",
                work=lambda args, result: len(result))
    tracer.wrap(HashFamily, "apply_many_array", "families.apply_many_array")
    tracer.wrap(VirtualOddSketch, "packed_rows", "vos.packed_rows")
    # The sharded scorer gathers through the cached form directly.
    tracer.wrap(VirtualOddSketch, "_packed_rows", "vos.packed_rows")
    tracer.wrap(kernels, "band_signatures", "kernels.band_signatures")
    tracer.wrap(kernels, "pair_counts", "kernels.pair_counts",
                work=lambda args, result: len(args[1]))
    # Epoch publishing inside the daemon.
    tracer.wrap(CowEpochPublisher, "publish_delta", "cow.publish_delta")
    tracer.wrap(EpochManager, "publish", "epochs.publish")
    # Hot scalar calls: counted, not timed.
    tracer.count(UniversalHash, "__call__", "universal.call")
    tracer.count(ShardedVOS, "cardinality", "sharding.cardinality")


#: Per-layer metrics: name -> unit.  ``<stage>.<module>.<function>.<measure>``.
PER_LAYER_UNITS: dict[str, str] = {
    # ingest stage
    "ingest.sharding.split_by_shard.self_s": "s",
    "ingest.sharding.elements_per_shard_call": "count",
    "ingest.universal.hash_array.self_s": "s",
    "ingest.families.hash_pairs.self_s": "s",
    "ingest.bitarray.xor_bulk.self_s": "s",
    "ingest.vos.process_batch.self_s": "s",
    "ingest.sharding.process_batch.self_s": "s",
    "ingest.batching.ingest_stream.self_s": "s",
    "ingest.service.ingest.self_s": "s",
    "ingest.service.save_delta.s": "s",
    "ingest.journal.bytes_per_element": "bytes",
    "ingest.snapshot.load_snapshot_state.s": "s",
    "ingest.journal.replay_journal.s": "s",
    "ingest.trace.coverage": "ratio",
    "ingest.trace.overhead_s": "s",
    # query stage
    "query.banding.build.self_s": "s",
    "query.families.apply_many_array.self_s": "s",
    "query.kernels.band_signatures.self_s": "s",
    "query.banding.neighbour_candidates.self_s": "s",
    "query.banding.candidates_per_query": "count",
    "query.search.nearest_neighbours.self_s": "s",
    "query.search.users_scanned_per_query": "count",
    "query.search.top_k_similar_pairs.self_s": "s",
    "query.vos.packed_rows.self_s": "s",
    "query.vos.row_cache.hit_ratio": "ratio",
    "query.kernels.pair_counts.self_s": "s",
    "query.kernels.pairs_per_s": "1/s",
    "query.universal.call.count_per_query": "count",
    "query.service.top_k.self_s": "s",
    "query.trace.coverage": "ratio",
    "query.trace.overhead_s": "s",
    # serve stage: client side
    "serve.client.estimate_many.p50_ms": "ms",
    "serve.client.top_k_pairs.p50_ms": "ms",
    "serve.client.ingest_batch.p50_ms": "ms",
    "serve.loadgen.lag_p90_ms": "ms",
    "serve.loadgen.read_p90_ms": "ms",
    "serve.loadgen.write_p90_ms": "ms",
    "serve.trace.coverage": "ratio",
    # serve stage: daemon registry (metrics op)
    "serve.server.request.estimate_many.p50_ms": "ms",
    "serve.server.request.top_k_pairs.p50_ms": "ms",
    "serve.server.request.ingest_batch.p50_ms": "ms",
    "serve.server.epoch.publish.p50_ms": "ms",
    "serve.server.epoch.swap_pause.p50_ms": "ms",
    "serve.server.epoch.delta_words.p50": "count",
    "serve.server.epoch.rebases": "count",
    "serve.vos.row_cache.hit_ratio": "ratio",
    # serve stage: daemon spans
    "serve.sharding.split_by_shard.self_s": "s",
    "serve.vos.process_batch.self_s": "s",
    "serve.service.freeze_delta.self_s": "s",
    "serve.cow.publish_delta.self_s": "s",
    "serve.vos.packed_rows.self_s": "s",
    "serve.kernels.pair_counts.self_s": "s",
    "serve.universal.call.count_per_query": "count",
    "serve.daemon_peak_rss_mb": "MB",
}


def _self(totals: dict, name: str) -> float:
    return totals.get(name, {}).get("self_s", 0.0)


def ingest_layer_metrics(summary: dict, elements: int) -> dict[str, float]:
    """Per-layer metrics of the ingest stage (and its recovery)."""
    t = layer_totals(summary, "ingest")
    recover = layer_totals(summary, "recover")
    shard_calls = t.get("vos.process_batch", {}).get("calls", 0)
    return {
        "ingest.sharding.split_by_shard.self_s": _self(t, "sharding.split_by_shard"),
        "ingest.sharding.elements_per_shard_call": (
            t["vos.process_batch"]["work"] / shard_calls if shard_calls else 0.0
        ),
        "ingest.universal.hash_array.self_s": _self(t, "universal.hash_array"),
        "ingest.families.hash_pairs.self_s": _self(t, "families.hash_pairs"),
        "ingest.bitarray.xor_bulk.self_s": _self(t, "bitarray.xor_bulk"),
        "ingest.vos.process_batch.self_s": _self(t, "vos.process_batch"),
        "ingest.sharding.process_batch.self_s": _self(t, "sharding.process_batch"),
        "ingest.batching.ingest_stream.self_s": _self(t, "batching.ingest_stream"),
        "ingest.service.ingest.self_s": _self(t, "service.ingest"),
        "ingest.service.save_delta.s": t.get("service.save_delta", {}).get("seconds", 0.0),
        "ingest.journal.bytes_per_element": (
            t.get("service.save_delta", {}).get("work", 0.0) / elements
        ),
        "ingest.snapshot.load_snapshot_state.s": (
            recover.get("snapshot.load_snapshot_state", {}).get("seconds", 0.0)
        ),
        "ingest.journal.replay_journal.s": (
            recover.get("journal.replay_journal", {}).get("seconds", 0.0)
        ),
    }


def query_layer_metrics(summary: dict, probes: int, row_cache_hit_ratio: float) -> dict[str, float]:
    """Per-layer metrics of the query stage."""
    t = layer_totals(summary, "query")
    pair_seconds = _self(t, "kernels.pair_counts")
    candidates = t.get("banding.neighbour_candidates", {})
    return {
        "query.banding.build.self_s": _self(t, "banding.build"),
        "query.families.apply_many_array.self_s": _self(t, "families.apply_many_array"),
        "query.kernels.band_signatures.self_s": _self(t, "kernels.band_signatures"),
        "query.banding.neighbour_candidates.self_s": _self(t, "banding.neighbour_candidates"),
        "query.banding.candidates_per_query": candidates.get("work", 0.0) / probes,
        "query.search.nearest_neighbours.self_s": _self(t, "search.nearest_neighbours"),
        "query.search.users_scanned_per_query": (
            stage_counts(summary, "query", "service.top_k", "sharding.cardinality") / probes
        ),
        "query.search.top_k_similar_pairs.self_s": _self(t, "search.top_k_similar_pairs"),
        "query.vos.packed_rows.self_s": _self(t, "vos.packed_rows"),
        "query.vos.row_cache.hit_ratio": row_cache_hit_ratio,
        "query.kernels.pair_counts.self_s": pair_seconds,
        "query.kernels.pairs_per_s": (
            t.get("kernels.pair_counts", {}).get("work", 0.0) / pair_seconds
            if pair_seconds > 0 else 0.0
        ),
        "query.universal.call.count_per_query": (
            stage_counts(summary, "query", "service.top_k", "universal.call") / probes
        ),
        "query.service.top_k.self_s": _self(t, "service.top_k"),
    }


def daemon_layer_metrics(summary: dict, reads: int) -> dict[str, float]:
    """Per-layer metrics from the traced daemon's own spans."""
    t = layer_totals(summary, "serve")
    calls = sum(
        stage_counts(summary, "serve", root, "universal.call")
        for root in ("service.estimate_many", "service.top_k_pairs")
    )
    return {
        "serve.sharding.split_by_shard.self_s": _self(t, "sharding.split_by_shard"),
        "serve.vos.process_batch.self_s": _self(t, "vos.process_batch"),
        "serve.service.freeze_delta.self_s": _self(t, "service.freeze_delta"),
        "serve.cow.publish_delta.self_s": _self(t, "cow.publish_delta"),
        "serve.vos.packed_rows.self_s": _self(t, "vos.packed_rows"),
        "serve.kernels.pair_counts.self_s": _self(t, "kernels.pair_counts"),
        "serve.universal.call.count_per_query": calls / reads if reads else 0.0,
    }

