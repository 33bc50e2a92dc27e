"""Copy-on-write epoch publishing: parity, noops, change cursors, isolation.

The acceptance bar for :mod:`repro.server.cow`: every epoch the daemon
publishes from changed-word overlays must answer every query bit-identically
(``==``) to the full-freeze oracle — ``from_state_bytes(dumps_state())`` of
the writer it was published from — including delete-heavy batches that
cancel inserts and users that are re-inserted after deletion.  No-op
publishes (nothing changed) must short-circuit without copying anything,
pinned readers must keep their overlay across later publishes, and the
publish cursor must stay independent of the journal's cursor.
"""

from __future__ import annotations

import socket
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.vos import VirtualOddSketch
from repro.obs import get_registry
from repro.server import CowEpochPublisher, ServingClient, ServingDaemon
from repro.server.cow import LayeredCounts
from repro.service import ServiceConfig, ShardedVOS
from repro.service.service import SimilarityService
from repro.streams import Action, StreamElement


def _inserts(users, items) -> list[StreamElement]:
    return [StreamElement(u, i, Action.INSERT) for u in users for i in items]


def _deletes(users, items) -> list[StreamElement]:
    return [StreamElement(u, i, Action.DELETE) for u in users for i in items]


def _sharded_service(seed: int = 19) -> SimilarityService:
    return SimilarityService.from_config(
        ServiceConfig(expected_users=300, num_shards=4, seed=seed)
    )


def _plain_service(seed: int = 19) -> SimilarityService:
    sketch = VirtualOddSketch(
        shared_array_bits=1 << 14, virtual_sketch_size=256, seed=seed
    )
    return SimilarityService(sketch)


def _oracle(writer: SimilarityService) -> SimilarityService:
    """The full-freeze reference copy of the writer's current state."""
    return SimilarityService.from_state_bytes(
        writer.dumps_state(),
        index_config=writer.index_config,
        elements_ingested=writer.elements_ingested,
    )


def _assert_same_state(left: SimilarityService, right: SimilarityService) -> None:
    """Shard by shard: identical bits, popcounts and counters."""
    for a, b in zip(left.sketch.row_shards(), right.sketch.row_shards(), strict=True):
        assert a.shared_array.to_packed_bytes() == b.shared_array.to_packed_bytes()
        assert a.shared_array.ones_count == b.shared_array.ones_count
        assert dict(a._cardinalities) == dict(b._cardinalities)


#: Ingest rounds covering the hard cases: plain growth, a delete-heavy batch
#: that cancels earlier inserts exactly, and users re-inserted after deletion.
ROUNDS = [
    _inserts(range(30), range(12)),
    _inserts(range(25, 45), range(8, 20)),
    _deletes(range(10), range(12)),  # cancels round 1 exactly for users 0..9
    _inserts(range(5), range(12)) + _inserts(range(5), range(40, 44)),  # re-insert
    _deletes(range(40, 45), range(8, 14)) + _inserts(range(60, 70), range(6)),
]


class TestCowFullParity:
    @pytest.mark.parametrize("build", [_sharded_service, _plain_service])
    def test_daemon_matches_full_freeze_oracle(self, build):
        probes = [(0, 1), (3, 27), (12, 25), (8, 9)]
        with ServingDaemon(build(), workers=2) as daemon:
            with ServingClient(*daemon.address) as client:
                for batch in ROUNDS:
                    report = client.ingest_batch(batch)
                    assert report["publish_mode"] == "cow"
                    oracle = _oracle(daemon.writer)
                    assert client.top_k_pairs(k=15) == oracle.top_k_pairs(k=15)
                    assert client.nearest(3, k=8) == oracle.top_k(3, k=8)
                    assert client.estimate_many(probes) == oracle.estimate_many(probes)
                # LSH candidate generation sees identical signatures too.
                assert client.top_k_pairs(k=10, candidates="lsh") == (
                    oracle.top_k_pairs(k=10, candidates="lsh")
                )
                assert client.stats()["users"] == oracle.stats()["users"]

    def test_publisher_matches_full_freeze_after_rebase(self):
        writer = _sharded_service(seed=5)
        writer.ingest(ROUNDS[0])
        publisher = CowEpochPublisher(writer, rebase_fraction=0.0)  # rebase always
        publisher.materialize()
        frozen = None
        for batch in ROUNDS[1:]:
            writer.ingest(batch)
            frozen = publisher.publish_delta(writer.freeze_delta())
        assert frozen.top_k_pairs(k=20) == _oracle(writer).top_k_pairs(k=20)
        assert publisher.stats()["rebases"] >= 1
        publisher.close()


class TestNoopPublish:
    def test_empty_batch_short_circuits(self):
        service = _sharded_service(seed=7)
        service.ingest(ROUNDS[0])
        with ServingDaemon(service, workers=2) as daemon:
            registry = get_registry()
            before = registry.snapshot()
            publishes_before = (
                before["histograms"]
                .get("server.epoch.publish", {})
                .get("count", 0)
            )
            with ServingClient(*daemon.address) as client:
                response = client.ingest_batch([])
                assert response["epoch"] == 1  # readers keep their epoch
                assert response["published"] is True
                assert response["publish_mode"] == "noop"
                stats = client.stats()["server"]["epochs"]
                assert stats["noops"] == 1
                assert stats["published"] == 1
            after = registry.snapshot()
            # Nothing was serialized, copied, or revived: the publish-latency
            # histogram did not record an observation, only the noop counter.
            publishes_after = (
                after["histograms"].get("server.epoch.publish", {}).get("count", 0)
            )
            assert publishes_after == publishes_before
            assert daemon.epochs.stats()["noops"] == 1
            assert len(daemon.publish_log) == 0

    def test_cancelling_batch_still_publishes(self):
        # Insert+delete of the same items nets to zero bit flips, but the
        # collected words are a superset of the changed ones, so the words
        # are still stamped — the publish must run (and stay correct), not
        # silently no-op.
        service = _plain_service(seed=9)
        service.ingest(ROUNDS[0])
        with ServingDaemon(service, workers=2) as daemon:
            with ServingClient(*daemon.address) as client:
                batch = _inserts([99], range(5)) + _deletes([99], range(5))
                response = client.ingest_batch(batch)
                assert response["publish_mode"] == "cow"
                assert response["epoch"] == 2


class TestChangeCursors:
    def test_collected_words_cover_changed_words_under_xor_bulk(self):
        """Cancelled and re-inserted users collect a superset of the changes."""
        service = _sharded_service(seed=13)
        service.ingest(ROUNDS[0])
        service.freeze_delta()  # moves the publish cursor past round 0
        shards = list(service._sketch.row_shards())
        before = [shard.shared_array.bits_buffer().copy() for shard in shards]
        counts_before = [dict(shard._cardinalities) for shard in shards]
        # Delete-heavy batch: exact cancellation for users 0..9, then re-insert.
        service.ingest(ROUNDS[2])
        service.ingest(ROUNDS[3])
        delta = {entry["shard"]: entry for entry in service.freeze_delta()["shards"]}
        for index, (shard, old_bits, old_counts) in enumerate(
            zip(shards, before, counts_before)
        ):
            entry = delta.get(index, {"words": [], "counter_users": []})
            new_bits = shard.shared_array.bits_buffer()
            # The buffer is byte-per-bit, so bit index // 64 is the word.
            changed = {
                int(bit) // 64 for bit in np.flatnonzero(old_bits != new_bits)
            }
            assert changed <= {int(word) for word in entry["words"]}
            changed_counters = {
                user
                for user in set(old_counts) | set(shard._cardinalities)
                if old_counts.get(user) != shard._cardinalities.get(user)
            }
            assert changed_counters <= set(entry["counter_users"])

    def test_freeze_delta_leaves_the_journal_cursor(self, tmp_path):
        """Epoch publishes must not eat the words the journal still has to ship."""
        service = _sharded_service(seed=17)
        service.ingest(ROUNDS[0])
        snapshot = tmp_path / "state.vos"
        service.save(snapshot)
        service.ingest(ROUNDS[1])
        service.ingest(ROUNDS[2])
        backlog = service.stats()["persistence"]["dirty"]
        assert backlog["dirty_words"] > 0
        delta = service.freeze_delta()  # moves the *publish* cursor only
        assert sum(entry["words"].size for entry in delta["shards"]) > 0
        assert service.stats()["persistence"]["dirty"] == backlog
        assert service.freeze_delta()["shards"] == []
        service.save_delta()
        revived = SimilarityService.load(snapshot)
        assert revived.top_k_pairs(k=20) == service.top_k_pairs(k=20)

    def test_save_delta_leaves_the_publish_cursor(self, tmp_path):
        """Journal checkpoints must not eat the changes the next publish needs."""
        service = _plain_service(seed=21)
        service.save(tmp_path / "state.vos")
        service.ingest(ROUNDS[0])
        service.save_delta()  # moves the *journal* cursor only
        assert service.stats()["persistence"]["dirty"] == {
            "dirty_words": 0,
            "dirty_counters": 0,
        }
        (entry,) = service.freeze_delta()["shards"]
        assert entry["words"].size > 0 and entry["counter_users"]
        assert service.freeze_delta()["shards"] == []


#: Users and items the interleaving test draws edges from.
_USERS = 24
_ITEMS = 16


@settings(max_examples=30, deadline=None)
@given(
    steps=st.lists(
        st.one_of(
            st.tuples(
                st.just("ingest"),
                st.lists(
                    st.tuples(
                        st.integers(0, _USERS - 1), st.integers(0, _ITEMS - 1)
                    ),
                    min_size=0,
                    max_size=40,
                ),
            ),
            st.tuples(st.sampled_from(["save_delta", "publish", "save"]), st.none()),
        ),
        min_size=1,
        max_size=14,
    ),
    rebase_fraction=st.sampled_from([0.0, 0.5]),
)
def test_interleaved_consumers_match_the_oracle(steps, rebase_fraction):
    """Journal and publish cursors interleaved in any order lose no change.

    Every published epoch equals the full-freeze oracle of the writer, and
    the snapshot plus journal recovers exactly the live writer.
    """
    with tempfile.TemporaryDirectory() as directory:
        snapshot = Path(directory) / "state.vos"
        # A small virtual sketch keeps each oracle revival cheap.
        writer = SimilarityService(
            ShardedVOS(4, shard_array_bits=1 << 12, virtual_sketch_size=128, seed=31)
        )
        live: set[tuple[int, int]] = set()
        writer.save(snapshot)
        publisher = CowEpochPublisher(
            writer, rebase_fraction=rebase_fraction, arena_dir=directory
        )
        epoch = publisher.materialize()
        try:
            for op, edges in steps:
                if op == "ingest":
                    batch = []
                    # Toggle each drawn edge: delete it if live, else insert.
                    for user, item in edges:
                        action = Action.DELETE if (user, item) in live else Action.INSERT
                        live.symmetric_difference_update({(user, item)})
                        batch.append(StreamElement(user, item, action))
                    writer.ingest(batch)
                elif op == "save_delta":
                    writer.save_delta()
                elif op == "save":
                    writer.save()
                else:
                    delta = writer.freeze_delta()
                    if delta["shards"]:
                        epoch = publisher.publish_delta(delta, previous_service=epoch)
                    oracle = _oracle(writer)
                    assert epoch.top_k_pairs(k=20) == oracle.top_k_pairs(k=20)
                    _assert_same_state(epoch, oracle)
        finally:
            publisher.close()
        writer.save_delta()
        recovered = SimilarityService.load(snapshot)
        _assert_same_state(recovered, writer)
        assert recovered.top_k_pairs(k=20) == writer.top_k_pairs(k=20)


class TestStartFailure:
    def test_failed_bind_leaves_no_arena_files(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as occupied:
            occupied.bind(("127.0.0.1", 0))
            occupied.listen(1)
            port = occupied.getsockname()[1]
            daemon = ServingDaemon(_sharded_service(), port=port, workers=1)
            with pytest.raises(OSError):
                daemon.start()
        assert list(tmp_path.glob("repro-arena-*")) == []


class TestReaderIsolation:
    def test_pinned_reader_keeps_old_overlay_across_publishes(self):
        service = _sharded_service(seed=23)
        service.ingest(ROUNDS[0])
        with ServingDaemon(service, workers=2) as daemon:
            with daemon.epochs.pin() as pinned:
                old_pairs = pinned.service.top_k_pairs(k=10)
                old_users = pinned.service.stats()["users"]
                with ServingClient(*daemon.address) as client:
                    client.ingest_batch(ROUNDS[1])
                    client.ingest_batch(ROUNDS[2])
                    assert client.epoch >= 3
                # The pinned epoch still answers from its own overlay.
                assert pinned.service.top_k_pairs(k=10) == old_pairs
                assert pinned.service.stats()["users"] == old_users
                assert not pinned.retired
            assert daemon.epochs.live_epochs == 1  # released epoch drained


class TestLayeredCounts:
    def test_mapping_semantics(self):
        base = {"a": 3, "b": 1}
        layered = LayeredCounts(base, {"b": 5, "c": 2})
        assert layered["a"] == 3 and layered["b"] == 5 and layered["c"] == 2
        assert layered.get("missing") is None
        assert len(layered) == 3
        assert sorted(layered) == ["a", "b", "c"]
        assert dict(layered) == {"a": 3, "b": 5, "c": 2}
