"""Seeded, columnar workload generator for the benchmark.

Everything is NumPy-native and derived from one seed, so the same seed gives
the same stream, the same planted families and the same query plans.  The
stream is cut into batches; each batch mixes

* insertions of edges that are not live when the batch starts (and are not
  deleted inside it), so no edge is ever inserted twice while live;
* deletions of edges that were live when the batch started, i.e. edges
  inserted by *earlier* batches, so every deletion is a real unsubscribe and
  never a same-batch cancellation or a delete of an absent edge.

Users and items follow truncated power laws.  A few *families* of users share
most of a base item set; their edges are inserted early and never deleted, so
their exact final sets are known without any exhaustive search.  The live
edge set is tracked exactly, which gives every user's exact final set size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StreamSpec:
    """Sizes of one generated stream."""

    users: int = 6000
    items: int = 120_000
    batches: int = 32
    batch_elements: int = 8192
    delete_share: float = 0.25
    user_exponent: float = 0.8
    item_exponent: float = 0.6
    families: int = 64
    family_size: int = 6
    family_base: int = 80
    family_keep: float = 0.9
    family_extra: int = 8
    #: Write batches generated after the ingest stream (the serve stage's load).
    serve_batches: int = 120
    serve_batch_elements: int = 64


@dataclass
class Batch:
    """One stream batch as columns (``signs``: +1 insert, -1 delete)."""

    users: np.ndarray
    items: np.ndarray
    signs: np.ndarray

    def __len__(self) -> int:
        return int(self.users.shape[0])


@dataclass
class GeneratedStream:
    """A generated stream plus the exact facts the checks need."""

    spec: StreamSpec
    ingest_batches: list[Batch]
    serve_batches: list[Batch]
    #: ``families[f]`` lists the member user ids of family ``f``.
    families: list[list[int]]
    #: Exact final item set of every family member (never deleted).
    family_sets: dict[int, np.ndarray]
    #: Exact size of every user's set after the ingest batches.
    live_sizes: dict[int, int]


def _power_law_sampler(rng: np.random.Generator, count: int, exponent: float):
    """A sampler of ids in ``[0, count)`` with weight ``rank ** -exponent``.

    Ranks are mapped through a random permutation so heavy ids are spread
    over the id space (and therefore over shards).
    """
    weights = np.arange(1, count + 1, dtype=np.float64) ** -exponent
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    ids = rng.permutation(count).astype(np.int64)

    def sample(size: int) -> np.ndarray:
        ranks = np.searchsorted(cdf, rng.random(size), side="right")
        return ids[np.minimum(ranks, count - 1)]

    return sample


class _LiveEdges:
    """The live edge set as a sorted ``int64`` key array (``user * items + item``)."""

    def __init__(self, items: int) -> None:
        self.items = items
        self.keys = np.empty(0, dtype=np.int64)

    def contains(self, keys: np.ndarray) -> np.ndarray:
        if self.keys.shape[0] == 0:
            return np.zeros(keys.shape[0], dtype=bool)
        where = np.minimum(np.searchsorted(self.keys, keys), self.keys.shape[0] - 1)
        return self.keys[where] == keys

    def apply(self, inserted: np.ndarray, deleted_at: np.ndarray) -> None:
        """Drop the keys at positions ``deleted_at``, then merge ``inserted``."""
        kept = np.delete(self.keys, deleted_at)
        inserted = np.sort(inserted)
        self.keys = np.insert(kept, np.searchsorted(kept, inserted), inserted)


def _make_batch(
    rng: np.random.Generator,
    live: _LiveEdges,
    size: int,
    delete_share: float,
    sample_users,
    sample_items,
    forced: np.ndarray | None = None,
) -> Batch:
    """One batch of ``size`` elements (``forced`` insert keys ride along)."""
    forced = np.empty(0, dtype=np.int64) if forced is None else forced
    deletes = min(int(round(size * delete_share)), live.keys.shape[0])
    deleted_at = rng.choice(live.keys.shape[0], deletes, replace=False)
    deleted = live.keys[deleted_at]
    wanted = size - deletes - forced.shape[0]
    inserted = np.empty(0, dtype=np.int64)
    while inserted.shape[0] < wanted:
        draw = 2 * (wanted - inserted.shape[0]) + 16
        keys = sample_users(draw) * live.items + sample_items(draw)
        keys = keys[~live.contains(keys)]
        keys = np.concatenate([inserted, keys])
        _, first = np.unique(keys, return_index=True)
        inserted = keys[np.sort(first)]
    inserted = inserted[:wanted]
    regular_inserts = inserted
    inserted = np.concatenate([inserted, forced])
    keys = np.concatenate([inserted, deleted])
    signs = np.concatenate(
        [np.ones(inserted.shape[0], np.int8), -np.ones(deleted.shape[0], np.int8)]
    )
    order = rng.permutation(keys.shape[0])
    keys, signs = keys[order], signs[order]
    # Family edges never enter the deletable live set.
    live.apply(regular_inserts, deleted_at)
    return Batch(keys // live.items, keys % live.items, signs)


def generate(spec: StreamSpec, seed: int) -> GeneratedStream:
    """Generate the ingest and serve batches plus the planted families."""
    rng = np.random.default_rng(seed)
    sample_users = _power_law_sampler(rng, spec.users, spec.user_exponent)
    sample_items = _power_law_sampler(rng, spec.items, spec.item_exponent)

    # Families live in their own id range above the regular users.
    families: list[list[int]] = []
    family_sets: dict[int, np.ndarray] = {}
    family_keys: list[np.ndarray] = []
    next_user = spec.users
    for _ in range(spec.families):
        base = rng.choice(spec.items, spec.family_base, replace=False)
        members = []
        for _ in range(spec.family_size):
            kept = base[rng.random(base.shape[0]) < spec.family_keep]
            extra = rng.choice(spec.items, spec.family_extra, replace=False)
            items = np.unique(np.concatenate([kept, extra]))
            family_sets[next_user] = items
            family_keys.append(next_user * spec.items + items)
            members.append(next_user)
            next_user += 1
        families.append(members)
    # Spread the family edges over the first half of the ingest batches.
    pending = rng.permutation(np.concatenate(family_keys))
    carriers = max(1, spec.batches // 2)
    forced_parts = np.array_split(pending, carriers)

    live = _LiveEdges(spec.items)
    ingest_batches = []
    for index in range(spec.batches):
        forced = forced_parts[index] if index < carriers else None
        ingest_batches.append(
            _make_batch(
                rng, live, spec.batch_elements, spec.delete_share,
                sample_users, sample_items, forced,
            )
        )
    live_users, counts = np.unique(live.keys // spec.items, return_counts=True)
    live_sizes = dict(zip(live_users.tolist(), counts.tolist()))
    for user, items in family_sets.items():
        live_sizes[user] = int(items.shape[0])
    serve_batches = [
        _make_batch(
            rng, live, spec.serve_batch_elements, spec.delete_share,
            sample_users, sample_items,
        )
        for _ in range(spec.serve_batches)
    ]
    return GeneratedStream(
        spec=spec,
        ingest_batches=ingest_batches,
        serve_batches=serve_batches,
        families=families,
        family_sets=family_sets,
        live_sizes=live_sizes,
    )


def exact_jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """Jaccard coefficient of two sorted unique item arrays."""
    common = np.intersect1d(a, b, assume_unique=True).shape[0]
    union = a.shape[0] + b.shape[0] - common
    return common / union if union else 0.0
