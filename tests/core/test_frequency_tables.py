"""Shared hash tables and pruned heavy hitters of :mod:`repro.core.frequency`.

A bounded-domain sketch reads ``(bucket, sign)`` from precomputed tables
once its hash identity is tabulated, and hashes on the fly otherwise.  Both
paths must be indistinguishable: every counter, point estimate and
heavy-hitter list is compared *bitwise* against a brute-force reference
built row by row from :meth:`FrequencySketch.buckets_and_signs`, and
against the other path.  The cache itself must stay within its byte cap
and be shared, so restoring a session over a warm cache builds nothing.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

import repro.core.frequency as frequency
from repro.core.frequency import (
    FrequencySketch,
    HierarchicalFrequencySketch,
    clear_hash_table_cache,
    hash_table_cache_info,
)
from repro.durability.store import DurabilityConfig, MemoryCheckpointStore
from repro.serving import SketchServer
from repro.workloads.streams import zipf_stream

DOMAIN = 1 << 12


@pytest.fixture(autouse=True)
def _isolated_cache():
    clear_hash_table_cache()
    yield
    clear_hash_table_cache()


@contextlib.contextmanager
def hashing_only():
    """Every sketch hashes on the fly: no identity fits a zero-byte cap."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frequency, "HASH_TABLE_CACHE_BYTES", 0)
        yield


def _tabulate(sketch: FrequencySketch) -> None:
    """Build the sketch's shared tables now (a full-domain lookup)."""
    assert frequency._HASH_TABLES.lookup(sketch._table_key(), sketch.domain) is not None


class Reference:
    """Brute-force twin: the per-row loop the tables replace."""

    def __init__(self, sketch: FrequencySketch) -> None:
        self.sketch = sketch
        self.table = np.zeros((sketch.depth, sketch.width), dtype=sketch.dtype)

    def update(self, ids, weights) -> None:
        ids = np.asarray(ids, dtype=np.int64)
        w = np.asarray(weights, dtype=self.table.dtype)
        for r in range(self.sketch.depth):
            buckets, signs = self.sketch.buckets_and_signs(ids, r)
            np.add.at(self.table[r], buckets, np.where(signs, w, -w))

    def point_query(self, ids) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        est = np.empty((self.sketch.depth, ids.size), dtype=self.table.dtype)
        for r in range(self.sketch.depth):
            buckets, signs = self.sketch.buckets_and_signs(ids, r)
            est[r] = np.where(signs, 1.0, -1.0) * self.table[r, buckets]
        return np.median(est, axis=0).astype(self.table.dtype)

    def heavy_hitters(self, phi: float):
        energies = np.sum(self.table.astype(np.float64) ** 2, axis=1)
        threshold = phi * float(np.sqrt(np.median(energies)))
        est = self.point_query(np.arange(self.sketch.domain))
        hot = np.flatnonzero(np.abs(est) >= threshold)
        order = hot[np.argsort(-np.abs(est[hot]), kind="stable")]
        return [(int(i), float(est[i])) for i in order]


def _turnstile_batches(seed: int, batches: int = 6, size: int = 1500):
    """Zipf-skewed ids with float weights, every third batch deleting."""
    rng = np.random.default_rng(seed)
    for b in range(batches):
        ids = rng.zipf(1.3, size=size) % DOMAIN
        weights = rng.normal(1.0, 0.5, size=size)
        if b % 3 == 2:
            weights = -np.abs(weights)
        yield ids.astype(np.int64), weights


# ---------------------------------------------------------------------------
# both lookup paths equal the brute-force reference, bit for bit
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("depth", [5, 6])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_cached_and_hashing_paths_match_reference_bitwise(depth, dtype):
    cached = FrequencySketch(DOMAIN, 128, depth, seed=11, dtype=dtype)
    _tabulate(cached)
    with hashing_only():
        hashing = FrequencySketch(DOMAIN, 128, depth, seed=11, dtype=dtype)
    reference = Reference(cached)
    probe = np.arange(0, DOMAIN, 7)

    for ids, weights in _turnstile_batches(seed=depth):
        cached.update(ids, weights)
        with hashing_only():
            hashing.update(ids, weights)
        reference.update(ids, weights)

        assert cached.table().tobytes() == reference.table.tobytes()
        assert hashing.table().tobytes() == reference.table.tobytes()
        expected = reference.point_query(probe).tobytes()
        assert cached.point_query(probe).tobytes() == expected
        with hashing_only():
            assert hashing.point_query(probe).tobytes() == expected

    for phi in (0.02, 0.05, 0.2):
        expected = reference.heavy_hitters(phi)
        assert expected, "the stream should have heavy hitters"
        assert cached.heavy_hitters(phi) == expected
        with hashing_only():
            assert hashing.heavy_hitters(phi) == expected
    assert hash_table_cache_info()["entries"] == 1


def test_signed_zero_estimates_are_preserved():
    # Most buckets of a sparse table are zero, so estimates are +0.0 or
    # -0.0 depending on sign; the byte comparison sees the difference.
    cached = FrequencySketch(DOMAIN, 512, 4, seed=5)
    _tabulate(cached)
    reference = Reference(cached)
    ids, weights = np.array([3, 3, 900]), np.array([2.0, -2.0, 1.5])
    cached.update(ids, weights)
    reference.update(ids, weights)
    probe = np.arange(DOMAIN)
    got, expected = cached.point_query(probe), reference.point_query(probe)
    assert np.signbit(expected).any()
    assert got.tobytes() == expected.tobytes()


def test_merge_between_cached_and_hashing_sketches_is_exact():
    left = FrequencySketch(DOMAIN, 128, 5, seed=2)
    _tabulate(left)
    with hashing_only():
        right = FrequencySketch(DOMAIN, 128, 5, seed=2)
    left_ref, right_ref = Reference(left), Reference(right)
    for b, (ids, weights) in enumerate(_turnstile_batches(seed=9)):
        if b % 2:
            with hashing_only():
                right.update(ids, weights)
            right_ref.update(ids, weights)
        else:
            left.update(ids, weights)
            left_ref.update(ids, weights)
    left.merge_from(right)
    left_ref.table += right_ref.table
    assert left.table().tobytes() == left_ref.table.tobytes()
    probe = np.arange(DOMAIN)
    assert left.point_query(probe).tobytes() == left_ref.point_query(probe).tobytes()
    assert left.heavy_hitters(0.05) == left_ref.heavy_hitters(0.05)


def test_hierarchy_caches_upper_levels_and_hashes_the_leaf():
    domain = 1 << 40
    hier = HierarchicalFrequencySketch(domain, 256, 3, branch=16, seed=8)
    with hashing_only():
        twin = HierarchicalFrequencySketch(domain, 256, 3, branch=16, seed=8)
    rng = np.random.default_rng(0)
    hot = rng.integers(0, domain, size=4, dtype=np.int64)
    for _ in range(3):
        ids = np.concatenate([np.repeat(hot, 400), rng.integers(0, domain, 2000)])
        weights = rng.normal(1.0, 0.25, size=ids.size)
        hier.update(ids, weights)
        with hashing_only():
            twin.update(ids, weights)
    for level in hier.levels:
        if level.domain <= 1 << 12:
            _tabulate(level)
    tabulated = hash_table_cache_info()["entries"]
    assert tabulated >= 2
    hier.update(hot, np.ones(hot.size))
    with hashing_only():
        twin.update(hot, np.ones(hot.size))
    # The 2^40 leaf is far over the cap: no lookup ever tabulates it.
    assert hash_table_cache_info()["entries"] == tabulated
    assert frequency._HASH_TABLES.lookup(hier.levels[0]._table_key(), 1 << 62) is None

    for mine, theirs in zip(hier.levels, twin.levels):
        assert mine.table().tobytes() == theirs.table().tobytes()
    top = hier.top_k(4, 0.1)
    with hashing_only():
        assert twin.top_k(4, 0.1) == top
    assert {i for i, _ in top} == set(hot.tolist())


# ---------------------------------------------------------------------------
# the shared cache: rent-or-buy, byte cap, LRU order, sharing
# ---------------------------------------------------------------------------
def test_identity_is_tabulated_once_it_has_hashed_its_domain():
    sketch = FrequencySketch(DOMAIN, 64, 5, seed=1)
    sketch.update(np.arange(DOMAIN // 2))
    assert hash_table_cache_info()["entries"] == 0
    sketch.point_query(np.arange(DOMAIN // 2))
    info = hash_table_cache_info()
    assert (info["entries"], info["bytes"]) == (1, 5 * DOMAIN * (4 + 1))


def test_flat_heavy_hitters_tabulate_on_first_use():
    sketch = FrequencySketch(DOMAIN, 64, 5, seed=1)
    sketch.update(np.array([1, 1, 2]))
    before = hash_table_cache_info()["builds"]
    sketch.heavy_hitters(0.5)
    assert hash_table_cache_info()["builds"] == before + 1


def test_cache_stays_within_its_byte_cap(monkeypatch):
    per_identity = 3 * DOMAIN * (4 + 1)
    monkeypatch.setattr(frequency, "HASH_TABLE_CACHE_BYTES", int(2.5 * per_identity))
    sketches = [FrequencySketch(DOMAIN, 64, 3, seed=s) for s in range(5)]
    for s, sketch in enumerate(sketches):
        sketch.update(np.array([s, s, 7]))
        sketch.heavy_hitters(0.5)
        info = hash_table_cache_info()
        assert info["bytes"] <= info["max_bytes"]
        assert info["entries"] == min(s + 1, 2)
    assert hash_table_cache_info()["builds"] == 5
    # Seeds 3 and 4 are cached.  Touching seed 3 leaves seed 4 least
    # recently used, so re-tabulating seed 0 evicts seed 4 and keeps seed 3.
    # An evicted identity hashes until it has re-earned its domain of credit.
    sketches[3].heavy_hitters(0.5)
    sketches[0].update(np.array([0]))
    assert hash_table_cache_info()["builds"] == 5
    sketches[0].heavy_hitters(0.5)
    assert hash_table_cache_info()["builds"] == 6
    sketches[3].point_query(np.array([3]))
    assert hash_table_cache_info()["builds"] == 6


def test_sketches_of_one_identity_share_one_entry():
    a = FrequencySketch(DOMAIN, 64, 5, seed=3)
    b = FrequencySketch(DOMAIN, 64, 5, seed=3, dtype=np.float32)
    a.update(np.array([1, 2, 3]))
    b.update(np.array([1, 2, 3]))
    a.heavy_hitters(0.5)
    b.heavy_hitters(0.5)
    info = hash_table_cache_info()
    assert (info["entries"], info["builds"]) == (1, 1)


def test_restoring_a_session_builds_no_tables_on_a_warm_cache():
    dur = DurabilityConfig(store=MemoryCheckpointStore(), checkpoint_interval_batches=3)
    before = SketchServer(shards=1, durability=dur)
    sid = before.open_frequency_stream(DOMAIN, phi=0.05, delta=1e-2)
    for batch in zipf_stream(DOMAIN, total_items=10_000, batch_size=2000, alpha=1.2, seed=1):
        before.append_items(sid, batch.ids)
    hh = before.query_heavy_hitters(sid).value
    builds = hash_table_cache_info()["builds"]
    assert builds >= 1

    after = SketchServer(shards=1, durability=dur)
    report = after.restore()
    assert sid in report.restored and not report.failed
    assert after.query_heavy_hitters(sid).value == hh
    assert hash_table_cache_info()["builds"] == builds


# ---------------------------------------------------------------------------
# empty sketches and non-integer ids
# ---------------------------------------------------------------------------
def test_empty_flat_sketch_has_no_heavy_hitters():
    sketch = FrequencySketch(DOMAIN, 64, 5, seed=1)
    assert sketch.heavy_hitters(0.1) == []
    sketch.update(np.array([4, 4, 9]))
    assert sketch.heavy_hitters(0.1)
    sketch.scale(0.0)
    assert sketch.heavy_hitters(0.1) == []


def test_empty_hierarchy_top_k_does_not_descend():
    hier = HierarchicalFrequencySketch(1 << 40, 64, 3, branch=16, seed=1)
    mark = hier.executor.mark()
    assert hier.top_k(5, 0.1) == []
    launched = [r.name for r in hier.executor.breakdown_since(mark).records]
    assert launched == ["frequency_l2"]


@pytest.mark.parametrize("ids", [[3.7, 3.2], np.array([1.0, 2.0]), np.array([True, False])])
def test_non_integer_ids_are_refused(ids):
    sketch = FrequencySketch(DOMAIN, 64, 5, seed=1)
    with pytest.raises(TypeError):
        sketch.update(ids)
    with pytest.raises(TypeError):
        sketch.point_query(ids)
    assert sketch.items_seen == 0


def test_empty_batches_of_any_dtype_are_no_ops():
    sketch = FrequencySketch(DOMAIN, 64, 5, seed=1)
    sketch.update([])
    sketch.update(np.zeros(0))
    assert sketch.items_seen == 0
    assert sketch.point_query([]).shape == (0,)


def test_served_float_ids_never_reach_the_wal():
    store = MemoryCheckpointStore()
    server = SketchServer(shards=1, durability=DurabilityConfig(store=store))
    sid = server.open_frequency_stream(DOMAIN, phi=0.05, delta=1e-2)
    key = f"freq-session-{sid}"
    wal = store.read_wal(key)
    with pytest.raises(TypeError):
        server.append_items(sid, [3.7, 3.2])
    with pytest.raises(ValueError):
        server.append_items(sid, [1, DOMAIN])
    with pytest.raises(ValueError):
        server.append_items(sid, [1, 2], weights=[1.0])
    assert store.read_wal(key) == wal
    assert server.frequencies.session(sid).engine.items_seen == 0
