"""Crash-injection tests for column-index persistence.

Mirrors the disk-cache crash-safety suite: every scenario must leave the
index either fully recovered or smaller-but-correct — a reopened index
never serves wrong neighbours.  Correctness after recovery is always
asserted against a brute-force oracle rebuilt over the *surviving* keys.
"""

import glob
import json
import os
import pickle
import time

import numpy as np
import pytest

from repro.downstream.join_discovery import JoinDiscoveryIndex
from repro.errors import ColumnIndexError
from repro.index import ColumnIndex
from repro.index.partitions import PLAN_VERSION
from repro.index.store import LOCK_NAME, MANIFEST_NAME, ShardStore

DIM = 6
N = 40


@pytest.fixture()
def corpus():
    rng = np.random.default_rng(99)
    keys = [f"col{i}" for i in range(N)]
    rows = rng.normal(size=(N, DIM))
    return keys, rows


def build(tmp_path, keys, rows, shard_rows=10):
    return ColumnIndex.build(
        str(tmp_path / "idx"), zip(keys, rows), dim=DIM, shard_rows=shard_rows
    )


def shard_matrices(directory):
    return sorted(
        p
        for p in glob.glob(os.path.join(directory, "shard-*.npy"))
        if not p.endswith(".norms.npy")
    )


def assert_matches_oracle(index, keys, rows, query, k):
    """Recovered index == oracle over exactly the keys it still serves."""
    alive = set(index.keys())
    oracle = JoinDiscoveryIndex(DIM)
    for key, row in zip(keys, rows):
        if key in alive:
            oracle.add(key, ColumnIndex.quantize(row))
    assert index.query(query, k, prune="off") == oracle.lookup(query, k)


def test_torn_shard_is_dropped_never_served(tmp_path, corpus):
    keys, rows = corpus
    index = build(tmp_path, keys, rows)
    query = rows[0] + 0.1
    victim = shard_matrices(index.directory)[1]
    with open(victim, "rb") as handle:
        payload = handle.read()
    with open(victim, "wb") as handle:
        handle.write(payload[: len(payload) // 2])

    reopened = ColumnIndex.open(index.directory)
    assert reopened.dropped_shards == 1
    assert len(reopened) == N - 10
    # The torn shard held keys col10..col19: none may ever be returned.
    torn = {f"col{i}" for i in range(10, 20)}
    assert not torn & set(reopened.keys())
    assert_matches_oracle(reopened, keys, rows, query, k=8)
    assert not os.path.exists(victim)


def test_bitflip_same_size_is_caught_by_digest(tmp_path, corpus):
    keys, rows = corpus
    index = build(tmp_path, keys, rows)
    victim = shard_matrices(index.directory)[2]
    with open(victim, "r+b") as handle:
        handle.seek(256)
        byte = handle.read(1)
        handle.seek(256)
        handle.write(bytes([byte[0] ^ 0xFF]))

    reopened = ColumnIndex.open(index.directory)
    assert reopened.dropped_shards == 1
    assert len(reopened) == N - 10
    assert_matches_oracle(reopened, keys, rows, rows[3], k=5)


def test_missing_manifest_rebuilds_from_directory_scan(tmp_path, corpus):
    keys, rows = corpus
    index = build(tmp_path, keys, rows)
    want = index.query(rows[7], 9, prune="off")
    os.unlink(os.path.join(index.directory, MANIFEST_NAME))

    reopened = ColumnIndex.open(index.directory)
    assert len(reopened) == N
    assert reopened.keys() == keys  # shard stems sort by sequence number
    assert reopened.query(rows[7], 9, prune="off") == want


def test_garbage_manifest_rebuilds(tmp_path, corpus):
    keys, rows = corpus
    index = build(tmp_path, keys, rows)
    want = index.query(rows[2], 6, prune="off")
    with open(os.path.join(index.directory, MANIFEST_NAME), "w") as handle:
        handle.write("{not json at all")

    reopened = ColumnIndex.open(index.directory)
    assert len(reopened) == N
    assert reopened.query(rows[2], 6, prune="off") == want


def test_manifest_rebuild_skips_torn_shard(tmp_path, corpus):
    keys, rows = corpus
    index = build(tmp_path, keys, rows)
    victim = shard_matrices(index.directory)[0]
    with open(victim, "wb") as handle:
        handle.write(b"\x93NUMPY garbage")
    os.unlink(os.path.join(index.directory, MANIFEST_NAME))

    reopened = ColumnIndex.open(index.directory)
    assert len(reopened) == N - 10
    assert not {f"col{i}" for i in range(10)} & set(reopened.keys())
    assert_matches_oracle(reopened, keys, rows, rows[25], k=7)


def test_missing_keys_sidecar_drops_shard(tmp_path, corpus):
    keys, rows = corpus
    index = build(tmp_path, keys, rows)
    victim = shard_matrices(index.directory)[3].replace(".npy", ".keys.json")
    os.unlink(victim)

    reopened = ColumnIndex.open(index.directory)
    assert reopened.dropped_shards == 1
    assert len(reopened) == N - 10
    assert_matches_oracle(reopened, keys, rows, rows[0], k=4)


def test_stale_lock_is_reclaimed(tmp_path, corpus):
    keys, rows = corpus
    index = build(tmp_path, keys, rows)
    lock = os.path.join(index.directory, LOCK_NAME)
    with open(lock, "w") as handle:
        handle.write("424242")
    past = time.time() - 3600
    os.utime(lock, (past, past))

    index.append("late", np.ones(DIM))  # must not deadlock
    assert len(index) == N + 1
    assert not os.path.exists(lock)


def test_wedged_fresh_lock_is_reclaimed_after_timeout(tmp_path):
    store = ShardStore(
        str(tmp_path / "idx"), dim=DIM, create=True, lock_timeout=0.1, stale_age=60.0
    )
    lock = os.path.join(store.directory, LOCK_NAME)
    with open(lock, "w") as handle:
        handle.write("424242")  # a live holder that never returns
    rows = np.ones((2, DIM), dtype=np.float32)
    started = time.time()
    store.append(["a", "b"], rows, np.linalg.norm(rows.astype(np.float64), axis=1))
    assert time.time() - started >= 0.1
    assert store.total_rows == 2
    assert not os.path.exists(lock)


def test_stale_temp_swept_fresh_temp_kept(tmp_path, corpus):
    keys, rows = corpus
    index = build(tmp_path, keys, rows)
    stale = os.path.join(index.directory, ".tmp-deadbeef")
    fresh = os.path.join(index.directory, ".tmp-cafebabe")
    for path in (stale, fresh):
        with open(path, "wb") as handle:
            handle.write(b"partial write")
    past = time.time() - 3600
    os.utime(stale, (past, past))

    ColumnIndex.open(index.directory)
    assert not os.path.exists(stale)
    assert os.path.exists(fresh)  # a live appender may still own it


def test_orphan_shard_files_swept_after_crash(tmp_path, corpus):
    keys, rows = corpus
    index = build(tmp_path, keys, rows)
    # A crashed appender renamed its files but died before the manifest
    # published them: orphaned shard files the manifest never references.
    orphan = os.path.join(index.directory, "shard-000099-deadbeef.npy")
    np.save(orphan, np.ones((3, DIM), dtype=np.float32))
    past = time.time() - 3600
    os.utime(orphan, (past, past))

    reopened = ColumnIndex.open(index.directory)
    assert not os.path.exists(orphan)
    assert len(reopened) == N


def test_corrupt_partition_plan_rebuilds_transparently(tmp_path, corpus):
    keys, rows = corpus
    index = build(tmp_path, keys, rows)
    exact = index.query(rows[5], 5, prune="off")
    index.query(rows[5], 5, prune="probe")  # persists the plan
    plans = glob.glob(os.path.join(index.directory, "partitions-*.npz"))
    assert plans
    with open(plans[0], "wb") as handle:
        handle.write(b"not an npz")

    reopened = ColumnIndex.open(index.directory)
    # A candidate floor of every row makes probe a full scan over the
    # rebuilt plan, so it must return exactly off's keys.
    full = reopened.query(rows[5], 5, prune="probe", min_candidates=len(reopened))
    assert [key for key, _ in full] == [key for key, _ in exact]


def test_older_plan_version_is_refused_and_rebuilt(tmp_path, corpus):
    keys, rows = corpus
    index = build(tmp_path, keys, rows)
    want = index.query(rows[2], 4, prune="probe")  # persists the plan
    (path,) = glob.glob(os.path.join(index.directory, "partitions-*.npz"))
    with np.load(path) as archive:
        fields = dict(archive)
    fields["plan_version"] = np.int64(PLAN_VERSION - 1)
    np.savez(path, **fields)

    reopened = ColumnIndex.open(index.directory)
    assert reopened.describe()["partitions"] is None  # refused, not loaded
    assert reopened.query(rows[2], 4, prune="probe") == want
    with np.load(path) as archive:
        assert int(archive["plan_version"]) == PLAN_VERSION


def test_stale_generation_partition_plan_is_swept(tmp_path, corpus):
    keys, rows = corpus
    index = build(tmp_path, keys, rows)
    index.query(rows[1], 3, prune="probe")  # persists plan for current gen
    old_plans = glob.glob(os.path.join(index.directory, "partitions-*.npz"))
    index.append("extra", np.ones(DIM))  # bumps generation

    reopened = ColumnIndex.open(index.directory)
    for plan in old_plans:
        assert not os.path.exists(plan)
    # Pruned queries over the new generation still work (fresh plan); a
    # full-scan candidate floor makes the answer off's.
    got = reopened.query(rows[1], 3, prune="probe", min_candidates=len(reopened))
    assert [key for key, _ in got] == [
        key for key, _ in reopened.query(rows[1], 3, prune="off")
    ]


def test_unpickled_index_replays_verification(tmp_path, corpus):
    keys, rows = corpus
    index = build(tmp_path, keys, rows)
    blob = pickle.dumps(index)
    victim = shard_matrices(index.directory)[1]
    with open(victim, "wb") as handle:
        handle.write(b"torn after pickling")

    clone = pickle.loads(blob)
    assert clone.dropped_shards == 1
    assert len(clone) == N - 10
    assert_matches_oracle(clone, keys, rows, rows[30], k=6)


def test_keys_tamper_with_wrong_count_is_dropped(tmp_path, corpus):
    keys, rows = corpus
    index = build(tmp_path, keys, rows)
    victim = shard_matrices(index.directory)[0].replace(".npy", ".keys.json")
    with open(victim, "w") as handle:
        json.dump({"keys": ["only-one"]}, handle)

    reopened = ColumnIndex.open(index.directory)
    assert reopened.dropped_shards == 1
    assert "only-one" not in set(reopened.keys())
    assert_matches_oracle(reopened, keys, rows, rows[12], k=5)


def test_empty_directory_requires_create(tmp_path):
    with pytest.raises(ColumnIndexError, match="no column index"):
        ColumnIndex.open(str(tmp_path / "void"))
    with pytest.raises(ColumnIndexError, match="positive dim"):
        ColumnIndex(str(tmp_path / "void"), create=True)
