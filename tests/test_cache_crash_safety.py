"""Crash-safety tests for the disk cache tier.

Simulates torn writes, corrupted payloads, broken indexes, leftover temp
files, and abandoned locks, and asserts the cache always recovers by
dropping the bad entry and recomputing — never by returning wrong
embeddings or raising out of a property runner.
"""

import json
import os
import time

import numpy as np
import pytest

from repro import Observatory, RuntimeConfig
from repro.core.framework import DatasetSizes
from repro.runtime.disk import INDEX_NAME, LOCK_NAME, DiskTier


def entry_paths(directory):
    return [
        os.path.join(directory, name)
        for name in sorted(os.listdir(directory))
        if name.endswith(".npy") and not name.startswith(".tmp-")
    ]


@pytest.fixture()
def tier(tmp_path):
    return DiskTier(str(tmp_path))


class TestCorruptPayloads:
    def test_garbage_payload_dropped_not_served(self, tmp_path, tier):
        tier.put("k", np.arange(4.0))
        with open(entry_paths(str(tmp_path))[0], "wb") as handle:
            handle.write(b"this is not a npy file")
        assert tier.get("k") is None
        assert tier.drops == 1
        assert entry_paths(str(tmp_path)) == []  # file and index entry gone
        assert tier.put("k", np.arange(4.0))  # recompute path works
        assert np.array_equal(tier.get("k"), np.arange(4.0))

    def test_truncated_payload_dropped(self, tmp_path, tier):
        tier.put("k", np.arange(64.0))
        path = entry_paths(str(tmp_path))[0]
        with open(path, "r+b") as handle:
            handle.truncate(20)  # torn mid-write
        assert tier.get("k") is None
        assert tier.drops == 1

    def test_size_mismatch_with_index_dropped(self, tmp_path, tier):
        # A payload swapped for a *loadable* file of the wrong size must
        # not be served: the index records the bytes written.
        tier.put("k", np.arange(64.0))
        np.save(entry_paths(str(tmp_path))[0], np.arange(4.0))
        assert tier.get("k") is None
        assert tier.drops == 1

    def test_missing_payload_is_a_miss(self, tmp_path, tier):
        tier.put("k", np.ones(3))
        os.unlink(entry_paths(str(tmp_path))[0])
        assert tier.get("k") is None


class TestBrokenIndex:
    def test_garbage_index_rebuilt_from_directory(self, tmp_path, tier):
        tier.put("k", np.full(5, 7.0))
        with open(tmp_path / INDEX_NAME, "w", encoding="utf-8") as handle:
            handle.write("{ not json")
        fresh = DiskTier(str(tmp_path))
        assert np.array_equal(fresh.get("k"), np.full(5, 7.0))

    def test_torn_index_write_rebuilt(self, tmp_path, tier):
        tier.put("k", np.ones(6))
        payload = (tmp_path / INDEX_NAME).read_text(encoding="utf-8")
        (tmp_path / INDEX_NAME).write_text(payload[: len(payload) // 2])
        assert np.array_equal(DiskTier(str(tmp_path)).get("k"), np.ones(6))

    def test_torn_append_repaired_by_next_writer(self, tmp_path, tier):
        tier.put("k", np.ones(6))
        log = tmp_path / INDEX_NAME
        log.write_bytes(log.read_bytes()[:-4])  # crash inside the last record
        assert DiskTier(str(tmp_path)).put("j", np.full(3, 2.0))
        fresh = DiskTier(str(tmp_path))
        # The writer rewrote the log: a reader replays it, no scan needed.
        fresh._rebuild_index = lambda: pytest.fail("torn log left in place")
        assert np.array_equal(fresh.get("k"), np.ones(6))
        assert np.array_equal(fresh.get("j"), np.full(3, 2.0))

    def test_version_mismatch_rebuilt(self, tmp_path, tier):
        tier.put("k", np.ones(2))
        with open(tmp_path / INDEX_NAME, "w", encoding="utf-8") as handle:
            json.dump({"index_version": 999, "entries": {}}, handle)
        assert DiskTier(str(tmp_path)).get("k") is not None

    def test_index_listing_missing_file_recovers(self, tmp_path, tier):
        tier.put("gone", np.ones(4))
        tier.put("kept", np.full(4, 2.0))
        for path in entry_paths(str(tmp_path)):
            os.unlink(path)  # crash lost the payloads, index survived
        fresh = DiskTier(str(tmp_path))
        assert fresh.get("gone") is None
        assert fresh.get("kept") is None  # miss, not wrong data / raise
        assert fresh.put("kept", np.full(4, 2.0))
        assert np.array_equal(fresh.get("kept"), np.full(4, 2.0))


class TestTempFilesAndLocks:
    def test_fresh_temp_file_left_alone(self, tmp_path, tier):
        # A concurrent writer's in-flight temp must not be swept.
        tier.put("seed", np.ones(2))
        temp = tmp_path / ".tmp-inflight.npy"
        temp.write_bytes(b"partial")
        os.unlink(tmp_path / INDEX_NAME)  # force a rebuild scan
        tier.put("k", np.ones(2))
        assert temp.exists()

    def test_stale_temp_file_swept_on_rebuild(self, tmp_path):
        tier = DiskTier(str(tmp_path), stale_lock_age=0.05)
        tier.put("seed", np.ones(2))
        os.unlink(tmp_path / INDEX_NAME)  # lost index forces a rebuild scan
        temp = tmp_path / ".tmp-crashed.npy"
        temp.write_bytes(b"partial")
        past = time.time() - 60
        os.utime(temp, (past, past))
        tier.put("k", np.ones(2))  # rebuild sweeps the long-dead temp
        assert not temp.exists()
        assert np.array_equal(tier.get("k"), np.ones(2))

    def test_stale_lock_reclaimed(self, tmp_path):
        tier = DiskTier(str(tmp_path), stale_lock_age=0.05, lock_timeout=5.0)
        lock = tmp_path / LOCK_NAME
        lock.write_text("99999")  # crashed holder
        past = time.time() - 60
        os.utime(lock, (past, past))
        assert tier.put("k", np.ones(2))
        assert not lock.exists()

    def test_wedged_fresh_lock_reclaimed_after_timeout(self, tmp_path):
        tier = DiskTier(str(tmp_path), stale_lock_age=60.0, lock_timeout=0.1)
        (tmp_path / LOCK_NAME).write_text("99999")  # holder never returns
        started = time.time()
        assert tier.put("k", np.ones(2))
        assert time.time() - started >= 0.1


class TestPropertyRunnerRecovery:
    SIZES = DatasetSizes(
        wikitables_tables=3,
        n_permutations=4,
        min_rows=4,
        max_rows=6,
    )

    def make(self, disk):
        return Observatory(
            seed=3, sizes=self.SIZES, runtime=RuntimeConfig(disk_cache_dir=disk)
        )

    def test_corrupted_cache_recomputes_identical_results(self, tmp_path):
        disk = str(tmp_path / "emb")
        baseline = self.make(None).characterize("bert", "row_order_insignificance")
        self.make(disk).characterize("bert", "row_order_insignificance")
        for path in entry_paths(disk):  # corrupt every cached embedding
            with open(path, "r+b") as handle:
                handle.truncate(8)
        recovered = self.make(disk)
        result = recovered.characterize("bert", "row_order_insignificance")
        assert result.to_dict() == baseline.to_dict()  # never wrong numbers
        assert recovered.cache.stats.disk_drops > 0
        # ...and the corrupt entries were replaced with good ones.
        again = self.make(disk)
        rerun = again.characterize("bert", "row_order_insignificance")
        assert rerun.to_dict() == baseline.to_dict()
        assert again.cache.stats.disk_hits > 0

    def test_corrupted_index_recomputes_identical_results(self, tmp_path):
        disk = str(tmp_path / "emb")
        first = self.make(disk).characterize("bert", "row_order_insignificance")
        with open(os.path.join(disk, INDEX_NAME), "w", encoding="utf-8") as handle:
            handle.write("garbage{{{")
        result = self.make(disk).characterize("bert", "row_order_insignificance")
        assert result.to_dict() == first.to_dict()
