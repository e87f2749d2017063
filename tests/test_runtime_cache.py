"""Tests for the embedding cache and content fingerprints."""

import os

import numpy as np
import pytest

from repro.relational.table import Table
from repro.runtime.cache import EmbeddingCache
from repro.runtime.disk import DiskTier
from repro.runtime.fingerprint import (
    coords_fingerprint,
    table_fingerprint,
    value_column_fingerprint,
)


@pytest.fixture()
def table() -> Table:
    return Table.from_columns(
        [
            ("player", ["Federer", "Nadal", "Djokovic", "Murray"]),
            ("titles", [103, 92, 94, 46]),
        ],
        caption="tennis",
        table_id="t1",
    )


class TestFingerprint:
    def test_stable_across_reconstruction(self, table):
        rebuilt = Table.from_columns(
            [
                ("player", ["Federer", "Nadal", "Djokovic", "Murray"]),
                ("titles", [103, 92, 94, 46]),
            ],
            caption="tennis",
            table_id="t1",
        )
        assert table_fingerprint(table) == table_fingerprint(rebuilt)

    def test_identity_permutation_hits(self, table):
        identity = table.reorder_rows(range(table.num_rows))
        assert table_fingerprint(identity) == table_fingerprint(table)
        identity_cols = table.reorder_columns(range(table.num_columns))
        assert table_fingerprint(identity_cols) == table_fingerprint(table)

    def test_row_permutation_misses(self, table):
        # Embeddings are order-sensitive, so a permuted variant must get a
        # distinct cache identity.
        shuffled = table.reorder_rows([1, 0, 3, 2])
        assert table_fingerprint(shuffled) != table_fingerprint(table)

    def test_column_permutation_misses(self, table):
        shuffled = table.reorder_columns([1, 0])
        assert table_fingerprint(shuffled) != table_fingerprint(table)

    def test_value_types_distinguished(self):
        assert value_column_fingerprint("x", [1, 2]) != value_column_fingerprint(
            "x", ["1", "2"]
        )
        assert value_column_fingerprint("x", [1, 2]) != value_column_fingerprint(
            "x", [1.0, 2.0]
        )

    def test_caption_and_header_matter(self, table):
        recaptioned = Table(table.schema, table.rows, caption="other", table_id="t1")
        assert table_fingerprint(recaptioned) != table_fingerprint(table)
        renamed = table.rename_column(0, "athlete")
        assert table_fingerprint(renamed) != table_fingerprint(table)

    def test_coords_fingerprint_order_insensitive(self):
        assert coords_fingerprint([(0, 1), (2, 3)]) == coords_fingerprint(
            [(2, 3), (0, 1), (0, 1)]
        )
        assert coords_fingerprint([(0, 1)]) != coords_fingerprint([(1, 0)])


class TestEmbeddingCache:
    def test_hit_miss_accounting(self):
        cache = EmbeddingCache(max_entries=8)
        key = ("bert", "column", "abc")
        assert cache.get(key) is None
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        cache.put(key, np.ones(4))
        value = cache.get(key)
        assert np.array_equal(value, np.ones(4))
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.puts == 1
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction(self):
        cache = EmbeddingCache(max_entries=2)
        cache.put(("m", "l", "a"), np.zeros(1))
        cache.put(("m", "l", "b"), np.zeros(1))
        cache.get(("m", "l", "a"))  # refresh a; b becomes LRU
        cache.put(("m", "l", "c"), np.zeros(1))
        assert cache.stats.evictions == 1
        assert cache.get(("m", "l", "b")) is None  # evicted
        assert cache.get(("m", "l", "a")) is not None

    def test_disk_tier_survives_memory_eviction(self, tmp_path):
        cache = EmbeddingCache(max_entries=1, disk_dir=str(tmp_path))
        cache.put(("m", "l", "a"), np.arange(3, dtype=np.float64))
        cache.put(("m", "l", "b"), np.arange(3, 6, dtype=np.float64))  # evicts a
        value = cache.get(("m", "l", "a"))  # served from disk
        assert np.array_equal(value, np.arange(3, dtype=np.float64))
        assert cache.stats.disk_hits == 1

    def test_disk_tier_shared_across_instances(self, tmp_path):
        first = EmbeddingCache(max_entries=4, disk_dir=str(tmp_path))
        first.put(("m", "l", "k"), np.full(2, 7.0))
        second = EmbeddingCache(max_entries=4, disk_dir=str(tmp_path))
        assert np.array_equal(second.get(("m", "l", "k")), np.full(2, 7.0))

    def test_disk_tier_refuses_pickled_payloads(self, tmp_path):
        # get loads without pickle, so a stored object array would be
        # dropped as corrupt on every read: put refuses it up front.
        tier = DiskTier(str(tmp_path))
        payload = np.array([{"cell": 1}, None], dtype=object)
        assert tier.put("objects", payload) is False
        assert tier.get("objects") is None
        assert tier.drops == 0 and len(tier) == 0
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".npy")]
        cache = EmbeddingCache(max_entries=4, disk_dir=str(tmp_path))
        cache.put(("m", "l", "k"), payload)
        assert cache.stats.disk_puts == 0 and cache.stats.disk_drops == 0

    def test_clear_keeps_disk(self, tmp_path):
        cache = EmbeddingCache(max_entries=4, disk_dir=str(tmp_path))
        cache.put(("m", "l", "k"), np.ones(2))
        cache.clear()
        assert len(cache) == 0
        assert cache.get(("m", "l", "k")) is not None  # disk tier

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            EmbeddingCache(max_entries=0)

    def test_cached_arrays_are_frozen(self):
        cache = EmbeddingCache(max_entries=4)
        cache.put(("m", "l", "k"), np.ones(3))
        value = cache.get(("m", "l", "k"))
        with pytest.raises(ValueError):
            value[0] = 99.0  # mutating a shared cache entry must fail loudly

    def test_disk_entries_scoped_by_schema_version(self, tmp_path, monkeypatch):
        from repro.runtime import cache as cache_module

        first = EmbeddingCache(max_entries=4, disk_dir=str(tmp_path))
        first.put(("m", "l", "k"), np.ones(2))
        monkeypatch.setattr(cache_module, "CACHE_SCHEMA_VERSION", 999)
        bumped = EmbeddingCache(max_entries=4, disk_dir=str(tmp_path))
        assert bumped.get(("m", "l", "k")) is None  # old entries invalidated
