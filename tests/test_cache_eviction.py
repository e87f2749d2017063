"""Property-based tests for the bounded disk cache tier.

Hypothesis drives random insert/evict/read sequences against two
:class:`repro.runtime.disk.DiskTier` instances over one directory (the
second stands in for another process's view) under a virtual clock that
some operations hold still, and checks, after **every prefix** of
operations:

1. the directory never exceeds ``max_bytes``;
2. size eviction is LRU;
3. the index a fresh tier replays from the log always matches the
   directory contents exactly.

A small compaction slack makes the tiers rewrite the log within a
sequence, so each also replays logs another tier replaced.
"""

import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.runtime import disk
from repro.runtime.cache import EmbeddingCache
from repro.runtime.disk import INDEX_NAME, DiskTier

MAX_BYTES = 2000

# float64 payload lengths; the largest exceeds the whole byte budget and
# must be rejected outright rather than evicting everything else.
SIZES = (4, 64, 200, 400)
KEYS = tuple(f"entry-{i}" for i in range(6))
TIERS = (0, 1)


class FakeClock:
    def __init__(self, start: float = 1_000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now


# (kind, key, argument, tier).  "hold" stops the clock until the next
# "tick", so the stamps of the operations between them tie; otherwise
# every operation advances it.
ops = st.one_of(
    st.tuples(
        st.just("put"), st.sampled_from(KEYS), st.sampled_from(SIZES), st.sampled_from(TIERS)
    ),
    st.tuples(st.just("get"), st.sampled_from(KEYS), st.just(0), st.sampled_from(TIERS)),
    st.tuples(
        st.just("tick"), st.just(""), st.floats(min_value=1.0, max_value=30.0), st.just(0)
    ),
    st.tuples(st.just("hold"), st.just(""), st.just(0), st.just(0)),
)


def disk_listing(directory):
    """{entry-name: file size} for every payload file in the directory."""
    return {
        name[: -len(".npy")]: os.path.getsize(os.path.join(directory, name))
        for name in os.listdir(directory)
        if name.endswith(".npy") and not name.startswith(".tmp-")
    }


def read_index(directory):
    """The index a fresh tier replays from the directory's log.

    Falling back to the directory scan would match the directory by
    construction, so a log that does not replay fails the test instead.
    """
    tier = DiskTier(directory)
    tier._rebuild_index = lambda: pytest.fail("index log did not replay")
    return tier._load_index()


def check_invariants(directory, snapshot, touched=None):
    """Assert the three eviction invariants after one operation.

    ``touched`` is the key the operation just wrote: a re-``put`` of a
    live key refreshes its recency (and creation time), so its snapshot
    stamps no longer apply.
    """
    listing = disk_listing(directory)
    assert sum(listing.values()) <= MAX_BYTES, "byte budget exceeded"

    if not os.path.exists(os.path.join(directory, INDEX_NAME)):
        assert not listing, "payloads on disk but no index"
        return {}
    entries = read_index(directory)
    assert set(entries) == set(listing), "index does not match directory"
    for name, entry in entries.items():
        assert int(entry["bytes"]) == listing[name], f"stale size for {name}"

    victims = set(snapshot) - set(entries)
    for victim in victims:
        for survivor in entries:
            if survivor == touched or survivor not in snapshot:
                continue  # just (re)written: most recent by definition
            assert snapshot[survivor]["atime"] >= snapshot[victim]["atime"], (
                "evicted a more recently used entry (LRU violated)"
            )
    return entries


@settings(max_examples=40, deadline=None)
@given(operations=st.lists(ops, min_size=1, max_size=25))
# Tied stamps made a re-put evict the entry it was writing; random search
# reaches such a sequence only now and then, so it is also pinned.
@example(
    operations=[
        ("put", "entry-0", 64, 0),
        ("hold", "", 0, 0),
        ("put", "entry-1", 64, 1),
        ("put", "entry-0", 200, 0),
    ]
)
def test_random_sequences_hold_invariants(operations):
    with tempfile.TemporaryDirectory() as directory, mock.patch.object(
        disk, "COMPACT_SLACK", 2
    ):
        clock = FakeClock()
        tiers = [
            DiskTier(directory, max_bytes=MAX_BYTES, clock=clock)
            for _ in TIERS
        ]
        snapshot = {}
        frozen = False
        for kind, key, arg, which in operations:
            if kind in ("hold", "tick"):
                frozen = kind == "hold"
                clock.now += arg
                continue
            if not frozen:
                clock.now += 1.0  # distinct stamps per operation
            touched = None
            if kind == "put":
                stored = tiers[which].put(key, np.full(arg, 1.5))
                oversized = 128 + arg * 8 > MAX_BYTES
                assert stored != oversized, (
                    "oversized entries must be rejected, fitting ones kept"
                )
                touched = key if stored else None
            else:
                value = tiers[which].get(key)
                if value is not None:
                    assert value.shape[0] in SIZES
                    assert float(value[0]) == 1.5
            snapshot = check_invariants(directory, snapshot, touched)


@settings(max_examples=25, deadline=None)
@given(operations=st.lists(ops, min_size=1, max_size=20))
def test_unbounded_tier_index_always_matches_directory(operations):
    # Without budgets nothing is ever evicted, but the index/directory
    # agreement must still hold after any prefix of operations.
    with tempfile.TemporaryDirectory() as directory, mock.patch.object(
        disk, "COMPACT_SLACK", 2
    ):
        clock = FakeClock()
        tiers = [DiskTier(directory, clock=clock) for _ in TIERS]
        live = set()
        frozen = False
        for kind, key, arg, which in operations:
            if kind in ("hold", "tick"):
                frozen = kind == "hold"
                clock.now += arg
            elif not frozen:
                clock.now += 1.0
            if kind == "put":
                assert tiers[which].put(key, np.full(arg, 2.5))
                live.add(key)
            elif kind == "get":
                value = tiers[which].get(key)
                assert (value is not None) == (key in live)
            listing = disk_listing(directory)
            assert set(listing) == live
            if live:
                assert set(read_index(directory)) == live
        assert sum(tier.evictions for tier in tiers) == 0


class TestRePut:
    def test_re_put_never_evicts_the_entry_it_writes(self, tmp_path):
        # A clock that stands still ties every access stamp, and a re-put
        # keeps its old slot, so an LRU tie broken by slot order would
        # pick the entry being written instead of the real victim.
        tier = DiskTier(str(tmp_path), max_bytes=1500, clock=lambda: 1_000.0)
        assert tier.put("a", np.ones(64))
        assert tier.put("b", np.ones(64))
        assert tier.put("a", np.ones(100))
        assert set(disk_listing(str(tmp_path))) == {"a"}
        assert np.array_equal(tier.get("a"), np.ones(100))
        assert tier.get("b") is None
        assert set(read_index(str(tmp_path))) == {"a"}


class TestByteBudgetThroughEmbeddingCache:
    def test_disk_usage_stays_bounded_across_many_puts(self, tmp_path):
        cache = EmbeddingCache(
            max_entries=2, disk_dir=str(tmp_path), disk_max_bytes=MAX_BYTES
        )
        rng = np.random.default_rng(0)
        for i in range(30):
            cache.put(("m", "column", f"fp{i}"), rng.standard_normal(48))
        assert sum(disk_listing(str(tmp_path)).values()) <= MAX_BYTES
        assert cache.stats.disk_evictions > 0
        assert cache.stats.disk_evictions == cache.disk.evictions

    def test_oldest_entries_evicted_first(self, tmp_path):
        clock = FakeClock()
        cache = EmbeddingCache(
            max_entries=1,
            disk_dir=str(tmp_path),
            disk_max_bytes=1500,
            clock=clock,
        )
        for i in range(4):
            clock.now += 1.0
            cache.put(("m", "column", f"fp{i}"), np.full(64, float(i)))
        # ~640 bytes each: only the two most recent fit the budget.
        assert cache.get(("m", "column", "fp0")) is None
        assert cache.get(("m", "column", "fp3")) is not None

    def test_rejects_bad_budgets(self):
        with pytest.raises(ValueError):
            DiskTier("/tmp/unused", max_bytes=0)
        from repro.runtime.planner import RuntimeConfig

        with pytest.raises(ValueError):
            RuntimeConfig(cache_max_bytes=0)
