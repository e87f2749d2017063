"""Embedding cache: in-memory LRU tier + optional bounded on-disk tier.

Entries are keyed by ``(model_name, kind, fingerprint)`` where ``kind`` is
an embedding level (``"column"``, ``"row"``, ``"table"``), ``"valuecol"``,
or one of the per-table record kinds ``"cells"`` and ``"entity"``.  Every
value is one ``np.ndarray``: a table's cell and entity embeddings are a
single structured array of records (see
:meth:`~repro.runtime.planner.EmbeddingExecutor.embed_cells`).

The memory tier is a thread-safe LRU bounded by entry count.  The optional
disk tier (:class:`~repro.runtime.disk.DiskTier`) persists every entry as
an ``.npy`` file governed by an append-only index log, a byte budget, and
an age limit, so repeated benchmark runs — and the worker processes of a
sharded sweep, which share the directory — only pay for what actually
changed.  All accounting is exposed as :class:`CacheStats` for reporting
and the bench-smoke CI gate.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import OrderedDict
from typing import Callable, Optional, Tuple

import numpy as np

from repro.runtime.disk import DiskTier
from repro.runtime.fingerprint import cache_entry_digest
from repro.telemetry import Counters

CacheKey = Tuple[str, ...]

# Salt mixed into every disk-tier filename.  The on-disk cache outlives the
# process, so entries must be invalidated whenever the embedding *math*
# changes even though table content (the key) did not.  Bump this constant
# in any PR that alters encoder numerics, serialization, aggregation, or
# model configs — old entries then simply miss instead of silently serving
# stale embeddings.
CACHE_SCHEMA_VERSION = 1


@dataclasses.dataclass
class CacheStats(Counters):
    """Counters for cache effectiveness (hits include disk-tier hits).

    ``evictions`` counts memory-tier LRU drops; ``disk_evictions`` counts
    disk-tier reclaims (size budget or age expiry); ``disk_drops`` counts
    corrupt/torn disk entries discarded on read.
    """

    derived = ("hit_rate",)

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    disk_hits: int = 0
    disk_puts: int = 0
    disk_evictions: int = 0
    disk_drops: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


class EmbeddingCache:
    """Bounded, thread-safe LRU of embedding arrays with a disk tier.

    Args:
        max_entries: memory-tier capacity; least recently used entries are
            evicted first (they remain on disk if the disk tier is active).
        disk_dir: optional directory for the persistent tier, which holds
            every entry.
        disk_max_bytes: byte budget of the disk tier (``None`` = unbounded).
        disk_max_age: seconds after which disk entries expire
            (``None`` = never).
        clock: time source for the disk tier's eviction policy.
    """

    def __init__(
        self,
        max_entries: int = 4096,
        disk_dir: Optional[str] = None,
        *,
        disk_max_bytes: Optional[int] = None,
        disk_max_age: Optional[float] = None,
        clock: Callable[[], float] = time.time,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.disk_dir = disk_dir
        self.stats = CacheStats()
        self._entries: "OrderedDict[CacheKey, np.ndarray]" = OrderedDict()
        self._lock = threading.Lock()
        self.disk: Optional[DiskTier] = None
        if disk_dir is not None:
            self.disk = DiskTier(
                disk_dir,
                max_bytes=disk_max_bytes,
                max_age=disk_max_age,
                clock=clock,
            )

    def set_deadline(self, deadline) -> None:
        """Forward a live sweep budget to the disk tier's lock waits."""
        if self.disk is not None:
            self.disk.set_deadline(deadline)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _entry_name(self, key: CacheKey) -> str:
        # CACHE_SCHEMA_VERSION is read at call time so a bump (or a test
        # monkeypatching it) invalidates every outstanding entry name.
        return cache_entry_digest(key, CACHE_SCHEMA_VERSION)

    def get(self, key: CacheKey) -> Optional[np.ndarray]:
        """Look up ``key`` in memory, then disk; ``None`` on a miss.

        Returned arrays are the read-only cached entry (mutating one would
        corrupt every aliased result).
        """
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return value
        if self.disk is not None:
            value = self.disk.get(self._entry_name(key))
            if value is not None:
                with self._lock:
                    self.stats.hits += 1
                    self.stats.disk_hits += 1
                    self._sync_disk_counters()
                    self._store(key, value)
                return value
            with self._lock:
                self._sync_disk_counters()
        with self._lock:
            self.stats.misses += 1
        return None

    def put(self, key: CacheKey, value: np.ndarray) -> None:
        """Insert ``value`` (also written to the disk tier when active)."""
        with self._lock:
            self.stats.puts += 1
            self._store(key, value)
        if self.disk is not None:
            stored = self.disk.put(self._entry_name(key), value)
            with self._lock:
                if stored:
                    self.stats.disk_puts += 1
                self._sync_disk_counters()

    def _sync_disk_counters(self) -> None:
        # Caller holds the lock.  The tier's counters are cumulative and
        # monotonic, so mirroring them by assignment is race-free —
        # accumulating per-call deltas would double-count under the
        # thread-pool sweep (two threads reading the same "before").
        self.stats.disk_evictions = self.disk.evictions
        self.stats.disk_drops = self.disk.drops

    def _store(self, key: CacheKey, value: np.ndarray) -> None:
        # Caller holds the lock.  Freeze arrays so external mutation of a
        # returned result raises instead of silently poisoning the cache.
        value.setflags(write=False)
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop the memory tier (disk entries are kept)."""
        with self._lock:
            self._entries.clear()
