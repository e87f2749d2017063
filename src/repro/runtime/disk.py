"""Bounded, indexed, crash-safe on-disk cache tier.

:class:`DiskTier` stores numpy arrays as ``.npy`` files under one directory
and keeps a versioned JSON **index** (``index.json``) beside them, so that

- startup reads one small file instead of statting the whole directory;
- the tier stays under a configurable **byte budget** (``max_bytes``) via
  least-recently-used eviction;
- entries past a configurable **age** (``max_age`` seconds since creation)
  expire and are reclaimed before any younger entry is size-evicted;
- every write is **crash-safe**: payloads land via write-temp-then-rename
  (``os.replace`` is atomic on POSIX), the index likewise, and index
  mutations happen under an ``index.lock`` file with stale-lock reclaim —
  a crashed writer never wedges the directory.

Corruption is survivable by construction: a payload that fails to load (or
whose size no longer matches the index) is dropped and recomputed by the
caller; a missing, torn, or version-mismatched index is rebuilt from a
one-time directory scan.  The tier never *raises* out of ``get``/``put`` —
a broken disk degrades to a cache miss, not a failed characterization.

Multiple processes may share one directory (this is how process-sharded
sweeps share work): atomic renames make concurrent reads safe, and the
lock serializes index updates across processes and threads alike.

The wall clock is injectable (``clock``) so eviction policy is testable
under a virtual clock; lock staleness always uses real time.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
import uuid
from typing import Callable, Dict, Iterator, Optional

import numpy as np

# Bump when the on-disk index layout changes; mismatched indexes are
# rebuilt from a directory scan (entries survive, the index does not).
INDEX_VERSION = 1

INDEX_NAME = "index.json"
LOCK_NAME = "index.lock"
_TMP_PREFIX = ".tmp-"


@contextlib.contextmanager
def file_lock(path: str, *, patience: float, stale_age: float) -> Iterator[None]:
    """Hold the lock file ``path`` (O_CREAT|O_EXCL) with stale-lock reclaim.

    A lock file older than ``stale_age`` seconds is reclaimed at once (its
    writer crashed); a younger one is waited on, polling every 2 ms, for
    at most ``patience`` seconds before it is reclaimed as wedged.  The
    holder's pid is written into the file.  The disk tier's index and the
    column index's manifest both serialize their writers through this.
    """
    deadline = time.time() + patience
    fd = None
    while fd is None:
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                age = time.time() - os.path.getmtime(path)
            except OSError:
                continue  # holder just released; retry immediately
            if age > stale_age or time.time() > deadline:
                # The writer crashed (or is wedged past our patience):
                # reclaim.  Unlink is racy-but-safe — worst case two
                # waiters both proceed to an atomic rename.
                with contextlib.suppress(OSError):
                    os.unlink(path)
                continue
            time.sleep(0.002)
    try:
        with contextlib.suppress(OSError):
            os.write(fd, str(os.getpid()).encode("ascii"))
        os.close(fd)
        yield
    finally:
        with contextlib.suppress(OSError):
            os.unlink(path)


class DiskTier:
    """Directory of ``.npy`` entries governed by a versioned JSON index.

    Args:
        directory: storage directory (created if missing).
        max_bytes: byte budget for all entries; ``None`` = unbounded.
            An entry larger than the whole budget is not stored at all.
        max_age: seconds after which an entry expires; ``None`` = never.
            Expired entries are dropped on sight and reclaimed before any
            younger entry is evicted for size.
        clock: time source for entry creation/access stamps (tests inject
            a virtual clock; eviction policy follows it).
        lock_timeout: seconds to wait for ``index.lock`` before assuming
            its holder crashed and reclaiming it.
        stale_lock_age: a lock file older than this is reclaimed
            immediately (its writer is long gone).
    """

    def __init__(
        self,
        directory: str,
        *,
        max_bytes: Optional[int] = None,
        max_age: Optional[float] = None,
        clock: Callable[[], float] = time.time,
        lock_timeout: float = 5.0,
        stale_lock_age: float = 10.0,
    ):
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be positive when set")
        if max_age is not None and max_age <= 0:
            raise ValueError("max_age must be positive when set")
        self.directory = directory
        self.max_bytes = max_bytes
        self.max_age = max_age
        self.evictions = 0  # size- or age-based reclaims (files removed)
        self.drops = 0  # corrupt/torn entries dropped on read
        self._clock = clock
        self._lock_timeout = lock_timeout
        self._stale_lock_age = stale_lock_age
        self._deadline = None  # optional live sweep budget; see set_deadline
        os.makedirs(directory, exist_ok=True)

    def set_deadline(self, deadline) -> None:
        """Bound lock patience by a live sweep budget.

        ``deadline`` is a :class:`~repro.runtime.faults.Deadline`.  The
        tier's never-raise contract holds: an expired budget only
        *shortens* how long ``_locked`` waits before stale-reclaiming —
        it never turns a cache access into an error.
        """
        self._deadline = deadline

    # ------------------------------------------------------------------
    # Paths and locking
    # ------------------------------------------------------------------

    def _path(self, name: str) -> str:
        return os.path.join(self.directory, f"{name}.npy")

    @property
    def index_path(self) -> str:
        return os.path.join(self.directory, INDEX_NAME)

    def _locked(self):
        """Hold ``index.lock``; see :func:`file_lock`."""
        patience = self._lock_timeout
        if self._deadline is not None:
            # A sweep out of wall-clock budget should not sit out the full
            # lock timeout; the floor keeps an expired budget from turning
            # every wait into an instant (possibly-live) lock reclaim.
            patience = max(0.05, self._deadline.bound(self._lock_timeout))
        return file_lock(
            os.path.join(self.directory, LOCK_NAME),
            patience=patience,
            stale_age=self._stale_lock_age,
        )

    # ------------------------------------------------------------------
    # Index I/O
    # ------------------------------------------------------------------

    def _load_index(self) -> Dict[str, Dict[str, float]]:
        """Read the index; rebuild from a directory scan when unusable."""
        try:
            with open(self.index_path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if payload.get("index_version") != INDEX_VERSION:
                raise ValueError("index version mismatch")
            entries = payload["entries"]
            if not isinstance(entries, dict):
                raise ValueError("malformed entries")
            return entries
        except FileNotFoundError:
            if not any(
                entry.endswith(".npy") and not entry.startswith(_TMP_PREFIX)
                for entry in os.listdir(self.directory)
            ):
                return {}  # fresh directory: nothing to rebuild
            return self._rebuild_index()
        except (OSError, ValueError, KeyError, TypeError):
            return self._rebuild_index()

    def _rebuild_index(self) -> Dict[str, Dict[str, float]]:
        """Recover the index by scanning the directory (one-time fallback).

        Also sweeps *stale* temp files left behind by crashed writers —
        fresh ones may belong to a concurrent writer's in-flight put.
        """
        entries: Dict[str, Dict[str, float]] = {}
        now = self._clock()
        for filename in sorted(os.listdir(self.directory)):
            path = os.path.join(self.directory, filename)
            if filename.startswith(_TMP_PREFIX):
                with contextlib.suppress(OSError):
                    if time.time() - os.path.getmtime(path) > self._stale_lock_age:
                        os.unlink(path)
                continue
            if not filename.endswith(".npy"):
                continue
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            entries[filename[: -len(".npy")]] = {
                "bytes": float(size),
                "created": now,
                "atime": now,
            }
        return entries

    def _write_index(self, entries: Dict[str, Dict[str, float]]) -> None:
        payload = {"index_version": INDEX_VERSION, "entries": entries}
        tmp = os.path.join(
            self.directory, f"{_TMP_PREFIX}index-{uuid.uuid4().hex}.json"
        )
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, self.index_path)

    # ------------------------------------------------------------------
    # Eviction policy
    # ------------------------------------------------------------------

    def _expired(self, entry: Dict[str, float], now: float) -> bool:
        return self.max_age is not None and now - entry["created"] > self.max_age

    def _reclaim(self, entries: Dict[str, Dict[str, float]], now: float) -> list:
        """Apply age expiry then LRU size eviction; returns removed names.

        Expired entries go first, so a younger-than-``max_age`` entry is
        only ever evicted for size once no older-than-``max_age`` entry
        remains — the invariant ``tests/test_cache_eviction.py`` locks in.
        """
        removed = [n for n, e in entries.items() if self._expired(e, now)]
        for name in removed:
            del entries[name]
        if self.max_bytes is not None:
            total = sum(e["bytes"] for e in entries.values())
            while total > self.max_bytes and entries:
                victim = min(entries, key=lambda n: entries[n]["atime"])
                total -= entries[victim]["bytes"]
                del entries[victim]
                removed.append(victim)
        return removed

    def _unlink_entries(self, names) -> None:
        for name in names:
            with contextlib.suppress(OSError):
                os.unlink(self._path(name))

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def get(self, name: str) -> Optional[np.ndarray]:
        """The entry's array, or ``None`` (missing, expired, or corrupt).

        A corrupt or torn payload is dropped from disk and index — the
        caller recomputes; wrong data is never returned for entries whose
        payload no longer matches what was written.
        """
        entries = self._load_index()
        entry = entries.get(name)
        if entry is None:
            return None
        now = self._clock()
        path = self._path(name)
        if self._expired(entry, now):
            self._forget(name, unlink=True, count_eviction=True)
            return None
        try:
            if os.path.getsize(path) != int(entry["bytes"]):
                raise ValueError("payload size does not match index")
            value = np.load(path)
        except (OSError, ValueError, EOFError):
            self.drops += 1
            self._forget(name, unlink=True, count_eviction=False)
            return None
        if self.max_bytes is not None:
            # Persist recency only when size-LRU eviction consumes it;
            # age expiry reads "created", so every other configuration
            # skips the locked index rewrite on the hot read path.
            with self._locked():
                entries = self._load_index()
                if name in entries:
                    entries[name]["atime"] = now
                    self._write_index(entries)
        return value

    def put(self, name: str, value: np.ndarray) -> bool:
        """Store ``value`` atomically; returns whether it was kept.

        An entry larger than the entire byte budget is rejected (storing
        it could never satisfy the bound).  Insertion triggers expiry and
        LRU eviction so the budget holds after every operation.
        """
        tmp = os.path.join(self.directory, f"{_TMP_PREFIX}{uuid.uuid4().hex}.npy")
        try:
            np.save(tmp, value)
            size = os.path.getsize(tmp)
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            return False  # best-effort tier: a failing disk is a miss
        if self.max_bytes is not None and size > self.max_bytes:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            return False
        now = self._clock()
        with self._locked():
            entries = self._load_index()
            entries[name] = {"bytes": float(size), "created": now, "atime": now}
            removed = self._reclaim(entries, now)
            self.evictions += len(removed)
            # Crash-ordering: victims are unlinked and the index written
            # *before* the payload lands.  A crash at any point leaves
            # either the old state, or index entries whose files are gone
            # or stale — both dropped-and-recomputed on read.  The reverse
            # order would orphan payload bytes that no index accounts for,
            # letting real disk usage creep past max_bytes forever.
            self._unlink_entries(removed)
            self._write_index(entries)
            try:
                os.replace(tmp, self._path(name))
            except OSError:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                return False
        return True

    def _forget(self, name: str, *, unlink: bool, count_eviction: bool) -> None:
        if unlink:
            self._unlink_entries([name])  # before the index write: no orphans
        with self._locked():
            entries = self._load_index()
            if entries.pop(name, None) is not None:
                self._write_index(entries)
                if count_eviction:
                    self.evictions += 1

    def total_bytes(self) -> int:
        """Bytes currently accounted to entries (per the index)."""
        return int(sum(e["bytes"] for e in self._load_index().values()))

    def __len__(self) -> int:
        return len(self._load_index())

    def __repr__(self) -> str:
        budget = "unbounded" if self.max_bytes is None else f"{self.max_bytes}B"
        return (
            f"DiskTier({self.directory!r}, budget={budget}, "
            f"max_age={self.max_age}, entries={len(self)})"
        )
