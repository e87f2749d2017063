"""Bounded, indexed, crash-safe on-disk cache tier.

:class:`DiskTier` stores numpy arrays as ``.npy`` files under one directory
and keeps a versioned, append-only **index log** (``index.jsonl``) beside
them, so that

- startup reads one small file instead of statting the whole directory,
  and each tier replays the log into memory incrementally: a lookup costs
  one ``os.stat`` when the log is unchanged and otherwise reads only the
  records appended since its last look;
- a mutation appends one short record instead of rewriting the index;
  a writer compacts the log once it holds more than twice as many records
  as live entries plus :data:`COMPACT_SLACK`;
- the tier stays under a configurable **byte budget** (``max_bytes``) via
  least-recently-used eviction;
- entries past a configurable **age** (``max_age`` seconds since creation)
  expire and are reclaimed before any younger entry is size-evicted;
- every write is **crash-safe**: payloads and compacted logs land via
  write-temp-then-rename (``os.replace`` is atomic on POSIX), each record
  is appended before its payload is renamed into place, and index
  mutations happen under an ``index.lock`` file with stale-lock reclaim —
  a crashed writer never wedges the directory.

The log is a header line ``{"index_version": 2, "epoch": <random hex>}``
followed by one JSON array per mutation: ``["put", name, bytes, created]``
(compaction appends the access stamp when it differs from ``created``),
``["del", name]``, and — only under a byte budget, whose LRU eviction is
the sole reader of access stamps — ``["use", name, atime]``.  A reader
replays from byte 0 when the log was replaced (its inode or epoch
differs) or has shrunk.

Corruption is survivable by construction: a payload that fails to load (or
whose size no longer matches the index) is dropped and recomputed by the
caller; a missing, garbage, or version-mismatched log — or one whose last
line is incomplete, a crashed writer's torn append — is rebuilt from a
one-time directory scan, which is also how a directory indexed by the
version-1 ``index.json`` is adopted.  The tier never *raises* out of
``get``/``put`` — a broken disk degrades to a cache miss, not a failed
characterization.

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
import threading
import time
import uuid
from typing import Callable, Dict, Iterator, Optional

import numpy as np

# Bump when the on-disk index layout changes; mismatched indexes are
# rebuilt from a directory scan (entries survive, the index does not).
INDEX_VERSION = 2

INDEX_NAME = "index.jsonl"
LOCK_NAME = "index.lock"
_TMP_PREFIX = ".tmp-"

# A writer compacts the log once it holds more than
# ``2 * live entries + COMPACT_SLACK`` records.  Compaction leaves one
# record per live entry, so at least ``live + COMPACT_SLACK`` appends
# separate two compactions and their cost amortizes to O(1) per mutation.
COMPACT_SLACK = 64


def _signature(stat: os.stat_result) -> tuple:
    return (stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns)


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
    """Directory of ``.npy`` entries governed by a versioned index log.

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
        # The replayed index and where its replay stopped, guarded by
        # _mutex (threads share one tier; index.lock orders writers).
        self._mutex = threading.Lock()
        self._entries: Dict[str, Dict[str, float]] = {}
        self._seen: Optional[tuple] = None  # log signature last replayed
        self._ident: Optional[tuple] = None  # (st_dev, st_ino) of that log
        self._header = b""  # its header line, epoch included
        self._offset = 0  # bytes of it replayed
        self._records = 0  # records among them
        self._log_ok = False  # the log replays to exactly _entries
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

    @contextlib.contextmanager
    def _writing(self) -> Iterator[Dict[str, Dict[str, float]]]:
        """Hold ``index.lock`` and the mutex over the up-to-date index."""
        with self._locked(), self._mutex:
            yield self._load_index()

    # ------------------------------------------------------------------
    # Index log
    # ------------------------------------------------------------------

    def _load_index(self) -> Dict[str, Dict[str, float]]:
        """Catch the replayed index up with the log; caller holds the mutex.

        Reads nothing when the log's signature is unchanged, only the
        appended records when it grew, and everything when it was
        replaced or shrank.  An unusable or missing log is recovered by a
        directory scan.
        """
        try:
            seen = _signature(os.stat(self.index_path))
        except OSError:
            seen = ()  # missing (or unreadable: the open below rebuilds)
        if seen == self._seen:
            return self._entries
        try:
            with open(self.index_path, "rb") as handle:
                stat = os.fstat(handle.fileno())
                seen = _signature(stat)
                if not (
                    (stat.st_dev, stat.st_ino) == self._ident
                    and stat.st_size >= self._offset
                    and handle.read(len(self._header)) == self._header
                ):
                    handle.seek(0)
                    self._start(stat, handle.readline())
                handle.seek(self._offset)
                tail = handle.read()
            self._replay(tail)
            self._seen = seen
        except (OSError, ValueError, LookupError, TypeError, OverflowError):
            # Also a missing log: a fresh directory scans to no entries.
            self._adopt(self._rebuild_index(), seen)
        return self._entries

    def _start(self, stat: os.stat_result, header: bytes) -> None:
        """Begin a replay from byte 0 of the log whose first line is ``header``."""
        meta = json.loads(header)
        if not (
            header.endswith(b"\n")
            and isinstance(meta, dict)
            and meta.get("index_version") == INDEX_VERSION
            and isinstance(meta.get("epoch"), str)
        ):
            raise ValueError("torn, foreign or version-mismatched index header")
        self._entries = {}
        self._ident = (stat.st_dev, stat.st_ino)
        self._header = header
        self._offset = len(header)
        self._records = 0

    def _replay(self, tail: bytes) -> None:
        """Apply the complete records in ``tail``; a torn last line raises."""
        if tail and not tail.endswith(b"\n"):
            raise ValueError("torn append at the end of the index log")
        lines = tail.split(b"\n")[:-1]
        for line in lines:
            record = json.loads(line)
            op, name = record[0], record[1]
            if not isinstance(name, str):
                raise TypeError("index record names no entry")
            if op == "put":
                created = float(record[3])
                self._entries[name] = {
                    "bytes": int(record[2]),
                    "created": created,
                    "atime": float(record[4]) if len(record) > 4 else created,
                }
            elif op == "del":
                self._entries.pop(name, None)
            elif op == "use":
                if name in self._entries:
                    self._entries[name]["atime"] = float(record[2])
            else:
                raise ValueError(f"unknown index record {op!r}")
        self._offset += len(tail)
        self._records += len(lines)
        self._log_ok = True

    def _adopt(self, entries: Dict[str, Dict[str, float]], seen: tuple) -> None:
        """Take ``entries`` as the index; the next writer rewrites the log."""
        self._entries = entries
        self._seen = seen
        self._ident = None
        self._header = b""
        self._offset = 0
        self._records = 0
        self._log_ok = False

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
                "bytes": size,
                "created": now,
                "atime": now,
            }
        return entries

    def _log(self, records: list) -> bool:
        """Persist ``records``, already applied to the index; caller is writing.

        Appends them, or compacts the log from the live entries when it is
        unusable or has outgrown them.  On failure the next load replays
        the log from byte 0, and ``False`` tells the caller nothing landed.
        """
        try:
            if (
                not self._log_ok
                or self._records + len(records)
                > 2 * len(self._entries) + COMPACT_SLACK
            ):
                self._rewrite()
            else:
                self._append(records)
            return True
        except OSError:
            self._seen = self._ident = None
            return False

    def _append(self, records: list) -> None:
        data = "".join(json.dumps(record) + "\n" for record in records).encode()
        fd = os.open(self.index_path, os.O_WRONLY | os.O_APPEND)
        try:
            written = os.write(fd, data)
            stat = os.fstat(fd)
        finally:
            os.close(fd)
        if written != len(data):
            raise OSError("short append to the index log")
        if (stat.st_dev, stat.st_ino) == self._ident and (
            stat.st_size == self._offset + written
        ):
            self._offset += written
            self._records += len(records)
            self._seen = _signature(stat)
        else:
            # Another writer reclaimed the lock from us and touched the
            # log meanwhile: replay it from byte 0 next time.
            self._seen = self._ident = None

    def _rewrite(self) -> None:
        """Replace the log by one ``put`` record per live entry."""
        header = json.dumps({"index_version": INDEX_VERSION, "epoch": uuid.uuid4().hex})
        lines = [header]
        for name, entry in self._entries.items():
            record = ["put", name, entry["bytes"], entry["created"]]
            if entry["atime"] != entry["created"]:
                record.append(entry["atime"])
            lines.append(json.dumps(record))
        data = ("\n".join(lines) + "\n").encode()
        tmp = os.path.join(
            self.directory, f"{_TMP_PREFIX}index-{uuid.uuid4().hex}.jsonl"
        )
        try:
            with open(tmp, "wb") as handle:
                handle.write(data)
                handle.flush()
                stat = os.fstat(handle.fileno())
            os.replace(tmp, self.index_path)
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        self._seen = _signature(stat)
        self._ident = (stat.st_dev, stat.st_ino)
        self._header = (header + "\n").encode()
        self._offset = len(data)
        self._records = len(lines) - 1
        self._log_ok = True

    # ------------------------------------------------------------------
    # Eviction policy
    # ------------------------------------------------------------------

    def _expired(self, entry: Dict[str, float], now: float) -> bool:
        return self.max_age is not None and now - entry["created"] > self.max_age

    def _reclaim(
        self, entries: Dict[str, Dict[str, float]], now: float, keep: str
    ) -> list:
        """Apply age expiry then LRU size eviction; returns removed names.

        Expired entries go first, so a younger-than-``max_age`` entry is
        only ever evicted for size once no older-than-``max_age`` entry
        remains — the invariant ``tests/test_cache_eviction.py`` locks in.
        ``keep``, the entry being written, is never a victim: it fits the
        budget alone (``put`` rejects larger entries), and a re-put keeps
        its old slot, where an access-stamp tie would otherwise pick it.
        """
        removed = []
        if self.max_age is not None:  # skip the O(entries) scan when unused
            removed = [n for n, e in entries.items() if self._expired(e, now)]
            for name in removed:
                del entries[name]
        if self.max_bytes is not None:
            total = sum(e["bytes"] for e in entries.values())
            while total > self.max_bytes and len(entries) > 1:
                victim = min(
                    (n for n in entries if n != keep),
                    key=lambda n: entries[n]["atime"],
                )
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
        with self._mutex:
            entry = self._load_index().get(name)
            if entry is None:
                return None
            stamp = (entry["bytes"], entry["created"])
        now = self._clock()
        path = self._path(name)
        if self._expired(entry, now):
            self._forget(name, stamp, expired=True)
            return None
        try:
            if os.path.getsize(path) != stamp[0]:
                raise ValueError("payload size does not match index")
            value = np.load(path)
        except (OSError, ValueError, EOFError):
            self._forget(name, stamp, expired=False)
            return None
        if self.max_bytes is not None:
            # Persist recency only when size-LRU eviction consumes it;
            # age expiry reads "created", so every other configuration
            # keeps the hot read path free of the lock and the log.
            with self._writing() as entries:
                if name in entries:
                    entries[name]["atime"] = now
                    self._log([["use", name, now]])
        return value

    def put(self, name: str, value: np.ndarray) -> bool:
        """Store ``value`` atomically; returns whether it was kept.

        An entry larger than the entire byte budget is rejected (storing
        it could never satisfy the bound), and so is an array that only
        pickle can save (``get`` loads without pickle, so it would be
        dropped as corrupt on every read).  Insertion triggers expiry and
        LRU eviction so the budget holds after every operation.
        """
        tmp = os.path.join(self.directory, f"{_TMP_PREFIX}{uuid.uuid4().hex}.npy")
        try:
            np.save(tmp, value, allow_pickle=False)
            size = os.path.getsize(tmp)
        except (OSError, ValueError):
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            return False  # best-effort tier: a failing disk is a miss
        if self.max_bytes is not None and size > self.max_bytes:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            return False
        now = self._clock()
        with self._writing() as entries:
            entries[name] = {"bytes": size, "created": now, "atime": now}
            removed = self._reclaim(entries, now, keep=name)
            self.evictions += len(removed)
            # Crash-ordering: victims are unlinked and the records logged
            # *before* the payload lands.  A crash at any point leaves
            # either the old state, or index entries whose files are gone
            # or stale — both dropped-and-recomputed on read.  The reverse
            # order would orphan payload bytes that no index accounts for,
            # letting real disk usage creep past max_bytes forever.
            self._unlink_entries(removed)
            logged = self._log(
                [["put", name, size, now]] + [["del", victim] for victim in removed]
            )
            try:
                if not logged:
                    raise OSError("index log not written")
                os.replace(tmp, self._path(name))
            except OSError:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                return False
        return True

    def _forget(self, name: str, stamp: tuple, *, expired: bool) -> None:
        """Drop ``name`` if the index still holds the entry judged bad.

        Runs under the lock, like every put's record and payload rename,
        so an entry another writer re-put meanwhile is left alone.
        """
        with self._writing() as entries:
            entry = entries.get(name)
            if entry is None or (entry["bytes"], entry["created"]) != stamp:
                return
            self._unlink_entries([name])  # before its del record: no orphans
            del entries[name]
            self._log([["del", name]])
            if expired:
                self.evictions += 1
            else:
                self.drops += 1

    def total_bytes(self) -> int:
        """Bytes currently accounted to entries (per the index)."""
        with self._mutex:
            return int(sum(e["bytes"] for e in self._load_index().values()))

    def __len__(self) -> int:
        with self._mutex:
            return len(self._load_index())

    def __repr__(self) -> str:
        budget = "unbounded" if self.max_bytes is None else f"{self.max_bytes}B"
        return (
            f"DiskTier({self.directory!r}, budget={budget}, "
            f"max_age={self.max_age}, entries={len(self)})"
        )
