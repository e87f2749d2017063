"""Write-ahead sweep journal: durable per-cell progress for ``sweep``.

A sweep is expensive and deterministic per cell, but historically
all-or-nothing: a SIGKILL/OOM of the parent lost every finished cell and
re-planned the whole matrix.  :class:`SweepJournal` makes progress
durable at cell granularity so ``Observatory.sweep(journal_dir=...,
resume=True)`` replays what already finished and dispatches only the
remainder.

Layout of a journal directory::

    plan.json             # fingerprint header, written temp-then-rename
    segment-000001.jsonl  # sealed segment (renamed from .part on close)
    segment-000002.jsonl.part  # active segment of the live/killed session

Design rules, each earned by a crash mode:

- **Plan fingerprint header.**  ``plan.json`` records a SHA-256 over the
  sweep's identity — seed, dataset sizes, models, properties, backend
  namespace, BLAS regime (:func:`~repro.models.blas.blas_regime`), and
  the runnable cell list.  Resume refuses a journal whose
  fingerprint differs (:class:`~repro.errors.StaleJournalError`): mixing
  cells computed under different numerics would be silent corruption.
  The fingerprint deliberately *excludes* execution mode and worker
  count — results are bit-identical across engines by contract, so a
  thread-engine journal may resume under the process engine.
- **Append-only JSONL segments, one per session.**  Each writing session
  appends to its own ``.part`` file (flush + fsync per record) and seals
  it by rename on clean close.  A crash leaves a ``.part`` tail; replay
  reads sealed and unsealed segments alike.
- **Digest-verified records.**  Every line carries the SHA-256 of its
  canonical record JSON.  Replay drops torn tails and garbage lines
  individually — one bad line never poisons the records after it.
- **First record wins.**  A cell journaled twice (crash between write
  and dedup bookkeeping) replays its first outcome, so replay is
  idempotent.

Failure records (degraded cells) are journaled for audit but are *not*
treated as completed: a resume retries them — a transient fault should
not be sticky across restarts.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import JournalError, StaleJournalError

PLAN_FILE = "plan.json"
JOURNAL_VERSION = 1

_SEGMENT_RE = re.compile(r"^segment-(\d{6})\.jsonl(\.part)?$")

CellKey = Tuple[str, str]  # (model_name, property_name)


def _canonical(record: Dict[str, object]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def record_digest(record: Dict[str, object]) -> str:
    """SHA-256 hex digest of a record's canonical JSON form."""
    return hashlib.sha256(_canonical(record).encode("utf-8")).hexdigest()


def plan_fingerprint(plan: Dict[str, object]) -> str:
    """SHA-256 hex digest identifying a sweep plan (order-insensitive keys)."""
    return hashlib.sha256(_canonical(plan).encode("utf-8")).hexdigest()


def _write_atomic(path: str, payload: str) -> None:
    """Write-temp-then-rename so readers never observe a torn header."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


class SweepJournal:
    """Durable record of one sweep's planned and completed cells.

    Construct via :meth:`start` (fresh journal; discards any prior
    contents of the directory) or :meth:`resume` (replays completed
    cells; refuses a fingerprint mismatch).  Not process-shared: exactly
    one sweep parent writes a journal at a time.  Appends are
    thread-safe (re-entrant lock) because the CLI's signal handlers may
    flush while the sweep loop is mid-append.
    """

    def __init__(
        self,
        directory: str,
        fingerprint: str,
        *,
        completed: Optional[Dict[CellKey, Dict[str, object]]] = None,
        dropped_records: int = 0,
        segment_index: int = 1,
    ):
        self.directory = directory
        self.fingerprint = fingerprint
        #: Cell outcomes recovered on resume, keyed by (model, property).
        self.completed: Dict[CellKey, Dict[str, object]] = dict(completed or {})
        #: Torn/garbage lines skipped during replay (observability only).
        self.dropped_records = dropped_records
        self._lock = threading.RLock()
        self._segment_index = segment_index
        self._part_path = os.path.join(
            directory, f"segment-{segment_index:06d}.jsonl.part"
        )
        self._handle = None  # opened lazily on first append
        self._closed = False

    # -- construction -------------------------------------------------

    @classmethod
    def start(cls, directory: str, plan: Dict[str, object]) -> "SweepJournal":
        """Open a fresh journal, discarding any previous one in ``directory``.

        A fresh (non-resume) sweep owns the directory: stale segments
        from an earlier plan must not survive to be replayed into a
        later ``--resume``.
        """
        os.makedirs(directory, exist_ok=True)
        for name in os.listdir(directory):
            if _SEGMENT_RE.match(name) or name in (PLAN_FILE, PLAN_FILE + ".tmp"):
                try:
                    os.unlink(os.path.join(directory, name))
                except OSError:
                    pass
        fingerprint = plan_fingerprint(plan)
        header = {
            "version": JOURNAL_VERSION,
            "fingerprint": fingerprint,
            "plan": plan,
        }
        _write_atomic(
            os.path.join(directory, PLAN_FILE),
            json.dumps(header, sort_keys=True, indent=2) + "\n",
        )
        return cls(directory, fingerprint)

    @classmethod
    def resume(cls, directory: str, plan: Dict[str, object]) -> "SweepJournal":
        """Reopen a journal, replaying completed cells from its segments.

        Raises:
            JournalError: no journal exists at ``directory``, or its
                header is unreadable.
            StaleJournalError: the journal was written for a different
                plan (models, corpora, sizes, seed, backend, or BLAS
                regime differ).
        """
        plan_path = os.path.join(directory, PLAN_FILE)
        try:
            with open(plan_path, "r", encoding="utf-8") as handle:
                header = json.load(handle)
        except FileNotFoundError:
            raise JournalError(
                f"no sweep journal at {directory!r} (missing {PLAN_FILE}); "
                "run without --resume to start one"
            ) from None
        except (OSError, json.JSONDecodeError) as exc:
            raise JournalError(
                f"unreadable sweep journal header {plan_path!r}: {exc}"
            ) from exc
        if not isinstance(header, dict) or "fingerprint" not in header:
            raise JournalError(
                f"malformed sweep journal header {plan_path!r}: no fingerprint"
            )
        if header.get("version") != JOURNAL_VERSION:
            raise JournalError(
                f"sweep journal {directory!r} has version "
                f"{header.get('version')!r}; this build reads version "
                f"{JOURNAL_VERSION}"
            )
        fingerprint = plan_fingerprint(plan)
        if header["fingerprint"] != fingerprint:
            raise StaleJournalError(
                f"journal at {directory!r} was written for a different sweep "
                f"plan (journal fingerprint {header['fingerprint'][:12]}…, "
                f"requested {fingerprint[:12]}…); models, corpora, sizes, "
                "seed, backend, or BLAS regime changed — start a fresh "
                "journal instead"
            )
        completed, dropped = _replay_segments(directory)
        next_index = _next_segment_index(directory)
        return cls(
            directory,
            fingerprint,
            completed=completed,
            dropped_records=dropped,
            segment_index=next_index,
        )

    # -- appends ------------------------------------------------------

    def record_planned(self, cells: Sequence[CellKey]) -> None:
        """Journal the session's dispatch plan (the write-ahead half)."""
        self._append(
            {
                "type": "planned",
                "cells": [[m, p] for m, p in cells],
            }
        )

    def record_cell(
        self, model_name: str, property_name: str, cell: Dict[str, object]
    ) -> None:
        """Journal one completed cell outcome (lossless jsonable form)."""
        record = {
            "type": "cell",
            "model": model_name,
            "property": property_name,
            "cell": cell,
        }
        self._append(record)
        with self._lock:
            self.completed.setdefault((model_name, property_name), cell)

    def record_failure(self, failure: Dict[str, object]) -> None:
        """Journal a degraded cell (audit only — retried on resume)."""
        self._append({"type": "failure", "failure": failure})

    def _append(self, record: Dict[str, object]) -> None:
        line = json.dumps(
            {"r": record, "d": record_digest(record)},
            sort_keys=True,
            separators=(",", ":"),
        )
        with self._lock:
            if self._closed:
                raise JournalError("sweep journal is closed")
            try:
                if self._handle is None:
                    self._handle = open(self._part_path, "a", encoding="utf-8")
                self._handle.write(line + "\n")
                self._handle.flush()
                os.fsync(self._handle.fileno())
            except OSError as exc:
                # A journal that cannot persist progress is a sweep
                # failure, not an I/O detail: surface it typed so abort
                # mode stops before claiming durability it doesn't have.
                raise JournalError(
                    f"cannot append to sweep journal {self._part_path!r}: {exc}"
                ) from exc

    # -- lifecycle ----------------------------------------------------

    def flush(self) -> None:
        """Force buffered records to disk (safe from signal handlers)."""
        with self._lock:
            if self._handle is not None and not self._closed:
                self._handle.flush()
                os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Seal the active segment (rename ``.part`` → ``.jsonl``).

        Idempotent.  A session that appended nothing leaves no segment.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._handle is not None:
                try:
                    self._handle.flush()
                    os.fsync(self._handle.fileno())
                    self._handle.close()
                    sealed = self._part_path[: -len(".part")]
                    os.replace(self._part_path, sealed)
                except OSError as exc:
                    raise JournalError(
                        f"cannot seal sweep journal segment "
                        f"{self._part_path!r}: {exc}"
                    ) from exc
                finally:
                    self._handle = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _segment_paths(directory: str) -> List[str]:
    """Sealed and unsealed segments in index order (crash tails last-equal)."""
    found: List[Tuple[int, str]] = []
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    for name in names:
        match = _SEGMENT_RE.match(name)
        if match:
            found.append((int(match.group(1)), os.path.join(directory, name)))
    found.sort()
    return [path for _, path in found]


def _next_segment_index(directory: str) -> int:
    indices = [
        int(_SEGMENT_RE.match(os.path.basename(p)).group(1))
        for p in _segment_paths(directory)
    ]
    return (max(indices) + 1) if indices else 1


def iter_records(
    directory: str, *, on_drop: Optional[Callable[[str], None]] = None
) -> Iterator[Dict[str, object]]:
    """Yield digest-verified records from every segment, in append order.

    The public replay seam: sealed and unsealed (``.part``) segments are
    read alike, torn tails and garbage lines are skipped individually
    (``on_drop`` is called with the offending line when given), and
    first-record-wins dedup is the *caller's* concern — this yields the
    raw verified stream.  Safe to call while a journal is still
    appending: every append is fsynced, so a concurrent read only ever
    lags by in-flight records.  Both the sweep journal's resume and the
    service's request journal / live cell streaming are built on it.
    """
    for path in _segment_paths(directory):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lines: Iterable[str] = handle.readlines()
        except OSError:
            continue
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                envelope = json.loads(line)
                record = envelope["r"]
                if envelope["d"] != record_digest(record):
                    raise ValueError("digest mismatch")
            except (ValueError, KeyError, TypeError):
                if on_drop is not None:
                    on_drop(line)  # torn tail or garbage — skip this line
                continue
            if isinstance(record, dict):
                yield record


def _replay_segments(
    directory: str,
) -> Tuple[Dict[CellKey, Dict[str, object]], int]:
    """Recover completed-cell outcomes; count (don't fail on) bad lines."""
    completed: Dict[CellKey, Dict[str, object]] = {}
    dropped = 0

    def _count(_line: str) -> None:
        nonlocal dropped
        dropped += 1

    for record in iter_records(directory, on_drop=_count):
        if record.get("type") == "cell":
            key = (record["model"], record["property"])
            completed.setdefault(key, record["cell"])
    return completed, dropped
