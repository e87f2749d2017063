"""The always-on characterization service: request, index, durability planes.

:class:`CharacterizationService` turns the one-shot library into a
long-running server (``repro serve``).  It owns exactly one
:class:`~repro.core.framework.Observatory` — so every client request
shares the fingerprint-keyed embedding cache, the model registry, and
the backend numerics — and mounts four planes on the shared HTTP plane
(:class:`~repro.service.http.HttpPlane`):

**Request plane.**  ``POST /v1/characterize`` submits a (models ×
properties) characterization.  Admission is a *bounded* queue: when it
is full the service answers a typed 429 with ``Retry-After``
(:class:`~repro.errors.ServiceOverloadedError`) instead of queueing
unboundedly or hanging.  Jobs are identified by a fingerprint over the
canonical request payload, so identical concurrent submissions join one
run, and exact repeats are answered straight from the bounded result
cache, unchanged and without touching the runtime.
Results stream incrementally: every job writes a per-job write-ahead
sweep journal, and ``GET /v1/jobs/{id}/stream`` tails it, emitting one
NDJSON record per completed :class:`~repro.runtime.sweep.SweepCell` the
moment it is durable, then a summary.  ``--request-deadline`` bounds
each job's wall clock through the sweep's
:class:`~repro.runtime.faults.FaultPolicy`.

**Encode plane.**  ``POST /encode`` mounts the remote-encoder wire
protocol (:class:`~repro.service.encode.EncoderPool`), so a served
instance doubles as an encoder-fleet replica for
:class:`~repro.models.backends.remote.RemoteBackend` clients.

**Index plane.**  ``/v1/index/*`` serves the persistent columnar
joinability index (:class:`~repro.index.ColumnIndex`): create, online
append, and top-k query with the library's pruning modes and their
guarantees intact (``prune=off`` stays oracle-identical — the service
only routes, it never re-ranks).  Open handles are shared across
requests and **generation-checked**: before use, the handle's
generation is compared against the on-disk manifest and the index is
reopened if another writer advanced it.  ``POST /v1/tables`` uploads a
table (plain columnar JSON) that index append/query can then embed
server-side through the shared executor cache.

**Durability plane.**  Accepted requests are journaled
(:class:`~repro.service.journal.RequestJournal`, the PR 9 write-ahead
segment format) *before* the 202 is sent.  A service killed mid-request
and restarted over the same ``--state-dir`` re-enqueues every
accepted-but-unfinished request and *resumes* its per-job sweep journal
— finished cells replay, only the remainder recomputes.  A journal
written for another plan (another BLAS regime, say) is discarded and
the job recomputes from scratch, so no result mixes two regimes' bits.

Characterization sweeps are pinned to ``execution="thread"``: a service
multiplexing many small requests wants the shared in-memory cache fast
path, not per-request process pools (``$REPRO_SWEEP_EXECUTION`` does not
apply to served sweeps).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import queue
import tempfile
import threading
import time
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.errors import (
    RequestJournalError,
    ServiceError,
    ServiceOverloadedError,
    StaleJournalError,
    TableError,
)
from repro.models.blas import blas_regime
from repro.relational.table import Table
from repro.runtime.faults import FaultPolicy
from repro.runtime.journal import PLAN_FILE, iter_records
from repro.service.encode import EncoderPool
from repro.service.http import HttpPlane, WireRequest, WireResponse
from repro.service.journal import RequestJournal

# Seconds between journal polls while streaming a live job.
STREAM_POLL = 0.05


@dataclasses.dataclass
class ServiceConfig:
    """Tunables of the characterization service.

    Attributes:
        host/port: bind address (port 0 picks a free port).
        queue_limit: admission-queue bound; submissions past it get a
            typed 429 with ``Retry-After: retry_after``.
        runners: job-runner threads draining the admission queue.
        sweep_workers: worker-pool size of each served sweep (``None`` =
            the runtime default).  A value below 1 is rejected when the
            service is built.
        cache_size: result-cache entries kept (LRU past it).
        state_dir: durability root — the request journal lives at
            ``state_dir/requests`` and per-job sweep journals under
            ``state_dir/jobs/<id>``.  ``None`` uses a fresh temporary
            directory (still journaled, but not restart-durable by
            construction — pass a real directory to survive kills).
        request_deadline: per-job wall-clock bound in seconds, enforced
            through the sweep's :class:`FaultPolicy`; ``None`` = unbounded.
            A non-positive value is rejected when the service is built.
        retry_after: seconds advertised on 429 responses.
    """

    host: str = "127.0.0.1"
    port: int = 0
    queue_limit: int = 8
    runners: int = 2
    sweep_workers: Optional[int] = None
    cache_size: int = 32
    state_dir: Optional[str] = None
    request_deadline: Optional[float] = None
    retry_after: float = 0.5


@dataclasses.dataclass
class _Job:
    """One accepted characterization request and its lifecycle."""

    id: str
    payload: Dict[str, object]
    journal_dir: str
    status: str = "queued"  # queued | running | done | failed
    result: Optional[Dict[str, object]] = None
    error: str = ""
    error_type: str = ""
    done: threading.Event = dataclasses.field(default_factory=threading.Event)
    replayed_request: bool = False


def _job_fingerprint(payload: Dict[str, object]) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class CharacterizationService:
    """The served Observatory (see module doc).

    ::

        service = CharacterizationService(observatory).start()
        client = ServiceClient(service.url)
        result = client.characterize(["bert"], ["row_order_insignificance"])
        service.close()
    """

    def __init__(self, observatory, *, config: Optional[ServiceConfig] = None):
        self._observatory = observatory
        self._config = config or ServiceConfig()
        try:
            self._fault_policy = FaultPolicy(deadline=self._config.request_deadline)
        except ValueError as error:
            raise ServiceError(f"request_deadline: {error}") from None
        workers = self._config.sweep_workers
        if workers is not None and workers < 1:
            raise ServiceError(f"sweep_workers must be a positive integer, got {workers!r}")
        self._state_dir = self._config.state_dir or tempfile.mkdtemp(
            prefix="repro-service-"
        )
        os.makedirs(self._state_dir, exist_ok=True)
        self._jobs_dir = os.path.join(self._state_dir, "jobs")
        os.makedirs(self._jobs_dir, exist_ok=True)
        self._journal = RequestJournal.open(os.path.join(self._state_dir, "requests"))

        self._lock = threading.RLock()
        self._jobs: Dict[str, _Job] = {}
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue(
            maxsize=max(1, self._config.queue_limit)
        )
        self._cache: Dict[str, Dict[str, object]] = {}
        self._cache_order: List[str] = []
        self.cache_hits = 0
        self.deduplicated = 0
        self.rejected = 0

        self._gate = threading.Event()
        self._gate.set()
        self._stop = threading.Event()
        self._runners: List[threading.Thread] = []

        self._pool = EncoderPool()
        self._tables: Dict[str, Table] = {}
        self._index_lock = threading.RLock()
        self._indexes: Dict[str, object] = {}
        self._index_reopens = 0

        self._plane = HttpPlane(
            self._config.host, self._config.port, name="repro-service"
        )
        self._mount_routes()

    # -- lifecycle -----------------------------------------------------

    def _mount_routes(self) -> None:
        plane = self._plane
        plane.route("GET", "/healthz", self._handle_health)
        plane.route("GET", "/v1/stats", self._handle_stats)
        plane.route("POST", "/encode", self._handle_encode)
        plane.route("POST", "/v1/characterize", self._handle_submit)
        plane.route("GET", "/v1/jobs/{job_id}", self._handle_job)
        plane.route("GET", "/v1/jobs/{job_id}/stream", self._handle_stream)
        plane.route("POST", "/v1/tables", self._handle_upload_table)
        plane.route("GET", "/v1/tables/{table_id}", self._handle_table)
        plane.route("POST", "/v1/index/create", self._handle_index_create)
        plane.route("POST", "/v1/index/append", self._handle_index_append)
        plane.route("POST", "/v1/index/query", self._handle_index_query)
        plane.route("GET", "/v1/index/info", self._handle_index_info)
        plane.route("POST", "/v1/admin/hold", self._handle_hold)
        plane.route("POST", "/v1/admin/release", self._handle_release)

    def start(self) -> "CharacterizationService":
        """Bind, start job runners, and replay journaled requests."""
        self._plane.start()
        for i in range(max(1, self._config.runners)):
            thread = threading.Thread(
                target=self._runner, name=f"repro-service-runner-{i}", daemon=True
            )
            thread.start()
            self._runners.append(thread)
        pending = dict(self._journal.pending)
        if pending:
            threading.Thread(
                target=self._replay_pending,
                args=(pending,),
                name="repro-service-replay",
                daemon=True,
            ).start()
        return self

    @property
    def url(self) -> str:
        return self._plane.url

    @property
    def state_dir(self) -> str:
        return self._state_dir

    def close(self) -> None:
        """Stop serving, drain runners, seal the request journal."""
        self._stop.set()
        self._gate.set()  # unblock runners parked on an admin hold
        for _ in self._runners:
            try:
                self._queue.put_nowait(None)
            except queue.Full:
                break
        for thread in self._runners:
            thread.join(timeout=5.0)
        self._runners = []
        self._plane.close()
        self._journal.close()

    def __enter__(self) -> "CharacterizationService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- request plane -------------------------------------------------

    def _handle_submit(self, request: WireRequest) -> WireResponse:
        payload = request.json()
        if not isinstance(payload, dict):
            raise ValueError("characterize request body must be a JSON object")
        models = payload.get("models")
        if not isinstance(models, list) or not models:
            raise ValueError(
                "characterize request needs a non-empty 'models' list"
            )
        properties = payload.get("properties")
        if properties is not None and not isinstance(properties, list):
            raise ValueError("'properties' must be a list when given")
        canonical: Dict[str, object] = {
            "models": [str(m) for m in models],
            "properties": (
                [str(p) for p in properties] if properties is not None else None
            ),
        }
        job_id = _job_fingerprint(canonical)
        with self._lock:
            cached = self._cache.get(job_id)
            if cached is not None:
                self._cache_order.remove(job_id)
                self._cache_order.append(job_id)
                self.cache_hits += 1
                return WireResponse(
                    payload={
                        "job_id": job_id,
                        "status": "done",
                        "cache_hit": True,
                        "result": cached,
                    }
                )
            existing = self._jobs.get(job_id)
            if existing is not None and existing.status in ("queued", "running"):
                self.deduplicated += 1
                return WireResponse(
                    status=202,
                    payload={
                        "job_id": job_id,
                        "status": existing.status,
                        "deduplicated": True,
                    },
                )
            job = _Job(
                id=job_id,
                payload=canonical,
                journal_dir=os.path.join(self._jobs_dir, job_id),
            )
            try:
                self._queue.put_nowait(job_id)
            except queue.Full:
                self.rejected += 1
                raise ServiceOverloadedError(
                    f"admission queue full ({self._config.queue_limit} "
                    f"requests queued); retry after "
                    f"{self._config.retry_after:g}s",
                    retry_after=self._config.retry_after,
                ) from None
            self._jobs[job_id] = job
        # Durability before acknowledgement: the 202 below promises the
        # request survives a kill, so the journal append (fsync'd) must
        # land first.  If it cannot, withdraw the job and fail typed.
        try:
            self._journal.record_request(job_id, canonical)
        except RequestJournalError:
            with self._lock:
                self._jobs.pop(job_id, None)
            raise
        return WireResponse(
            status=202, payload={"job_id": job_id, "status": "queued"}
        )

    def _handle_job(self, request: WireRequest) -> WireResponse:
        job_id = request.params["job_id"]
        wait = float(request.query.get("wait", "0") or 0)
        job = self._jobs.get(job_id)
        if job is None:
            with self._lock:
                cached = self._cache.get(job_id)
            if cached is not None:
                return WireResponse(
                    payload={"job_id": job_id, "status": "done", "result": cached}
                )
            return WireResponse(
                status=404, payload={"error": f"unknown job {job_id!r}"}
            )
        if wait > 0 and not job.done.is_set():
            job.done.wait(min(wait, 60.0))
        body: Dict[str, object] = {"job_id": job_id, "status": job.status}
        if job.status == "done":
            body["result"] = job.result
        elif job.status == "failed":
            body["error"] = job.error
            body["error_type"] = job.error_type
        return WireResponse(payload=body)

    def _handle_stream(self, request: WireRequest) -> WireResponse:
        job_id = request.params["job_id"]
        job = self._jobs.get(job_id)
        if job is None:
            with self._lock:
                cached = self._cache.get(job_id)
            if cached is None:
                return WireResponse(
                    status=404, payload={"error": f"unknown job {job_id!r}"}
                )
            return WireResponse(stream=self._stream_cached(job_id, cached))
        return WireResponse(stream=self._stream_job(job))

    def _stream_cached(
        self, job_id: str, cached: Dict[str, object]
    ) -> Iterator[Dict[str, object]]:
        cells = list(cached.get("cells") or [])
        for cell in cells:
            yield {
                "type": "cell",
                "model": cell["model"],
                "property": cell["property"],
                "cell": cell,
            }
        yield {
            "type": "summary",
            "job_id": job_id,
            "status": "done",
            "cells": len(cells),
            "cache_hit": True,
        }

    def _stream_job(self, job: _Job) -> Iterator[Dict[str, object]]:
        # The per-job sweep journal is the streaming substrate: every
        # completed cell is fsync'd there before the sweep proceeds, so
        # tailing it yields cells exactly as they become durable.
        seen = set()
        while True:
            finished = job.done.is_set()  # check BEFORE reading: a cell
            # journaled after this check is caught by the next (or final)
            # pass, never lost.
            for record in iter_records(job.journal_dir):
                if record.get("type") != "cell":
                    continue
                key = (record["model"], record["property"])
                if key in seen:
                    continue
                seen.add(key)
                yield {
                    "type": "cell",
                    "model": record["model"],
                    "property": record["property"],
                    "cell": record["cell"],
                }
            if finished:
                break
            time.sleep(STREAM_POLL)
        summary: Dict[str, object] = {
            "type": "summary",
            "job_id": job.id,
            "status": job.status,
            "cells": len(seen),
        }
        if job.status == "failed":
            summary["error"] = job.error
            summary["error_type"] = job.error_type
        elif job.result is not None:
            summary["failures"] = job.result.get("failures", [])
            summary["replayed"] = job.result.get("replayed", 0)
        yield summary

    # -- job runners ---------------------------------------------------

    def _runner(self) -> None:
        while not self._stop.is_set():
            try:
                job_id = self._queue.get(timeout=0.1)
            except queue.Empty:
                continue
            if job_id is None:
                return
            while not self._gate.is_set():  # admin hold: park, stay stoppable
                if self._stop.is_set():
                    return
                time.sleep(0.02)
            if self._stop.is_set():
                # close() releases the gate to unpark runners; a held job
                # must stay journaled-pending (replayed next start), not
                # sneak into execution during shutdown.
                return
            job = self._jobs.get(job_id)
            if job is not None:
                self._run_job(job)

    def _run_job(self, job: _Job) -> None:
        job.status = "running"
        resume = os.path.exists(os.path.join(job.journal_dir, PLAN_FILE))

        def run(resume: bool):
            return self._observatory.sweep(
                job.payload["models"],
                job.payload.get("properties"),
                max_workers=self._config.sweep_workers,
                execution="thread",  # pinned: see module doc
                on_error="degrade",
                journal_dir=job.journal_dir,
                resume=resume,
                fault_policy=self._fault_policy,
            )

        try:
            try:
                sweep = run(resume)
            except StaleJournalError:
                # Written for another plan (another BLAS regime, say): a
                # fresh journal replaces it and the job recomputes.
                sweep = run(False)
        except Exception as exc:  # noqa: BLE001 - job-scoped, reported typed
            job.error = str(exc)
            job.error_type = type(exc).__name__
            job.status = "failed"
        else:
            job.result = self._result_payload(sweep)
            job.status = "done"
            with self._lock:
                self._cache[job.id] = job.result
                self._cache_order.append(job.id)
                while len(self._cache_order) > max(1, self._config.cache_size):
                    evicted = self._cache_order.pop(0)
                    self._cache.pop(evicted, None)
        try:
            self._journal.record_done(job.id, status=job.status)
        except RequestJournalError as exc:
            # The result stands; only restart-dedup is degraded.  Note it
            # on the job rather than failing a finished request.
            job.error = job.error or f"request journal append failed: {exc}"
        finally:
            job.done.set()

    @staticmethod
    def _result_payload(sweep) -> Dict[str, object]:
        return {
            "cells": [cell.to_jsonable() for cell in sweep.cells],
            "failures": [failure.to_jsonable() for failure in sweep.failures],
            "skipped": [dataclasses.asdict(skip) for skip in sweep.skipped],
            "replayed": sweep.replayed,
            "seconds": sweep.seconds,
            "workers": sweep.workers,
            "execution": sweep.execution,
            "backend": sweep.backend,
        }

    def _replay_pending(self, pending: Dict[str, Dict[str, object]]) -> None:
        """Re-enqueue accepted-but-unfinished requests from the journal.

        Runs on a daemon thread so a replay backlog larger than the
        admission queue drains as runners free slots, without blocking
        startup or live traffic admission ordering.
        """
        for job_id, payload in pending.items():
            with self._lock:
                if job_id in self._jobs or job_id in self._cache:
                    continue
                job = _Job(
                    id=job_id,
                    payload=payload,
                    journal_dir=os.path.join(self._jobs_dir, job_id),
                    replayed_request=True,
                )
                self._jobs[job_id] = job
            while not self._stop.is_set():
                try:
                    self._queue.put(job_id, timeout=0.2)
                    break
                except queue.Full:
                    continue

    # -- encode plane --------------------------------------------------

    def _handle_encode(self, request: WireRequest) -> Dict[str, object]:
        return self._pool.encode_request(request.json())

    # -- table uploads -------------------------------------------------

    def _handle_upload_table(self, request: WireRequest) -> Dict[str, object]:
        payload = request.json()
        if not isinstance(payload, dict):
            raise ValueError("table upload body must be a JSON object")
        table_id = str(payload.get("table_id") or "")
        if not table_id:
            raise ValueError("table upload needs a 'table_id'")
        columns = payload.get("columns")
        if not isinstance(columns, list) or not columns:
            raise ValueError(
                "table upload needs 'columns': a list of [header, values] pairs"
            )
        named = []
        for entry in columns:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ValueError("each column is a [header, values] pair")
            header, values = entry
            if not isinstance(values, list):
                raise ValueError(f"column {header!r} values must be a list")
            named.append((str(header), list(values)))
        table = Table.from_columns(
            named, caption=str(payload.get("caption", "")), table_id=table_id
        )
        with self._lock:
            self._tables[table_id] = table
        return {
            "table_id": table_id,
            "rows": table.num_rows,
            "columns": table.num_columns,
        }

    def _handle_table(self, request: WireRequest) -> Dict[str, object]:
        table = self._uploaded_table(request.params["table_id"])
        return {
            "table_id": table.table_id,
            "caption": table.caption,
            "header": list(table.header),
            "rows": table.num_rows,
            "columns": table.num_columns,
        }

    def _uploaded_table(self, table_id: str) -> Table:
        with self._lock:
            table = self._tables.get(table_id)
        if table is None:
            raise TableError(f"no uploaded table {table_id!r}")
        return table

    def _embed_table_columns(self, table: Table, model: str):
        executor = self._observatory.executor(model)
        named = [
            (header, [row[i] for row in table.rows])
            for i, header in enumerate(table.header)
        ]
        return [
            (f"{table.table_id}::{header}", emb)
            for (header, _values), emb in zip(
                named, executor.embed_value_columns(named)
            )
        ]

    # -- index plane ---------------------------------------------------

    def _manifest_generation(self, directory: str) -> Optional[int]:
        from repro.index.store import MANIFEST_NAME

        try:
            with open(
                os.path.join(directory, MANIFEST_NAME), "r", encoding="utf-8"
            ) as handle:
                return int(json.load(handle).get("generation"))
        except (OSError, ValueError, TypeError, json.JSONDecodeError):
            return None

    def _index_handle(self, directory: str):
        """Shared, generation-checked open handle for ``directory``.

        A handle opened by an earlier request is reused only while its
        generation matches the on-disk manifest; another writer bumping
        the manifest (including this service's own append route) forces
        a reopen, so queries never serve a stale shard view.
        """
        from repro.index import ColumnIndex

        directory = os.path.abspath(directory)
        with self._index_lock:
            handle = self._indexes.get(directory)
            if handle is not None:
                disk_generation = self._manifest_generation(directory)
                if (
                    disk_generation is not None
                    and handle.generation != disk_generation
                ):
                    handle = ColumnIndex.open(directory)
                    self._indexes[directory] = handle
                    self._index_reopens += 1
                return handle
            handle = ColumnIndex.open(directory)
            self._indexes[directory] = handle
            return handle

    def _index_directory(self, payload: Dict[str, object]) -> str:
        directory = str(payload.get("directory") or "")
        if not directory:
            raise ValueError("index request needs a 'directory'")
        return directory

    def _handle_index_create(self, request: WireRequest) -> Dict[str, object]:
        from repro.index import ColumnIndex

        payload = request.json()
        directory = os.path.abspath(self._index_directory(payload))
        dim = int(payload.get("dim") or 0)
        if dim < 1:
            raise ValueError("index create needs a positive 'dim'")
        with self._index_lock:
            handle = ColumnIndex(directory, dim=dim, create=True)
            self._indexes[directory] = handle
            return handle.describe()

    def _handle_index_append(self, request: WireRequest) -> Dict[str, object]:
        payload = request.json()
        directory = self._index_directory(payload)
        with self._index_lock:
            handle = self._index_handle(directory)
            if payload.get("table_id") is not None:
                table = self._uploaded_table(str(payload["table_id"]))
                model = str(payload.get("model") or "t5")
                items = self._embed_table_columns(table, model)
            else:
                entries = payload.get("entries")
                if not isinstance(entries, list) or not entries:
                    raise ValueError(
                        "index append needs 'entries' ([{key, vector}, ...]) "
                        "or a 'table_id'"
                    )
                items = [
                    (
                        str(entry["key"]),
                        np.asarray(entry["vector"], dtype=np.float64),
                    )
                    for entry in entries
                ]
            known = set(handle.keys()) if len(handle) else set()
            added = handle.append_many(
                (key, emb) for key, emb in items if key not in known
            )
            return {
                "directory": os.path.abspath(directory),
                "appended": added,
                "rows": len(handle),
                "generation": handle.generation,
            }

    def _handle_index_query(self, request: WireRequest) -> Dict[str, object]:
        payload = request.json()
        directory = self._index_directory(payload)
        k = int(payload.get("k", 5))
        prune = str(payload.get("prune", "off"))
        if payload.get("vector") is not None:
            embedding = np.asarray(payload["vector"], dtype=np.float64)
        elif payload.get("table_id") is not None:
            table = self._uploaded_table(str(payload["table_id"]))
            column = str(payload.get("column") or "")
            if column not in table.header:
                raise ValueError(
                    f"table {table.table_id!r} has no column {column!r}"
                )
            model = str(payload.get("model") or "t5")
            items = self._embed_table_columns(table, model)
            embedding = dict(items)[f"{table.table_id}::{column}"]
        else:
            raise ValueError("index query needs a 'vector' or a 'table_id'+'column'")
        with self._index_lock:
            handle = self._index_handle(directory)
            hits = handle.query(embedding, k, prune=prune)
            return {
                "directory": os.path.abspath(directory),
                "k": k,
                "prune": prune,
                "generation": handle.generation,
                "hits": [{"key": key, "score": score} for key, score in hits],
            }

    def _handle_index_info(self, request: WireRequest) -> Dict[str, object]:
        directory = request.query.get("dir") or request.query.get("directory")
        if not directory:
            raise ValueError("index info needs a ?dir= query parameter")
        with self._index_lock:
            handle = self._index_handle(directory)
            info = handle.describe()
            info["open_handles"] = len(self._indexes)
            info["handle_reopens"] = self._index_reopens
            return info

    # -- admin / observability -----------------------------------------

    def _handle_hold(self, request: WireRequest) -> Dict[str, object]:
        self._gate.clear()
        return {"held": True}

    def _handle_release(self, request: WireRequest) -> Dict[str, object]:
        self._gate.set()
        return {"held": False}

    def _job_counts(self) -> Dict[str, int]:
        counts = {"queued": 0, "running": 0, "done": 0, "failed": 0}
        with self._lock:
            for job in self._jobs.values():
                counts[job.status] = counts.get(job.status, 0) + 1
        return counts

    def _handle_health(self, request: WireRequest) -> Dict[str, object]:
        return {
            "ok": True,
            "queue_depth": self._queue.qsize(),
            "queue_limit": self._config.queue_limit,
            "held": not self._gate.is_set(),
            "jobs": self._job_counts(),
        }

    def _handle_stats(self, request: WireRequest) -> Dict[str, object]:
        return self.stats_snapshot()

    def stats_snapshot(self) -> Dict[str, object]:
        """The ``/v1/stats`` payload, callable in-process (CLI shutdown note)."""
        with self._lock:
            cache_entries = len(self._cache)
            tables = len(self._tables)
        return {
            "jobs": self._job_counts(),
            "queue_depth": self._queue.qsize(),
            "queue_limit": self._config.queue_limit,
            "held": not self._gate.is_set(),
            "cache": {
                "entries": cache_entries,
                "limit": self._config.cache_size,
                "hits": self.cache_hits,
            },
            "deduplicated": self.deduplicated,
            "rejected": self.rejected,
            "encode_requests": self._pool.requests_served,
            "tables": tables,
            "index": {
                "open_handles": len(self._indexes),
                "reopens": self._index_reopens,
            },
            "replayed_requests": sum(
                1 for job in self._jobs.values() if job.replayed_request
            ),
            "state_dir": self._state_dir,
            "backend": self._observatory.backend_description(),
            "blas": blas_regime(),
        }


__all__ = ["CharacterizationService", "ServiceConfig"]
