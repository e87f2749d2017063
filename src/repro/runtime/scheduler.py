"""Group scheduler: the ``execution="process"`` engine.

Handing each worker one fixed shard of the cell order up front would
bound every sweep by its unluckiest shard: a ``heterogeneous_context``
cell costs ~3x a shuffle cell, and a fleet
:class:`~repro.models.backends.remote.RemoteBackend` adds per-replica
latency variance on top.  This module dispatches dynamically instead:

- **Corpus-affinity work groups** — consecutive cells of the cache-aware
  order (:func:`repro.runtime.sweep.order_cells`) sharing a (model,
  corpus) pair form one :class:`WorkGroup`.  Groups, not cells, are the
  unit of dispatch, so each one lands on a worker with its
  warm-memory-tier locality intact.  Groups are handed out in that same
  order, the one the thread engine runs and the journal plans.
- **Persistent pulling workers** — spawned once, workers pull groups
  from the parent dispatcher until the queue drains, so a worker that
  lands short groups simply pulls more instead of idling behind a fixed
  shard.
- **One dispatch per group** — a group runs again only when its worker
  dies.  A stuck worker is bounded by the sweep deadline, which the
  dispatch loop checks on every poll before it terminates the worker.
- **Crash salvage** — a dead worker loses only its in-flight group,
  which is re-queued on the survivors under a bounded retry budget;
  completed groups are never discarded.  A group that keeps killing
  workers is reported as poisoned, naming its cells.

Isolation contract: workers never receive pickled encoders or datasets.
The payload is plain configuration (seed, :class:`DatasetSizes`,
:class:`RuntimeConfig`) and each **spawned** worker rebuilds its own
Observatory, models and corpora from it; only configuration crosses in
and results cross out (token sequences never ship raw: piece ids are
process-local interner state).  The only shared state is the on-disk
cache tier (``RuntimeConfig.disk_cache_dir``), whose atomic writes and
locked index make concurrent workers safe.

Determinism contract: the scheduler changes *wall-clock*, never
*numbers*.  Workers run each cell through the thread engine's own
:func:`~repro.runtime.sweep.run_cell`, and results are bit-identical to
``execution="thread"`` — the reference engine — for any worker count
and any crash interleaving; ``tests/test_runtime_scheduler.py``
locks this in.

The dispatch loop (:class:`GroupScheduler`) is transport-agnostic: it
drives anything satisfying the small worker-handle protocol (``send`` /
``is_alive`` / ``join`` / ``terminate`` plus a fan-in result channel
with ``get(timeout)``).  Production workers are spawned processes
(:class:`WorkStealingSweep`) reporting over per-worker pipes — never a
shared queue, whose feeder-thread write lock a hard-dying worker can
leak, wedging every survivor (see :class:`_FanInResults`).  The
Hypothesis suite drives the same loop with in-process fake workers to
explore crash interleavings cheaply.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import multiprocessing.connection
import os
import queue as queue_module
import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    CellPoisonedError,
    DeadlineExceededError,
    ObservatoryError,
    WorkerCrashError,
)
from repro.runtime.faults import Deadline
from repro.runtime.sweep import PROPERTY_CORPUS, CellFailure, SweepCell, run_cell
from repro.telemetry import Counters

_DEFAULT_PROCESS_CAP = 4

# Fault-injection hook for the crash regression tests.  Read once per
# spawned worker; unset (the default) it is inert.
#   REPRO_SCHEDULER_TEST_CRASH="worker:<id>"        -> worker <id> dies
#       (os._exit) at the start of its first group.
#   REPRO_SCHEDULER_TEST_CRASH="cell:<model>/<prop>" -> any worker dies
#       when it reaches that cell (the poisoned-cell scenario).
CRASH_ENV = "REPRO_SCHEDULER_TEST_CRASH"


@dataclasses.dataclass
class ShardOutcome:
    """What the parent gets back from the process engine (pre-ordering).

    ``counters`` merges the workers' latest counter snapshots by kind;
    ``scheduler`` carries the per-worker busy/idle telemetry
    (:class:`SchedulerTelemetry`); ``failures`` carries degraded cells
    (:class:`~repro.runtime.sweep.CellFailure`) under
    ``on_error="degrade"``.
    """

    cells: List[SweepCell]
    workers: int
    counters: Dict[str, Counters] = dataclasses.field(default_factory=dict)
    scheduler: Optional[SchedulerTelemetry] = None
    failures: List[CellFailure] = dataclasses.field(default_factory=list)


# ----------------------------------------------------------------------
# Work groups
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class WorkGroup:
    """One dispatch unit: consecutive cells sharing a (model, corpus) pair."""

    group_id: int
    model_name: str
    corpus: str
    cells: Tuple[Tuple[str, str], ...]

    def __len__(self) -> int:
        return len(self.cells)


def build_groups(cells: Sequence[Tuple[str, str]]) -> List[WorkGroup]:
    """Cut the cache-aware cell order into corpus-affinity work groups.

    Consecutive cells with the same model *and* the same dataset corpus
    (:data:`~repro.runtime.sweep.PROPERTY_CORPUS`) join one group, so
    dispatch moves the whole warm-locality run, never splits it.
    Concatenating the groups in ``group_id`` order reproduces the input
    order exactly — that is what keeps merged results deterministic.
    """
    groups: List[WorkGroup] = []
    current: List[Tuple[str, str]] = []
    current_key: Optional[Tuple[str, str]] = None
    for model_name, property_name in cells:
        key = (model_name, PROPERTY_CORPUS.get(property_name, property_name))
        if key != current_key and current:
            groups.append(
                WorkGroup(len(groups), current_key[0], current_key[1], tuple(current))
            )
            current = []
        current_key = key
        current.append((model_name, property_name))
    if current:
        groups.append(
            WorkGroup(len(groups), current_key[0], current_key[1], tuple(current))
        )
    return groups


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------


@dataclasses.dataclass
class WorkerTelemetry:
    """Busy/idle accounting for one scheduler worker."""

    worker_id: int
    groups: int = 0
    cells: int = 0
    busy_seconds: float = 0.0
    idle_seconds: float = 0.0
    crashed: bool = False

    @property
    def busy_fraction(self) -> float:
        total = self.busy_seconds + self.idle_seconds
        return self.busy_seconds / total if total > 0 else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {**dataclasses.asdict(self), "busy_fraction": self.busy_fraction}


@dataclasses.dataclass
class SchedulerTelemetry:
    """What the dispatch loop observed: per-worker counters + event log."""

    groups: int = 0
    workers: List[WorkerTelemetry] = dataclasses.field(default_factory=list)
    crashes: int = 0  # workers that died
    salvaged_groups: int = 0  # crashed in-flight groups re-queued
    dispatch_log: List[Dict[str, object]] = dataclasses.field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {**dataclasses.asdict(self), "workers": [w.to_dict() for w in self.workers]}


@dataclasses.dataclass
class SchedulerRun:
    """Outcome of one :meth:`GroupScheduler.run`.

    ``payloads`` maps ``group_id`` to the worker payload that completed
    it; ``snapshots`` keeps each worker's latest cumulative payload, the
    one stats merging reads.  ``failures`` maps ``group_id`` to the
    typed error that degraded it (poisoned group, expired deadline) —
    populated only under ``on_error="degrade"``; ``"abort"`` raises
    instead.
    """

    payloads: Dict[int, object]
    snapshots: Dict[int, object]
    telemetry: SchedulerTelemetry
    failures: Dict[int, ObservatoryError] = dataclasses.field(default_factory=dict)


# ----------------------------------------------------------------------
# Dispatch loop
# ----------------------------------------------------------------------


class GroupScheduler:
    """Transport-agnostic dispatch loop: each group goes to one worker.

    Drives worker *handles* — anything with ``worker_id``, ``send(msg)``,
    ``is_alive()``, ``join(timeout)``, and ``terminate()`` — plus one
    fan-in result channel (``get(timeout)`` -> message, raising
    :class:`queue.Empty` on timeout).  The wire protocol:

    - worker -> parent: ``("ready", worker_id)`` once its state is built;
      ``("done", worker_id, group_id, busy_seconds, payload)`` per group.
    - parent -> worker: ``("run", group_id, cells)`` and ``("stop",)``.

    A worker that stops being alive without having been sent ``stop`` is
    a crash: its in-flight group re-queues, bounded by ``max_retries``
    extra attempts.  That is the only way a group is dispatched twice.
    Workers with nothing to pull stay parked (not stopped) until every
    group completes, so a late crash still finds survivors.

    Fault handling: under ``on_error="abort"`` (default) a poisoned
    group or expired ``deadline`` raises the typed error; under
    ``"degrade"`` the group is recorded on ``SchedulerRun.failures`` and
    the loop keeps dispatching the rest.  The deadline also bounds a
    stuck worker: the loop checks it on every poll, and shutdown
    terminates a worker that outlives its join.  Every worker dying is
    total failure either way (:class:`~repro.errors.WorkerCrashError`) —
    nothing could make progress, so the caller's resume path is the
    recovery, not a degraded result.  ``on_group_done`` fires with
    ``(group, payload)`` the moment a group's payload lands — the
    write-ahead journal's incremental-persistence hook; an error it
    raises ends the run.
    """

    def __init__(
        self,
        groups: Sequence[WorkGroup],
        *,
        max_retries: int = 2,
        poll_interval: float = 0.05,
        join_timeout: float = 1.0,
        on_error: str = "abort",
        deadline: Optional[Deadline] = None,
        on_group_done=None,
    ):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if on_error not in ("abort", "degrade"):
            raise ValueError(f"on_error must be 'abort' or 'degrade', got {on_error!r}")
        self.groups = list(groups)
        self.max_retries = max_retries
        self.poll_interval = poll_interval
        self.join_timeout = join_timeout
        self.on_error = on_error
        self.deadline = deadline if deadline is not None else Deadline(None)
        self.on_group_done = on_group_done

    def run(self, handles: Sequence[object], results) -> SchedulerRun:
        if not self.groups:
            return SchedulerRun({}, {}, SchedulerTelemetry())
        if not handles:
            raise ObservatoryError("scheduler needs at least one worker")
        telemetry = SchedulerTelemetry(groups=len(self.groups))
        worker_stats = {h.worker_id: WorkerTelemetry(h.worker_id) for h in handles}
        telemetry.workers = [worker_stats[h.worker_id] for h in handles]

        pending = deque(self.groups)
        live = {h.worker_id: h for h in handles}
        idle: set = set()  # ready workers with nothing to pull right now
        ready_at: Dict[int, float] = {}
        finished_at: Dict[int, float] = {}
        # worker_id -> (group, dispatched_at, log_entry)
        in_flight: Dict[int, Tuple[WorkGroup, float, Dict[str, object]]] = {}
        payloads: Dict[int, object] = {}
        snapshots: Dict[int, object] = {}
        failed: Dict[int, ObservatoryError] = {}  # degraded groups
        attempts = {g.group_id: 0 for g in self.groups}  # crash retries used

        def settled() -> int:
            return len(payloads) + len(failed)

        def dispatch(worker_id: int) -> None:
            """Hand ``worker_id`` its next group, or park it."""
            if not pending:
                idle.add(worker_id)
                return
            group = pending.popleft()
            entry = {
                "group": group.group_id,
                "worker": worker_id,
                "model": group.model_name,
                "corpus": group.corpus,
                "cells": len(group.cells),
                "outcome": "in_flight",
                "seconds": None,
            }
            telemetry.dispatch_log.append(entry)
            in_flight[worker_id] = (group, time.perf_counter(), entry)
            live[worker_id].send(("run", group.group_id, group.cells))

        def wake_idle() -> None:
            while pending and idle:
                worker_id = idle.pop()
                dispatch(worker_id)

        def reap_crashes() -> None:
            for worker_id, handle in list(live.items()):
                if handle.is_alive():
                    continue
                del live[worker_id]
                idle.discard(worker_id)
                finished_at[worker_id] = time.perf_counter()
                worker_stats[worker_id].crashed = True
                telemetry.crashes += 1
                entry = in_flight.pop(worker_id, None)
                if entry is not None:
                    group, _, log_entry = entry
                    log_entry["outcome"] = "crashed"
                    attempts[group.group_id] += 1
                    if attempts[group.group_id] > self.max_retries:
                        error = CellPoisonedError(
                            f"sweep group {group.group_id} poisoned: crashed "
                            f"{attempts[group.group_id]} worker(s) (retry "
                            f"budget {self.max_retries}); cells "
                            + ", ".join(f"{m}/{p}" for m, p in group.cells)
                        )
                        if self.on_error == "degrade":
                            # The group becomes a named failure; the rest
                            # of the sweep keeps running.
                            log_entry["outcome"] = "poisoned"
                            failed[group.group_id] = error
                        else:
                            raise error  # the finally clause shuts workers down
                    else:
                        telemetry.salvaged_groups += 1
                        # Back of the queue: a group that just killed a
                        # worker may kill the next one too, so the groups
                        # never tried run first.  At the front it could
                        # reach a worker that posts "ready" after the
                        # crash, kill it as well, and leave every healthy
                        # group undispatched.
                        pending.append(group)
                if not live and settled() < len(self.groups):
                    missing = [
                        g
                        for g in self.groups
                        if g.group_id not in payloads and g.group_id not in failed
                    ]
                    # Total failure even under degrade: with no workers
                    # left nothing can progress, and the caller's
                    # journal+resume path is the recovery.
                    raise WorkerCrashError(
                        "every sweep worker died; "
                        f"{len(payloads)}/{len(self.groups)} groups were "
                        "salvaged before the last crash; unfinished cells: "
                        + ", ".join(
                            f"{m}/{p}" for g in missing for m, p in g.cells
                        )
                    )
                wake_idle()

        try:
            while settled() < len(self.groups):
                if self.deadline.expired():
                    error = DeadlineExceededError(
                        "fault-policy deadline exceeded with "
                        f"{len(self.groups) - settled()}/{len(self.groups)} "
                        "sweep groups unfinished"
                    )
                    if self.on_error != "degrade":
                        raise error  # the finally clause shuts workers down
                    for group in self.groups:
                        if group.group_id not in payloads and group.group_id not in failed:
                            failed[group.group_id] = error
                    break
                try:
                    message = results.get(timeout=self.poll_interval)
                except queue_module.Empty:
                    reap_crashes()
                    continue
                kind = message[0]
                worker_id = message[1]
                if worker_id not in live:
                    # Late message from a worker already reaped/terminated.
                    continue
                if kind == "ready":
                    ready_at[worker_id] = time.perf_counter()
                    dispatch(worker_id)
                elif kind == "done":
                    _, worker_id, group_id, busy_seconds, payload = message
                    group, dispatched_at, log_entry = in_flight.pop(worker_id)
                    stats = worker_stats[worker_id]
                    stats.groups += 1
                    stats.cells += len(group.cells)
                    stats.busy_seconds += busy_seconds
                    snapshots[worker_id] = payload
                    log_entry["seconds"] = time.perf_counter() - dispatched_at
                    log_entry["outcome"] = "won"
                    payloads[group_id] = payload
                    if self.on_group_done is not None:
                        self.on_group_done(group, payload)
                    dispatch(worker_id)
        finally:
            self._shutdown(live, in_flight)
        end = time.perf_counter()
        for worker_id, stats in worker_stats.items():
            started = ready_at.get(worker_id)
            if started is not None:
                wall = finished_at.get(worker_id, end) - started
                stats.idle_seconds = max(0.0, wall - stats.busy_seconds)
        return SchedulerRun(payloads, snapshots, telemetry, failed)

    def _shutdown(self, live, in_flight) -> None:
        """Stop every live worker; terminate any that outlives the join.

        A group still in flight here was cut off by an abort or by the
        deadline, and is logged as abandoned.
        """
        for _, _, log_entry in in_flight.values():
            if log_entry["outcome"] == "in_flight":
                log_entry["outcome"] = "abandoned"
        for handle in live.values():
            try:
                handle.send(("stop",))
            except (OSError, ValueError):
                pass  # its queue died with it
        for handle in live.values():
            handle.join(self.join_timeout)
            if handle.is_alive():
                handle.terminate()
                handle.join(self.join_timeout)


# ----------------------------------------------------------------------
# Process transport
# ----------------------------------------------------------------------


def _parse_crash_spec(spec: str) -> Tuple[Optional[int], Optional[Tuple[str, str]]]:
    """``worker:<id>`` / ``cell:<model>/<prop>`` -> (worker_id, cell)."""
    if spec.startswith("worker:"):
        return int(spec.split(":", 1)[1]), None
    if spec.startswith("cell:"):
        model, prop = spec.split(":", 1)[1].split("/", 1)
        return None, (model, prop)
    return None, None


def _worker_main(worker_id: int, payload: Dict[str, object], inbox, results) -> None:
    """Spawn-safe persistent worker: rebuild state once, pull groups forever.

    The payload is plain configuration (seed, sizes, runtime); the worker
    rebuilds its own Observatory/models/corpora (the module's isolation
    contract).  ``results`` is this worker's own pipe connection, written
    from the main thread — a crash here can tear this channel but can
    never block a sibling's (see :class:`_FanInResults`).  The framework
    import lives inside the function so the spawned interpreter resolves
    it by qualified name without dragging parent-module cycles along.
    """
    from repro.core.framework import Observatory

    crash_worker, crash_cell = _parse_crash_spec(os.environ.get(CRASH_ENV, ""))
    observatory = Observatory(
        seed=payload["seed"],
        sizes=payload["sizes"],
        runtime=payload["runtime"],
    )
    on_error = payload.get("on_error", "abort")
    # The parent's monotonic countdown can't cross the spawn boundary;
    # it ships as an absolute epoch and restarts here.
    deadline = Deadline.from_epoch(payload.get("deadline_epoch"))
    observatory.apply_deadline(deadline)
    results.send(("ready", worker_id))
    # This process holds both ends of the inbox's pipe, so a SIGKILLed
    # parent never reads as EOF there: poll, and leave once it is gone.
    parent = multiprocessing.parent_process()
    while True:
        try:
            message = inbox.get(timeout=1.0)
        except queue_module.Empty:
            if parent is not None and not parent.is_alive():
                return
            continue
        if message[0] == "stop":
            break
        _, group_id, cells = message
        if crash_worker == worker_id:
            os._exit(3)  # hard death: no cleanup, no result
        started = time.perf_counter()
        out_cells = []
        out_failures = []
        for model_name, property_name in cells:
            if crash_cell == (model_name, property_name):
                os._exit(3)  # poisoned cell: kills whoever runs it
            if on_error == "degrade" and deadline.expired():
                # Budget spent mid-group: remaining cells degrade to
                # named failures instead of burning more wall clock.
                out_failures.append(
                    CellFailure(
                        model_name,
                        property_name,
                        DeadlineExceededError.__name__,
                        "fault-policy deadline exceeded before "
                        f"cell {model_name}/{property_name}",
                    )
                )
                continue
            try:
                out_cells.append(run_cell(observatory, model_name, property_name))
            except ObservatoryError as exc:
                # cause stays None: a live traceback may not survive
                # pickling back through the result pipe.
                out_failures.append(
                    CellFailure(
                        model_name, property_name, type(exc).__name__, str(exc)
                    )
                )
                if on_error != "degrade":
                    # The parent raises it: the failure is deterministic,
                    # so neither this group's later cells nor a retry on
                    # another worker could change the outcome.
                    break
        busy = time.perf_counter() - started
        # Counters ride every result as *cumulative* snapshots: the
        # parent keeps the latest per worker, so a worker later terminated
        # mid-group forfeits only that group's deltas.
        results.send(
            (
                "done",
                worker_id,
                group_id,
                busy,
                {
                    "cells": out_cells,
                    "failures": out_failures,
                    "counters": observatory.counters(),
                },
            )
        )


class _FanInResults:
    """Single-reader fan-in over per-worker result pipes.

    One results queue shared by every worker is the classic hard-crash
    hazard: ``multiprocessing.Queue`` sends through a feeder thread that
    takes an interprocess write lock, and a worker dying abruptly
    (``os._exit``, segfault, OOM kill) between acquiring and releasing
    it leaves the semaphore held forever — every *other* worker's sends
    then wedge silently and the sweep hangs.  Per-worker pipes have
    exactly one writer each, written from the worker's main thread, so
    a crash can tear at most the crasher's own channel; the parent sees
    EOF there and the scheduler's is_alive polling salvages as usual.

    Presents the one-method channel contract :class:`GroupScheduler`
    consumes: ``get(timeout)`` returning the next message or raising
    :class:`queue.Empty`.
    """

    def __init__(self):
        self._connections: List[object] = []
        self._buffer: deque = deque()

    def register(self, connection) -> None:
        self._connections.append(connection)

    def get(self, timeout: float):
        if self._buffer:
            return self._buffer.popleft()
        if not self._connections:
            time.sleep(timeout)
            raise queue_module.Empty
        ready = multiprocessing.connection.wait(self._connections, timeout)
        for connection in ready:
            try:
                self._buffer.append(connection.recv())
            except (EOFError, OSError):
                # Writer died (possibly mid-frame): drop the torn
                # channel; reap_crashes handles the worker itself.
                self._connections.remove(connection)
        if not self._buffer:
            raise queue_module.Empty
        return self._buffer.popleft()


class _ProcessWorkerHandle:
    """Worker-handle protocol over one spawned process + its inbox queue."""

    def __init__(self, worker_id: int, process, inbox):
        self.worker_id = worker_id
        self.process = process
        self.inbox = inbox

    def send(self, message) -> None:
        self.inbox.put(message)

    def is_alive(self) -> bool:
        return self.process.is_alive()

    def join(self, timeout: Optional[float] = None) -> None:
        self.process.join(timeout)

    def terminate(self) -> None:
        self.process.terminate()


class WorkStealingSweep:
    """Run sweep cells through the group scheduler on spawned workers.

    Corpus-affinity groups are pulled, in the cache-aware order, by
    persistent workers, each group dispatched once, with crash salvage;
    results are bit-identical to the thread engine's.

    Args:
        observatory: the parent Observatory; only ``seed``/``sizes``/
            ``runtime`` travel to workers.
        max_workers: worker-process count; defaults to
            ``min(4, cpu_count, n_groups)`` and is always capped at the
            group count (an extra worker could never receive work).
        max_retries: extra attempts a crashed group gets before the sweep
            fails naming its cells.
        on_error: ``"abort"`` raises typed errors — a failing cell as a
            :class:`~repro.errors.CellExecutionError` naming the cell and
            its original error, once the group's completed cells are
            handed to ``on_group_done``; ``"degrade"`` turns poisoned
            groups / per-cell failures / expired deadlines into
            :class:`~repro.runtime.sweep.CellFailure` records on the
            returned :class:`ShardOutcome`.
        deadline: the sweep's live wall-clock budget (also shipped to
            workers as an absolute epoch).
        on_group_done: called with a finished group's ``List[SweepCell]``
            the moment it lands — the journal's persistence hook.
    """

    def __init__(
        self,
        observatory,
        *,
        max_workers: Optional[int] = None,
        max_retries: int = 2,
        on_error: str = "abort",
        deadline: Optional[Deadline] = None,
        on_group_done=None,
    ):
        self.observatory = observatory
        self.max_workers = max_workers
        self.max_retries = max_retries
        self.on_error = on_error
        self.deadline = deadline if deadline is not None else Deadline(None)
        self.on_group_done = on_group_done

    def _worker_runtime(self):
        """Workers run their groups serially; never recurse the engine."""
        return dataclasses.replace(
            self.observatory.runtime, execution="thread", max_workers=1
        )

    def run(self, cells: Sequence[Tuple[str, str]]) -> ShardOutcome:
        """Execute ``cells`` (already cache-aware-ordered); see class doc."""
        groups = build_groups(cells)
        workers = self.max_workers or min(
            _DEFAULT_PROCESS_CAP, os.cpu_count() or 1, max(1, len(groups))
        )
        workers = max(1, min(workers, len(groups)))
        payload = {
            "seed": self.observatory.seed,
            "sizes": self.observatory.sizes,
            "runtime": self._worker_runtime(),
            "on_error": self.on_error,
            "deadline_epoch": self.deadline.epoch(),
        }
        # spawn, not fork: workers must rebuild state from configuration
        # (fork would silently share the parent's loaded models and numpy
        # state, masking pickling bugs and breaking on non-POSIX hosts).
        context = multiprocessing.get_context("spawn")
        # One result pipe per worker (not a shared Queue): a hard-dying
        # worker must not be able to wedge the survivors' result sends —
        # see _FanInResults.
        results = _FanInResults()
        handles: List[_ProcessWorkerHandle] = []
        try:
            for worker_id in range(workers):
                inbox = context.Queue()
                reader, writer = context.Pipe(duplex=False)
                process = context.Process(
                    target=_worker_main,
                    args=(worker_id, payload, inbox, writer),
                    daemon=True,
                )
                process.start()
                # Drop the parent's copy of the write end so a dead
                # worker's channel reads as EOF instead of blocking.
                writer.close()
                results.register(reader)
                handles.append(_ProcessWorkerHandle(worker_id, process, inbox))
            scheduler = GroupScheduler(
                groups,
                max_retries=self.max_retries,
                on_error=self.on_error,
                deadline=self.deadline,
                on_group_done=self._group_done,
            )
            run = scheduler.run(handles, results)
        finally:
            for handle in handles:
                if handle.is_alive():
                    handle.terminate()
                handle.join(1.0)
        return self._merge(groups, run, len(handles))

    def _group_done(self, group: WorkGroup, payload: Dict[str, object]) -> None:
        """Hand a finished group's cells on; under abort, raise its failure.

        A worker under ``"abort"`` stops its group at the first failing
        cell and reports it as a :class:`CellFailure`, so the cells that
        did complete are journaled before the sweep ends; the failure is
        raised as :meth:`CellFailure.abort_error`, the thread engine's
        error for the same cell.
        """
        if self.on_group_done is not None:
            self.on_group_done(list(payload["cells"]))
        if self.on_error == "abort" and payload["failures"]:
            raise payload["failures"][0].abort_error()

    def _merge(
        self, groups: List[WorkGroup], run: SchedulerRun, workers: int
    ) -> ShardOutcome:
        """Group payloads -> ShardOutcome, in original (cache-aware) order."""
        merged_cells: List[object] = []
        failures: List[CellFailure] = []
        for group in groups:
            payload = run.payloads.get(group.group_id)
            if payload is not None:
                merged_cells.extend(payload["cells"])
                failures.extend(payload.get("failures") or [])
            else:
                # The whole group degraded (poisoned / deadline): every
                # cell becomes a named failure carrying the group error.
                error = run.failures.get(group.group_id)
                if error is not None:
                    failures.extend(
                        CellFailure.from_exception(m, p, error)
                        for m, p in group.cells
                    )
        by_kind: Dict[str, List[Counters]] = {}
        for snapshot in run.snapshots.values():
            for kind, stats in snapshot["counters"].items():
                by_kind.setdefault(kind, []).append(stats)
        counters = {kind: type(parts[0]).merged(parts) for kind, parts in by_kind.items()}
        return ShardOutcome(
            cells=merged_cells,
            workers=workers,
            counters=counters,
            scheduler=run.telemetry,
            failures=failures,
        )
