"""Cross-layer chaos harness: one seeded plan for every fault injector.

The repo grew fault hooks one layer at a time: the process scheduler
honors ``$REPRO_SCHEDULER_TEST_CRASH``, the loopback encoder service
queues per-request transport faults, and the disk cache tier is
exercised by hand-corrupting ``.npy`` entries.  Each
is useful alone but composing them — a worker crash *while* a replica
flakes *while* a cache write tears — meant ad-hoc test plumbing.

:class:`ChaosPlan` is that plumbing, unified.  A plan is a seeded,
declarative composition of injections across layers:

- **worker crashes / poisoned cells** — scheduler env-var injection
  (``worker_crash`` / ``poison_cell``), applied on ``__enter__`` and
  restored on ``__exit__``;
- **replica faults** — one-shot transport faults (timeout / http_500 /
  torn / tamper) queued FIFO onto a
  :class:`~repro.testing.encoder_service.LoopbackEncoderService` or a
  :class:`~repro.testing.encoder_service.FleetHarness` replica;
- **torn cache writes** — a seeded pick of an existing disk-tier entry
  truncated mid-payload, exercising the drop-and-recompute path;
- **parent kill-points** — a watcher that SIGKILLs a sweep process
  after its write-ahead journal records N completed cells, driving the
  crash/resume invariant end to end;
- **service kill-points** — the same idea against a live
  characterization service (``repro serve --state-dir``): SIGKILL once
  the per-job journals under the state dir record N cells, then the
  caller restarts the service over the same state dir and asserts the
  request journal replays every accepted request to completion.

The invariant the harness exists to check, stated once
(:func:`assert_sweep_invariant`): **every sweep completes, degrades
with named failures, or resumes bit-identically — it never hangs and
never silently drops a cell.**

Everything is deterministic under the plan's ``seed``: the same plan
against the same sweep injects the same faults, so chaos tests are
replayable, not flaky.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.runtime.scheduler import CRASH_ENV

__all__ = [
    "ChaosPlan",
    "assert_sweep_invariant",
    "count_journal_cells",
    "count_service_cells",
    "kill_when_journal_reaches",
    "kill_when_service_reaches",
]


def count_journal_cells(journal_dir: str) -> int:
    """Completed-cell records currently readable from a sweep journal.

    Counts digest-valid ``"cell"`` records across sealed and unsealed
    segments (deduplicated, exactly what a resume would replay).  Safe
    to call while the sweep is still appending — the journal fsyncs
    every record, so this only ever under-counts by in-flight cells.
    """
    from repro.runtime.journal import _replay_segments

    completed, _dropped = _replay_segments(journal_dir)
    return len(completed)


def count_service_cells(state_dir: str) -> int:
    """Completed cells across *all* per-job sweep journals of a service.

    A characterization service (``repro serve --state-dir``) keeps one
    write-ahead sweep journal per accepted job under
    ``state_dir/jobs/<id>``; this sums their durable cell counts — the
    ground truth for "how far did the service get" that the
    kill-under-live-traffic scenario triggers on.
    """
    jobs_dir = os.path.join(state_dir, "jobs")
    try:
        names = os.listdir(jobs_dir)
    except OSError:
        return 0
    total = 0
    for name in sorted(names):
        path = os.path.join(jobs_dir, name)
        if os.path.isdir(path):
            total += count_journal_cells(path)
    return total


def _kill_when(
    count, threshold: int, pid: int, *, poll: float, timeout: float, sig: int, name: str
) -> threading.Thread:
    """Watcher thread: send ``sig`` to ``pid`` once ``count()`` reaches
    ``threshold``.  Daemonized; exits silently if the target disappears
    or the timeout lapses first."""

    def _watch() -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if count() >= threshold:
                try:
                    os.kill(pid, sig)
                except (ProcessLookupError, PermissionError):
                    pass
                return
            try:
                os.kill(pid, 0)  # stop polling once the target is gone
            except (ProcessLookupError, PermissionError):
                return
            time.sleep(poll)

    thread = threading.Thread(target=_watch, daemon=True, name=name)
    thread.start()
    return thread


def kill_when_journal_reaches(
    journal_dir: str,
    cells: int,
    pid: int,
    *,
    poll: float = 0.02,
    timeout: float = 120.0,
    sig: int = signal.SIGKILL,
) -> threading.Thread:
    """Watcher thread: SIGKILL ``pid`` once the journal holds ``cells``.

    This is the parent kill-point of the chaos harness: the journal is
    the ground truth for "how far did the sweep get", so killing on a
    journal count (not a sleep) makes the crash point deterministic
    under scheduling noise.  The thread is a daemon; it exits silently
    if the process finishes or disappears first.
    """
    return _kill_when(
        lambda: count_journal_cells(journal_dir),
        cells,
        pid,
        poll=poll,
        timeout=timeout,
        sig=sig,
        name="chaos-killer",
    )


def kill_when_service_reaches(
    state_dir: str,
    cells: int,
    pid: int,
    *,
    poll: float = 0.02,
    timeout: float = 120.0,
    sig: int = signal.SIGKILL,
) -> threading.Thread:
    """Watcher thread: SIGKILL a *service* process mid-request.

    Same deterministic-crash-point idea as
    :func:`kill_when_journal_reaches`, but counting durable cells across
    every per-job journal under the service's ``--state-dir``
    (:func:`count_service_cells`) — the trigger for the
    kill-and-resume-under-live-traffic scenario: restart the service
    over the same state dir and assert the journaled requests finish.
    """
    return _kill_when(
        lambda: count_service_cells(state_dir),
        cells,
        pid,
        poll=poll,
        timeout=timeout,
        sig=sig,
        name="chaos-service-killer",
    )


class ChaosPlan:
    """Seeded, composable fault plan applied as a context manager.

    Builder methods return ``self`` so a plan reads as one declaration::

        plan = (
            ChaosPlan(seed=7)
            .worker_crash(0)
            .replica_fault(service, "timeout", seconds=0.5)
            .torn_cache_write(cache_dir)
        )
        with plan:
            sweep = observatory.sweep(...)

    ``__enter__`` applies every injection (env vars saved for restore,
    replica faults queued, cache entries torn); ``__exit__`` restores
    the environment so plans never leak into the next test.  At most
    one scheduler injection (crash *or* poison) can be active — the
    scheduler reads a single spec — and the plan enforces that at build
    time rather than letting one silently shadow the other.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rng = random.Random(seed)
        self._crash_spec: Optional[str] = None
        self._replica_faults: List[Tuple[object, Optional[int], str, float]] = []
        self._torn_dirs: List[str] = []
        self._kill_points: List[Tuple[str, int, int]] = []
        self._service_kills: List[Tuple[str, int, int]] = []
        self._saved_env: Dict[str, Optional[str]] = {}
        self._watchers: List[threading.Thread] = []
        self._entered = False

    # -- scheduler layer ----------------------------------------------

    def _set_crash(self, spec: str) -> "ChaosPlan":
        if self._crash_spec is not None:
            raise ValueError(
                f"scheduler crash injection already set to "
                f"{self._crash_spec!r}; the scheduler honors one spec"
            )
        self._crash_spec = spec
        return self

    def worker_crash(self, worker_id: int) -> "ChaosPlan":
        """Hard-exit worker ``worker_id`` on its first dispatched group."""
        return self._set_crash(f"worker:{worker_id}")

    def poison_cell(self, model: str, property_name: str) -> "ChaosPlan":
        """Crash whichever worker reaches cell ``model/property_name``."""
        return self._set_crash(f"cell:{model}/{property_name}")

    # -- transport layer ----------------------------------------------

    def replica_fault(
        self,
        service: object,
        kind: str,
        *,
        seconds: float = 0.75,
        replica: Optional[int] = None,
        count: int = 1,
    ) -> "ChaosPlan":
        """Queue ``count`` one-shot transport faults on an encoder double.

        ``service`` is a
        :class:`~repro.testing.encoder_service.LoopbackEncoderService`
        (``replica`` ignored) or a
        :class:`~repro.testing.encoder_service.FleetHarness`
        (``replica`` selects the target; unset picks one under the
        plan's seed at apply time).  Fault ``kind`` is validated by the
        service when applied (timeout / http_500 / torn / tamper /
        shuffle).
        """
        if count < 1:
            raise ValueError("count must be positive")
        for _ in range(count):
            self._replica_faults.append((service, replica, kind, seconds))
        return self

    # -- disk layer ---------------------------------------------------

    def torn_cache_write(self, cache_dir: str) -> "ChaosPlan":
        """Tear one existing disk-tier entry (seeded pick) on apply.

        The entry is truncated mid-payload — exactly the state a crash
        between payload write and rename leaves behind.  The disk tier's
        contract is to *drop and recompute*, never to serve the torn
        bytes, so a sweep over a torn cache must still be bit-identical.
        Applying to a cache directory with no entries is a no-op (there
        is nothing to tear — callers populate the cache first).
        """
        self._torn_dirs.append(cache_dir)
        return self

    # -- parent kill-points -------------------------------------------

    def parent_kill(
        self, journal_dir: str, after_cells: int, pid: int
    ) -> "ChaosPlan":
        """SIGKILL ``pid`` once ``journal_dir`` records ``after_cells``.

        The watcher starts on ``__enter__`` (see
        :func:`kill_when_journal_reaches`).
        """
        if after_cells < 1:
            raise ValueError("after_cells must be positive")
        self._kill_points.append((journal_dir, after_cells, pid))
        return self

    def service_kill(
        self, state_dir: str, after_cells: int, pid: int
    ) -> "ChaosPlan":
        """SIGKILL a live characterization service mid-request.

        The watcher (started on ``__enter__``, see
        :func:`kill_when_service_reaches`) counts durable cells across
        every per-job journal under the service's ``state_dir`` and
        kills ``pid`` once ``after_cells`` are recorded — i.e. while
        accepted requests are provably in flight.  The scenario's second
        half is the caller's: restart the service over the same
        ``state_dir`` and assert its request journal replays the
        accepted-but-unfinished work to completion.
        """
        if after_cells < 1:
            raise ValueError("after_cells must be positive")
        self._service_kills.append((state_dir, after_cells, pid))
        return self

    # -- lifecycle ----------------------------------------------------

    def describe(self) -> Dict[str, object]:
        """Loggable summary of the plan (what a CI failure should print)."""
        return {
            "seed": self.seed,
            "scheduler_crash": self._crash_spec,
            "replica_faults": [
                {"kind": kind, "seconds": seconds, "replica": replica}
                for _service, replica, kind, seconds in self._replica_faults
            ],
            "torn_cache_dirs": list(self._torn_dirs),
            "parent_kills": [
                {"journal": journal, "after_cells": cells, "pid": pid}
                for journal, cells, pid in self._kill_points
            ],
            "service_kills": [
                {"state_dir": state_dir, "after_cells": cells, "pid": pid}
                for state_dir, cells, pid in self._service_kills
            ],
        }

    def _tear_one_entry(self, cache_dir: str) -> Optional[str]:
        try:
            names = sorted(
                name
                for name in os.listdir(cache_dir)
                if name.endswith(".npy") and not name.startswith(".tmp-")
            )
        except FileNotFoundError:
            return None
        if not names:
            return None
        victim = os.path.join(cache_dir, self.rng.choice(names))
        size = os.path.getsize(victim)
        with open(victim, "r+b") as handle:
            handle.truncate(max(1, size // 2))
        return victim

    def __enter__(self) -> "ChaosPlan":
        if self._entered:
            raise RuntimeError("ChaosPlan is not reentrant; build a new plan")
        self._entered = True
        if self._crash_spec is not None:
            self._saved_env[CRASH_ENV] = os.environ.get(CRASH_ENV)
            os.environ[CRASH_ENV] = self._crash_spec
        for service, replica, kind, seconds in self._replica_faults:
            if hasattr(service, "replicas"):  # FleetHarness
                index = (
                    replica
                    if replica is not None
                    else self.rng.randrange(len(service.replicas))
                )
                service.inject(index, kind, seconds=seconds)
            else:  # LoopbackEncoderService
                service.inject(kind, seconds=seconds)
        for cache_dir in self._torn_dirs:
            self._tear_one_entry(cache_dir)
        for journal_dir, cells, pid in self._kill_points:
            self._watchers.append(
                kill_when_journal_reaches(journal_dir, cells, pid)
            )
        for state_dir, cells, pid in self._service_kills:
            self._watchers.append(
                kill_when_service_reaches(state_dir, cells, pid)
            )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for key, value in self._saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        self._saved_env.clear()
        self._entered = False


def assert_sweep_invariant(sweep, planned: int) -> None:
    """Assert the harness invariant on a finished sweep.

    ``planned`` is the number of runnable cells the caller expected
    (after skips).  Every one of them must be accounted for **exactly
    once** — as a completed cell or a named :class:`CellFailure` —
    with no duplicates and nothing silently dropped.  Hang-freedom is
    asserted by the sweep having returned at all (pair with a test
    timeout); resume bit-identity is asserted by the caller comparing
    ``to_dict()`` forms across runs.
    """
    seen = [(c.model_name, c.property_name) for c in sweep.cells]
    failed = [(f.model_name, f.property_name) for f in sweep.failures]
    combined = seen + failed
    if len(set(combined)) != len(combined):
        raise AssertionError(
            f"sweep double-counted cells: completed={sorted(seen)} "
            f"failed={sorted(failed)}"
        )
    if len(combined) != planned:
        raise AssertionError(
            f"sweep dropped cells: {planned} planned, "
            f"{len(seen)} completed + {len(failed)} degraded accounted"
        )
    for failure in sweep.failures:
        if not failure.error or not failure.message:
            raise AssertionError(
                f"degraded cell {failure.model_name}/"
                f"{failure.property_name} lacks a named error: {failure!r}"
            )
