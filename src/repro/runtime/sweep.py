"""Parallel (model × property) sweep execution.

``Observatory.sweep`` delegates here: every (model, property) cell of the
requested matrix is an independent, deterministically seeded unit of work.
Two execution engines are available:

- ``"thread"`` — cells run on a thread pool; the surrogate encoders spend
  their time in numpy, which releases the GIL, and all executors share one
  embedding cache, so a table embedded for P1 is a cache hit when P2 asks
  for it.
- ``"process"`` — cells run on the process scheduler
  (:mod:`repro.runtime.scheduler`): persistent spawned workers pull
  corpus-affinity work groups, in the cache-aware order, from a dynamic
  queue, each group dispatched once, with crash salvage.  This scales the
  Python-heavy half of the matrix (serializers, aggregates, planners)
  past the GIL.  Workers rebuild models from the registry and share only
  the on-disk cache tier.

Both engines run each cell through :func:`run_cell`, and the thread
engine is the reference the process engine is tested against.

Determinism: a cell's result is a pure function of (seed, model, property,
dataset sizes).  The cache only short-circuits recomputation of values
that would have been identical anyway, and cells never exchange data, so
sweep results are independent of worker count, scheduling order, *and*
execution mode — ``tests/test_runtime_sweep.py``,
``tests/test_runtime_process_sweep.py`` and
``tests/test_runtime_scheduler.py`` lock this in.

Cells are *executed* in cache-aware order — grouped so cells sharing a
dataset corpus run back-to-back, raising the intra-sweep hit rate — but
*returned* in request order, so the ordering is invisible to callers.

Cells whose model lacks every level the property needs (the paper's
Table 2 scoping) and pairwise properties that need an explicit partner are
not run; unlike the historical silent skip, each one is recorded as a
:class:`SkippedCell` on the returned :class:`SweepResult`.
"""

from __future__ import annotations

import dataclasses
import os
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from typing import Dict, List, Optional, Sequence, Tuple

import repro.telemetry as telemetry
from repro.core.results import PropertyResult, SkippedCell
from repro.errors import CellExecutionError, DeadlineExceededError, ObservatoryError
from repro.models.backends.remote import TransportStats
from repro.models.blas import blas_regime
from repro.runtime.cache import CacheStats
from repro.runtime.faults import Deadline, FaultPolicy
from repro.runtime.pipeline import PipelineStats
from repro.telemetry import Counters

# Workers only pay off when cores exist to run cells in parallel; on a
# single-core host the pool degenerates to sequential execution.
_DEFAULT_WORKER_CAP = min(4, os.cpu_count() or 1)

# Environment override for the default execution engine; the CI matrix
# runs the whole suite under REPRO_SWEEP_EXECUTION=process so both
# engines are gated on every push.
EXECUTION_ENV = "REPRO_SWEEP_EXECUTION"
EXECUTION_MODES = ("thread", "process")

# What a cell failure does to the rest of the sweep: "abort" (default)
# re-raises the typed error; "degrade" records a CellFailure on
# SweepResult.failures and keeps going — every other cell still runs.
ON_ERROR_MODES = ("abort", "degrade")

# Environment override for the default worker count, mirroring
# REPRO_SWEEP_EXECUTION: an explicit max_workers argument or
# RuntimeConfig.max_workers still wins.
WORKERS_ENV = "REPRO_SWEEP_WORKERS"

# Which default dataset corpus each property characterizes over.  Cells
# sharing a corpus are scheduled back-to-back (per model) so embeddings
# computed for one property are still memory-tier-warm for the next —
# cache-aware ordering.  perturbation_robustness runs the drspider suite,
# which is *derived from* wikitables and embeds the original wikitables
# tables alongside the perturbed variants — hence its wikitables group.
# A property missing here orders by its own name (correct, just not
# grouped); tests/test_runtime_process_sweep.py guards that every
# registered property stays mapped.
PROPERTY_CORPUS = {
    "row_order_insignificance": "wikitables",
    "column_order_insignificance": "wikitables",
    "sample_fidelity": "wikitables",
    "perturbation_robustness": "wikitables",
    "heterogeneous_context": "sotab",
    "functional_dependencies": "spider",
    "join_relationship": "nextiajd",
    "entity_stability": "entities",
}


def resolve_execution(
    explicit: Optional[str], configured: Optional[str] = None
) -> str:
    """Pick the sweep engine: explicit arg > RuntimeConfig > env > thread."""
    choice = explicit or configured or os.environ.get(EXECUTION_ENV) or "thread"
    if choice not in EXECUTION_MODES:
        raise ObservatoryError(
            f"unknown execution mode {choice!r}; expected one of {EXECUTION_MODES}"
        )
    return choice


def resolve_on_error(explicit: Optional[str]) -> str:
    """Pick the failure mode: explicit arg, else abort."""
    choice = explicit or "abort"
    if choice not in ON_ERROR_MODES:
        raise ObservatoryError(
            f"unknown on_error mode {choice!r}; expected one of {ON_ERROR_MODES}"
        )
    return choice


def resolve_workers(explicit: Optional[int] = None) -> Optional[int]:
    """Worker count: explicit argument > $REPRO_SWEEP_WORKERS > None (auto).

    The caller passes whatever the API/RuntimeConfig resolved; only when
    that is unset does the environment override apply, so a session-wide
    ``REPRO_SWEEP_WORKERS=8`` never silently beats an explicit argument.
    Either value must be a positive integer — a typo'd count failing
    loudly beats a sweep quietly running with some other one.
    """
    if explicit is not None:
        if explicit < 1:
            raise ObservatoryError(
                f"max_workers must be a positive integer, got {explicit!r}"
            )
        return explicit
    raw = os.environ.get(WORKERS_ENV)
    if raw is None or not raw.strip():
        return None
    try:
        workers = int(raw)
    except ValueError:
        raise ObservatoryError(
            f"${WORKERS_ENV} must be a positive integer, got {raw!r}"
        ) from None
    if workers < 1:
        raise ObservatoryError(
            f"${WORKERS_ENV} must be a positive integer, got {raw!r}"
        )
    return workers


@dataclasses.dataclass
class SweepCell:
    """One completed (model, property) characterization.

    ``seconds`` is the cell's wall clock; the ``*_seconds`` phase fields
    split it into serialization (Python), encoding (BLAS forward passes,
    including background encode work the cell submitted), and aggregation
    (numpy pooling) — the observability that makes hot cells (the known
    heterogeneous_context ~3x skew) diagnosable from a report.
    """

    model_name: str
    property_name: str
    result: PropertyResult
    seconds: float
    serialize_seconds: float = 0.0
    encode_seconds: float = 0.0
    aggregate_seconds: float = 0.0

    def record(self) -> Dict[str, object]:
        """Flat observability record for reports and JSON artifacts."""
        return {
            "model": self.model_name,
            "property": self.property_name,
            "seconds": self.seconds,
            "serialize_seconds": self.serialize_seconds,
            "encode_seconds": self.encode_seconds,
            "aggregate_seconds": self.aggregate_seconds,
        }

    def to_jsonable(self) -> Dict[str, object]:
        """Lossless form for the write-ahead journal (result included)."""
        payload = self.record()
        payload["result"] = self.result.to_jsonable()
        return payload

    @classmethod
    def from_jsonable(cls, payload: Dict[str, object]) -> "SweepCell":
        return cls(
            model_name=payload["model"],
            property_name=payload["property"],
            result=PropertyResult.from_jsonable(payload["result"]),
            seconds=float(payload["seconds"]),
            serialize_seconds=float(payload.get("serialize_seconds", 0.0)),
            encode_seconds=float(payload.get("encode_seconds", 0.0)),
            aggregate_seconds=float(payload.get("aggregate_seconds", 0.0)),
        )


@dataclasses.dataclass
class CellFailure:
    """One (model, property) cell that failed under ``on_error="degrade"``.

    Carries the typed error's class name and message; the live exception
    (with its chained ``__cause__``) rides along on ``cause`` for callers
    that want the traceback, but never serializes — reports and the
    journal see only the named failure.
    """

    model_name: str
    property_name: str
    error: str  # ObservatoryError subclass name, e.g. "CellPoisonedError"
    message: str
    cause: Optional[BaseException] = dataclasses.field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def from_exception(
        cls, model_name: str, property_name: str, exc: BaseException
    ) -> "CellFailure":
        return cls(model_name, property_name, type(exc).__name__, str(exc), cause=exc)

    def abort_error(self) -> CellExecutionError:
        """What ``on_error="abort"`` raises for this failure, on either engine.

        ``CellExecutionError(model, property, "<ErrorClass>: <message>")``.
        A failure that already is a ``CellExecutionError`` (``run_cell``
        wraps a non-library exception so) keeps its own message rather
        than nesting a second ``cell …/… failed:`` prefix.
        """
        if self.error == CellExecutionError.__name__:
            prefix = f"cell {self.model_name}/{self.property_name} failed: "
            detail = self.message.removeprefix(prefix)
        else:
            detail = f"{self.error}: {self.message}"
        return CellExecutionError(self.model_name, self.property_name, detail)

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "model": self.model_name,
            "property": self.property_name,
            "error": self.error,
            "message": self.message,
        }


def run_cell(observatory, model_name: str, property_name: str) -> SweepCell:
    """Characterize one cell and time its phases.

    The one per-cell runner: the thread engine's pool and every
    process-scheduler worker call it.  ``characterize`` gets the model and
    property positionally, which is where ``perfbench/tracer.py`` reads
    the cell from.  A non-library exception is re-raised as
    :class:`~repro.errors.CellExecutionError` with the original chained
    (the errors.py contract: library failure paths raise
    ``ObservatoryError`` subclasses).
    """
    timings = telemetry.start_cell()
    t0 = time.perf_counter()
    try:
        result = observatory.characterize(model_name, property_name)
    except ObservatoryError:
        raise
    except Exception as exc:
        raise CellExecutionError(model_name, property_name, str(exc)) from exc
    finally:
        telemetry.stop_cell()
    return SweepCell(
        model_name,
        property_name,
        result,
        time.perf_counter() - t0,
        serialize_seconds=timings.serialize_seconds,
        encode_seconds=timings.encode_seconds,
        aggregate_seconds=timings.aggregate_seconds,
    )


@dataclasses.dataclass
class SweepResult:
    """Structured outcome of ``Observatory.sweep``.

    Attributes:
        cells: completed cells in request order.
        skipped: cells that were not run, with reasons — nothing is
            dropped silently.
        failures: cells that ran and failed under ``on_error="degrade"``
            (typed :class:`CellFailure` records; empty under the default
            ``"abort"``, which raises instead).
        replayed: how many of ``cells`` were recovered from the
            write-ahead journal rather than recomputed (``--resume``).
        seconds: wall-clock of the whole sweep.
        workers: worker-pool size used (threads or processes).
        execution: engine that ran the cells (``"thread"``/``"process"``).
        backend: encoder-backend description (name and numerics mode)
            the sweep's embeddings went through.
        blas: the BLAS regime that computed them
            (:func:`~repro.models.blas.blas_regime`: OpenBLAS core and
            thread count, or ``"unpinned: <reason>"``).
        counters: this sweep's runtime counters by kind (the kinds of
            :meth:`~repro.core.framework.Observatory.counters`), merged
            across worker processes; read them as :attr:`cache_stats`,
            :attr:`pipeline` and :attr:`transport`
            (``None`` when absent).  A kind is present when any of its
            counters moved; the cache whenever it is on, and under the
            thread engine with the shared cache's cumulative totals.
        scheduler: process-scheduler dispatch accounting
            (:class:`~repro.runtime.scheduler.SchedulerTelemetry` —
            per-worker busy/idle counters, the dispatch log, crash
            salvage); ``None`` under the thread engine.
    """

    cells: List[SweepCell] = dataclasses.field(default_factory=list)
    skipped: List[SkippedCell] = dataclasses.field(default_factory=list)
    failures: List[CellFailure] = dataclasses.field(default_factory=list)
    replayed: int = 0
    seconds: float = 0.0
    workers: int = 1
    execution: str = "thread"
    backend: str = "local (exact)"
    blas: str = dataclasses.field(default_factory=blas_regime)
    counters: Dict[str, Counters] = dataclasses.field(default_factory=dict)
    scheduler: Optional["SchedulerTelemetry"] = None  # noqa: F821

    @property
    def cache_stats(self) -> Optional[CacheStats]:
        return self.counters.get("cache")

    @property
    def pipeline(self) -> Optional[PipelineStats]:
        return self.counters.get("pipeline")

    @property
    def transport(self) -> Optional[TransportStats]:
        return self.counters.get("transport")

    @property
    def records(self) -> List[Dict[str, object]]:
        """Per-cell observability records (wall time + phase split)."""
        return [cell.record() for cell in self.cells]

    def slowest(self, n: int = 3) -> List[SweepCell]:
        """The ``n`` longest-running cells, slowest first."""
        return sorted(self.cells, key=lambda c: c.seconds, reverse=True)[:n]

    @property
    def results(self) -> List[PropertyResult]:
        return [cell.result for cell in self.cells]

    @property
    def model_names(self) -> List[str]:
        seen: Dict[str, None] = {}
        for cell in self.cells:
            seen.setdefault(cell.model_name, None)
        return list(seen)

    @property
    def property_names(self) -> List[str]:
        seen: Dict[str, None] = {}
        for cell in self.cells:
            seen.setdefault(cell.property_name, None)
        return list(seen)

    def get(self, model_name: str, property_name: str) -> Optional[PropertyResult]:
        """The cell result for (model, property), or ``None`` if absent."""
        for cell in self.cells:
            if cell.model_name == model_name and cell.property_name == property_name:
                return cell.result
        return None

    def to_dict(self) -> Dict[str, object]:
        return {
            "cells": [
                {**cell.record(), "result": cell.result.to_dict()}
                for cell in self.cells
            ],
            "skipped": [dataclasses.asdict(s) for s in self.skipped],
            "failures": [f.to_jsonable() for f in self.failures],
            "replayed": self.replayed,
            "seconds": self.seconds,
            "workers": self.workers,
            "execution": self.execution,
            "backend": self.backend,
            "blas": self.blas,
            # Readers expect all three keys; a kind that did not move is None.
            **dict.fromkeys(("cache", "pipeline", "transport")),
            **{kind: stats.to_dict() for kind, stats in self.counters.items()},
            "scheduler": self.scheduler.to_dict() if self.scheduler else None,
        }

    def __repr__(self) -> str:
        return (
            f"SweepResult(cells={len(self.cells)}, skipped={len(self.skipped)}, "
            f"failures={len(self.failures)}, replayed={self.replayed}, "
            f"seconds={self.seconds:.2f}, workers={self.workers}, "
            f"execution={self.execution!r}, backend={self.backend!r})"
        )


def plan_cells(
    observatory,
    model_names: Sequence[str],
    property_names: Sequence[str],
) -> Tuple[List[Tuple[str, str]], List[SkippedCell]]:
    """Split the matrix into runnable cells and recorded skips."""
    from repro.core.registry import load_property

    runnable: List[Tuple[str, str]] = []
    skipped: List[SkippedCell] = []
    for property_name in property_names:
        runner = load_property(property_name)
        for model_name in model_names:
            if property_name == "entity_stability":
                skipped.append(
                    SkippedCell(
                        model_name,
                        property_name,
                        "pairwise property; run characterize(..., partner_model=...)",
                    )
                )
                continue
            model = observatory.model(model_name)
            if runner.levels and not any(model.supports(lv) for lv in runner.levels):
                needed = "/".join(lv.value for lv in runner.levels)
                skipped.append(
                    SkippedCell(
                        model_name,
                        property_name,
                        f"model exposes no {needed} embeddings",
                    )
                )
                continue
            runnable.append((model_name, property_name))
    return runnable, skipped


def order_cells(cells: Sequence[Tuple[str, str]]) -> List[Tuple[str, str]]:
    """Cache-aware execution order: model-major, corpus-grouped within.

    Keeping one model's cells together maximizes reuse of its executor's
    cached embeddings, and running properties that share a corpus
    back-to-back (P1/P2/P5/P7 all characterize over wikitables) means the
    second property's tables are still warm from the first.  Models and
    corpora keep their first-seen request order so the schedule — and
    thus shard assignment — is deterministic.
    """
    model_rank: Dict[str, int] = {}
    corpus_rank: Dict[str, int] = {}
    property_rank: Dict[str, int] = {}
    for model_name, property_name in cells:
        model_rank.setdefault(model_name, len(model_rank))
        corpus = PROPERTY_CORPUS.get(property_name, property_name)
        corpus_rank.setdefault(corpus, len(corpus_rank))
        property_rank.setdefault(property_name, len(property_rank))
    return sorted(
        cells,
        key=lambda cell: (
            model_rank[cell[0]],
            corpus_rank[PROPERTY_CORPUS.get(cell[1], cell[1])],
            property_rank[cell[1]],
        ),
    )


def _sweep_plan(
    observatory,
    model_names: Sequence[str],
    property_names: Sequence[str],
    backend_desc: str,
    runnable: Sequence[Tuple[str, str]],
) -> Dict[str, object]:
    """The journal's plan-fingerprint payload: everything cell results
    depend on (seed, sizes, models, properties, backend numerics, the BLAS
    regime, and the runnable matrix) and nothing they don't — execution
    mode and worker count are deliberately absent, since results are
    bit-identical across engines by contract and a thread-engine journal
    may resume under the process engine.  A journal written under another
    BLAS regime is refused rather than resumed into mixed bits."""
    return {
        "seed": observatory.seed,
        "sizes": dataclasses.asdict(observatory.sizes),
        "models": list(model_names),
        "properties": list(property_names),
        "backend": backend_desc,
        "blas": blas_regime(),
        "cells": [[m, p] for m, p in runnable],
    }


def run_sweep(
    observatory,
    model_names: Sequence[str],
    property_names: Sequence[str],
    *,
    max_workers: Optional[int] = None,
    execution: Optional[str] = None,
    on_error: Optional[str] = None,
    journal_dir: Optional[str] = None,
    resume: bool = False,
    fault_policy: Optional[FaultPolicy] = None,
) -> SweepResult:
    """Execute the matrix on a worker pool; see module docstring.

    With ``journal_dir`` set, every completed cell is appended to a
    write-ahead :class:`~repro.runtime.journal.SweepJournal` as it
    finishes; ``resume=True`` replays completed cells from that journal
    and dispatches only the remainder (refusing a journal whose plan
    fingerprint doesn't match).  ``on_error="degrade"`` converts cell
    failures into :class:`CellFailure` records on the result instead of
    aborting the sweep.
    """
    if not model_names:
        raise ObservatoryError("sweep needs at least one model")
    if not property_names:
        raise ObservatoryError("sweep needs at least one property")
    engine = resolve_execution(execution, getattr(observatory.runtime, "execution", None))
    max_workers = resolve_workers(max_workers)
    on_error = resolve_on_error(on_error)
    policy = fault_policy or FaultPolicy()
    deadline = policy.start_deadline()
    observatory.apply_deadline(deadline)
    backend_desc = observatory.backend_description()
    # Counter sources accumulate for their lifetime; snapshot here so
    # this sweep reports only its own work, not a previous sweep's (the
    # thread engine reuses the executors and the backend).
    before = observatory.counters()
    started = time.perf_counter()
    runnable, skipped = plan_cells(observatory, model_names, property_names)
    # Execute cache-aware, return request-order (see order_cells).
    request_rank = {cell: i for i, cell in enumerate(runnable)}
    ordered = order_cells(runnable)

    journal = None
    replayed_cells: List[SweepCell] = []
    todo: List[Tuple[str, str]] = list(ordered)
    if resume and not journal_dir:
        raise ObservatoryError("resume=True requires journal_dir")
    if journal_dir:
        from repro.runtime.journal import SweepJournal

        plan = _sweep_plan(
            observatory, model_names, property_names, backend_desc, runnable
        )
        opener = SweepJournal.resume if resume else SweepJournal.start
        journal = opener(journal_dir, plan)
        if journal.completed:
            todo = [c for c in ordered if c not in journal.completed]
            replayed_cells = [
                SweepCell.from_jsonable(journal.completed[c])
                for c in ordered
                if c in journal.completed
            ]
        # The write-ahead half: the dispatch plan hits disk before any
        # cell runs, so a resumed session can tell "never dispatched"
        # from "dispatched but lost".
        journal.record_planned(todo)

    try:
        return _dispatch_sweep(
            observatory,
            engine=engine,
            max_workers=max_workers,
            on_error=on_error,
            policy=policy,
            deadline=deadline,
            journal=journal,
            backend_desc=backend_desc,
            started=started,
            skipped=skipped,
            request_rank=request_rank,
            todo=todo,
            replayed_cells=replayed_cells,
            before=before,
        )
    finally:
        if journal is not None:
            journal.close()


def _reported(counters: Dict[str, Counters]) -> Dict[str, Counters]:
    """The kinds a sweep reports: each that moved, and the cache whenever it is on."""
    return {k: stats for k, stats in counters.items() if k == "cache" or not stats.empty()}


def _dispatch_sweep(
    observatory,
    *,
    engine: str,
    max_workers: Optional[int],
    on_error: str,
    policy: FaultPolicy,
    deadline: Deadline,
    journal,
    backend_desc: str,
    started: float,
    skipped: List[SkippedCell],
    request_rank: Dict[Tuple[str, str], int],
    todo: List[Tuple[str, str]],
    replayed_cells: List[SweepCell],
    before: Dict[str, Counters],
) -> SweepResult:
    """Engine dispatch shared by the journaled and plain paths."""
    rank = lambda c: request_rank[(c.model_name, c.property_name)]  # noqa: E731

    if engine == "process":
        if not todo:
            # Nothing to dispatch: every cell was skipped or replayed
            # from the journal.  No workers spawn, no cache is touched —
            # report that honestly rather than falling through to the
            # thread path with the parent's live counters.
            return SweepResult(
                cells=sorted(replayed_cells, key=rank),
                skipped=skipped,
                replayed=len(replayed_cells),
                seconds=time.perf_counter() - started,
                workers=0,
                execution="process",
                backend=backend_desc,
            )
        from repro.runtime.scheduler import WorkStealingSweep

        def journal_group(group_cells: List[SweepCell]) -> None:
            # Called by the dispatch loop the moment a group's payload
            # lands, so a parent killed mid-sweep has every finished
            # group on disk.
            if journal is not None:
                for cell in group_cells:
                    journal.record_cell(
                        cell.model_name, cell.property_name, cell.to_jsonable()
                    )

        engine_result = WorkStealingSweep(
            observatory,
            max_workers=max_workers,
            max_retries=policy.scheduler_retries,
            on_error=on_error,
            deadline=deadline,
            on_group_done=journal_group,
        ).run(todo)
        failures = list(engine_result.failures)
        if journal is not None:
            for failure in failures:
                journal.record_failure(failure.to_jsonable())
        return SweepResult(
            cells=sorted(engine_result.cells + replayed_cells, key=rank),
            skipped=skipped,
            failures=failures,
            replayed=len(replayed_cells),
            seconds=time.perf_counter() - started,
            workers=engine_result.workers,
            execution="process",
            backend=backend_desc,
            counters=_reported(engine_result.counters),
            scheduler=engine_result.scheduler,
        )

    # Materialize shared resources serially before fanning out: dataset
    # generators and model construction are the only mutating steps.
    for model_name in {m for m, _ in todo}:
        observatory.executor(model_name)
    for property_name in {p for _, p in todo}:
        observatory.prepare_property_data(property_name)

    workers = max_workers or min(_DEFAULT_WORKER_CAP, max(1, len(todo)))

    def attempt(cell: Tuple[str, str]):
        model_name, property_name = cell
        try:
            # A cell that hasn't started when the budget runs out is not
            # worth starting; one already running is left to finish (cells
            # are short relative to sweeps).  Under abort the expired
            # budget raises unwrapped, as the process scheduler's does.
            deadline.check(f"cell {model_name}/{property_name}")
        except DeadlineExceededError as exc:
            if on_error == "degrade":
                return CellFailure.from_exception(model_name, property_name, exc)
            raise
        try:
            return run_cell(observatory, model_name, property_name)
        except ObservatoryError as exc:
            failure = CellFailure.from_exception(model_name, property_name, exc)
            if on_error == "degrade":
                return failure
            if isinstance(exc, CellExecutionError):
                raise
            raise failure.abort_error() from exc

    cells: List[SweepCell] = []
    failures: List[CellFailure] = []

    def finish(outcome) -> None:
        if isinstance(outcome, CellFailure):
            failures.append(outcome)
            if journal is not None:
                journal.record_failure(outcome.to_jsonable())
        else:
            cells.append(outcome)
            if journal is not None:
                # Journal each cell the moment it completes (not at
                # sweep end): that is what survives a SIGKILL.
                journal.record_cell(
                    outcome.model_name, outcome.property_name, outcome.to_jsonable()
                )

    if workers <= 1 or len(todo) <= 1:
        for cell in todo:
            finish(attempt(cell))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(attempt, c) for c in todo]
            finished = set()
            try:
                for future in as_completed(futures):
                    outcome = future.result()
                    finished.add(future)
                    finish(outcome)
            except BaseException:
                # Abort: cells not yet started never start, and the ones
                # already running are waited for.  Those that succeed are
                # journaled too, so a resume does not compute them again.
                pool.shutdown(cancel_futures=True)
                for future in futures:
                    if future in finished or future.cancelled():
                        continue
                    if future.exception() is None:
                        finish(future.result())
                raise
    cells.extend(replayed_cells)
    cells.sort(key=rank)

    counters = {
        # The cache reports cumulative totals: perfbench/worker.py
        # subtracts its own before-snapshot.
        kind: stats if kind == "cache" else stats.since(before[kind])
        for kind, stats in observatory.counters().items()
    }
    return SweepResult(
        cells=cells,
        skipped=skipped,
        failures=failures,
        replayed=len(replayed_cells),
        seconds=time.perf_counter() - started,
        workers=workers,
        execution=engine,
        backend=backend_desc,
        counters=_reported(counters),
    )
