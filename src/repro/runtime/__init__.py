"""The characterization runtime: batching, caching, and parallel sweeps.

Observatory's workload is a (model × property × dataset) matrix whose
properties repeatedly re-embed the same tables under permutations, samples,
and perturbations.  This package removes that redundancy:

- :mod:`repro.runtime.fingerprint` — content hashes that identify an
  embedding request exactly (order-sensitive, type-aware).
- :mod:`repro.runtime.cache` — a thread-safe LRU embedding cache keyed by
  ``(model, level, fingerprint)`` with an optional on-disk tier.
- :mod:`repro.runtime.planner` — :class:`EmbeddingExecutor`, which
  deduplicates requests, bundles levels into one encoder pass, and drives
  the encoder in configurable batches.
- :mod:`repro.runtime.pipeline` — :class:`EncodeLoop`, the background
  asyncio loop the executor streams encoder batches through so
  serialization/fingerprinting overlap the forward passes (BLAS releases
  the GIL); :class:`PipelineStats` reports the overlap ratio.
- :mod:`repro.runtime.disk` — :class:`DiskTier`, the bounded, indexed,
  crash-safe persistent tier (versioned JSON index, byte/age LRU
  eviction, atomic write-temp-then-rename, stale-lock reclaim).
- :mod:`repro.runtime.sweep` — ``Observatory.sweep``'s thread engine
  (the reference engine) and the per-cell runner both engines share,
  returning a structured :class:`SweepResult` (including skipped cells).
- :mod:`repro.runtime.scheduler` — :class:`WorkStealingSweep`, the
  ``execution="process"`` engine: persistent spawned workers pull
  LPT-ordered corpus-affinity :class:`WorkGroup`\\ s from a dynamic
  queue, with straggler re-dispatch and crash salvage
  (:class:`SchedulerTelemetry` reports busy/idle/steal per worker).
- :mod:`repro.runtime.journal` — :class:`SweepJournal`, the write-ahead
  per-cell progress log behind ``sweep(journal_dir=..., resume=True)``:
  digest-verified JSONL segments under a plan-fingerprint header, so a
  killed sweep replays finished cells and dispatches only the remainder.
- :mod:`repro.runtime.faults` — :class:`FaultPolicy`/:class:`Deadline`,
  the single failure-budget config (wall-clock deadline, per-layer retry
  budgets, backoff envelope, lock patience) threaded from
  :class:`RuntimeConfig` through scheduler salvage, remote transport
  retries, and disk-lock waits.
"""

from repro.runtime.cache import CacheStats, EmbeddingCache
from repro.runtime.disk import DiskTier
from repro.runtime.faults import Deadline, FaultPolicy
from repro.runtime.journal import SweepJournal, plan_fingerprint
from repro.runtime.fingerprint import (
    cache_entry_digest,
    coords_fingerprint,
    table_fingerprint,
    value_column_fingerprint,
)
from repro.runtime.pipeline import (
    EncodeLoop,
    EncodeLoopClosedError,
    EncodeLoopStuckError,
    PipelineStats,
    encode_loop,
)
from repro.models.backends.transport import TransportConfig
from repro.runtime.planner import (
    BUNDLE_LEVELS,
    EmbeddingExecutor,
    RuntimeConfig,
    as_executor,
)
from repro.runtime.scheduler import (
    CostModel,
    GroupScheduler,
    SchedulerTelemetry,
    WorkGroup,
    WorkStealingSweep,
    WorkerTelemetry,
    build_groups,
    load_cost_model,
    lpt_order,
)
from repro.runtime.sweep import (
    EXECUTION_MODES,
    ON_ERROR_MODES,
    CellFailure,
    SkippedCell,
    SweepCell,
    SweepResult,
    order_cells,
    resolve_execution,
    resolve_on_error,
    resolve_workers,
    run_sweep,
)

__all__ = [
    "BUNDLE_LEVELS",
    "CacheStats",
    "CellFailure",
    "CostModel",
    "Deadline",
    "DiskTier",
    "EXECUTION_MODES",
    "FaultPolicy",
    "ON_ERROR_MODES",
    "EmbeddingCache",
    "EmbeddingExecutor",
    "EncodeLoop",
    "EncodeLoopClosedError",
    "EncodeLoopStuckError",
    "GroupScheduler",
    "PipelineStats",
    "SchedulerTelemetry",
    "WorkGroup",
    "WorkStealingSweep",
    "WorkerTelemetry",
    "encode_loop",
    "RuntimeConfig",
    "SkippedCell",
    "SweepCell",
    "SweepJournal",
    "SweepResult",
    "TransportConfig",
    "as_executor",
    "build_groups",
    "cache_entry_digest",
    "coords_fingerprint",
    "load_cost_model",
    "lpt_order",
    "order_cells",
    "plan_fingerprint",
    "resolve_execution",
    "resolve_on_error",
    "resolve_workers",
    "run_sweep",
    "table_fingerprint",
    "value_column_fingerprint",
]
