"""Batched embedding planner.

:class:`EmbeddingExecutor` sits between property runners and an
:class:`~repro.models.base.EmbeddingModel`.  Runners declare *what* they
need — "column/row/table embeddings of these 200 variant tables", "these
400 standalone value columns" — and the executor decides *how* to get it:

1. **Deduplicate** requests by content fingerprint (shuffle sweeps and
   context settings re-embed identical tables constantly).
2. **Probe the cache** keyed ``(model, level, fingerprint)`` so variants
   shared across properties (e.g. the identity permutation P1 and P2 both
   embed) are computed once per model.
3. **Bundle levels**: one encoder forward pass yields column, row, *and*
   table embeddings of a table (the legacy path ran three).
4. **Batch the encoder**: misses are driven through
   ``EmbeddingModel.embed_levels_batch`` in configurable batches rather
   than one-table-at-a-time loops.

The executor also duck-types the single-call ``embed_*`` surface of
:class:`EmbeddingModel` (with caching), so any code written against a raw
model — entity catalogs, downstream harnesses, custom properties — works
unchanged against an executor.

A ``naive=True`` executor disables every optimization and reproduces the
pre-runtime compute profile (separate encode per level, no dedup, no
cache); it is the reference the runtime's results must equal bit for
bit, and the baseline ``tests/test_runtime_sweep.py`` counts encoder
tokens against.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.telemetry as telemetry
from repro.core.levels import EmbeddingLevel
from repro.errors import ModelError
from repro.models.backends import (
    EncoderBackend,
    LocalBackend,
    TransportConfig,
    available_backends,
)
from repro.relational.table import Table
from repro.runtime.cache import CacheStats, EmbeddingCache
from repro.runtime.fingerprint import table_fingerprint, value_column_fingerprint
from repro.runtime.pipeline import PipelineStats, encode_loop

# perfbench/tracer.py hooks planner.coords_fingerprint by name; the
# planner itself does not call it.
from repro.runtime.fingerprint import coords_fingerprint  # noqa: F401

# Levels the bundle path covers; CELL and ENTITY requests carry extra
# arguments and go through their dedicated cached entry points.
BUNDLE_LEVELS = (EmbeddingLevel.COLUMN, EmbeddingLevel.ROW, EmbeddingLevel.TABLE)


def _records(key_fields: List[Tuple[str, str]], rows: List[tuple], dim: int) -> np.ndarray:
    """Structured records ``key_fields + [("vec", ...)]`` of ``(*key, vector)`` rows.

    How the cache holds a table's cell or entity embeddings: one plain
    array, which the disk tier persists like any level embedding.
    """
    vec = rows[0][-1] if rows else np.empty(dim)
    return np.array(rows, dtype=key_fields + [("vec", vec.dtype, vec.shape)])


@dataclasses.dataclass(frozen=True)
class RuntimeConfig:
    """Knobs of the characterization runtime.

    Attributes:
        enabled: when False the Observatory runs every embedding request
            through the legacy one-call-at-a-time path (no cache, no
            batching) — the reference configuration tests compare
            the runtime against.
        batch_size: tables per encoder batch in ``embed_levels_batch``.
        cache_entries: memory-tier LRU capacity of the shared cache.
        disk_cache_dir: optional directory for the persistent cache tier.
        cache_max_bytes: byte budget of the disk tier (``None`` =
            unbounded); size eviction is least-recently-used.  It is the
            tier's one space bound: entries are content-addressed and
            deterministic, so none goes stale with age.
        max_workers: default worker count for ``Observatory.sweep``
            (``None`` defers to the ``REPRO_SWEEP_WORKERS`` environment
            variable, falling back to one worker per unit of work,
            capped at 4).
        execution: default sweep execution mode — ``"thread"`` (one pool of
            threads sharing this process's cache) or ``"process"``
            (spawned worker processes pulling corpus-affinity work groups
            from the process scheduler, sharing only the disk tier).
            ``None`` defers to the ``REPRO_SWEEP_EXECUTION`` environment
            variable, falling back to ``"thread"``.
        backend: encoder backend name (``"local"``/``"remote"`` or
            anything registered); ``None`` means ``"local"``, exact
            same-length batching, bit-identical to single-sequence
            encoding.
        transport: the remote encoder fleet's
            :class:`~repro.models.backends.TransportConfig` — replica
            URLs, timeout/retries, compression and state dtype in one
            typed object (``backend="remote"``).  Its
            ``state_dtype="float32"`` is the one tolerance tier.
            ``None`` with ``backend="remote"`` falls back to
            ``$REPRO_REMOTE_URL``.
        async_encode: stream encoder batches through the background
            asyncio encode loop so serialization/fingerprinting of the
            next chunk overlaps the current chunk's forward passes.
            Results are unchanged (the local backend stays bit-identical);
            this is purely a scheduling knob.

    A sweep's failure mode and fault budget are arguments of
    ``Observatory.sweep`` (``on_error=``, ``fault_policy=``), not runtime
    fields.
    """

    enabled: bool = True
    batch_size: int = 8
    cache_entries: int = 16384
    disk_cache_dir: Optional[str] = None
    cache_max_bytes: Optional[int] = None
    max_workers: Optional[int] = None
    execution: Optional[str] = None
    backend: Optional[str] = None
    async_encode: bool = True
    transport: Optional[TransportConfig] = None

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.cache_entries < 1:
            raise ValueError("cache_entries must be positive")
        if self.cache_max_bytes is not None and self.cache_max_bytes < 1:
            raise ValueError("cache_max_bytes must be positive")
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be positive")
        if self.execution not in (None, "thread", "process"):
            raise ValueError(
                f"execution must be 'thread' or 'process', got {self.execution!r}"
            )
        if self.transport is not None and not isinstance(self.transport, TransportConfig):
            raise ValueError(
                "transport must be a TransportConfig or None, "
                f"got {type(self.transport).__name__}"
            )
        if self.backend is not None:
            if self.backend not in available_backends():
                raise ValueError(
                    f"unknown backend {self.backend!r}; "
                    f"available: {', '.join(available_backends())}"
                )
            # Probe the actual backend rather than special-casing names:
            # misconfiguration (a remote backend without a URL) must fail
            # at configuration time, not mid-sweep.
            try:
                self.build_backend()
            except ModelError as error:
                raise ValueError(str(error)) from None

    def backend_name(self) -> str:
        """The resolved backend: the explicit name, else ``"local"``."""
        return self.backend or "local"

    def build_backend(self) -> EncoderBackend:
        """One backend instance per call (stats are per-instance)."""
        name = self.backend_name()
        if name == "local":
            return LocalBackend()
        if name == "remote":
            from repro.models.backends.remote import RemoteBackend

            # transport=None falls through to RemoteBackend's own
            # $REPRO_REMOTE_URL fallback.
            return RemoteBackend(config=self.transport)
        from repro.models.backends import resolve_backend

        return resolve_backend(name)

    def build_cache(self) -> Optional[EmbeddingCache]:
        if not self.enabled:
            return None
        return EmbeddingCache(
            max_entries=self.cache_entries,
            disk_dir=self.disk_cache_dir,
            disk_max_bytes=self.cache_max_bytes,
        )


class EmbeddingExecutor:
    """Plan, deduplicate, cache, and batch embedding requests for one model.

    With ``async_encode`` (the default), pending encode work streams
    through the shared background :func:`~repro.runtime.pipeline.encode_loop`
    in chunks: while chunk *k* runs its forward passes (BLAS, GIL
    released), the executor serializes chunk *k+1* and aggregates chunk
    *k-1* on the calling thread.  The public surface stays fully
    synchronous — callers never touch the event loop — and outputs are
    unchanged: chunking only regroups independent sequences.
    """

    def __init__(
        self,
        model,
        cache: Optional[EmbeddingCache] = None,
        *,
        batch_size: int = 8,
        naive: bool = False,
        async_encode: bool = True,
        pipeline_chunk: Optional[int] = None,
    ):
        self.model = model
        self.cache = cache
        self.batch_size = batch_size
        self.naive = naive
        self.async_encode = async_encode
        # One encoder batch per submission: a chunk's encode (~10ms+)
        # dwarfs the event-loop round-trip (~0.1ms), so fine granularity
        # buys overlap without measurable overhead; streaming engages only
        # when at least two chunks exist.
        self.pipeline_chunk = pipeline_chunk or max(4, batch_size)
        self.name = model.name
        self.dim = model.dim
        backend = getattr(getattr(model, "encoder", None), "backend", None)
        # The backend declares its own cache key space (EncoderBackend.
        # cache_namespace): tolerance-tier results must never cross into
        # an exact run through a shared/persistent cache, and remote
        # results stay isolated even when exact (the producer lives
        # outside this process's trust boundary).  Plain exact in-process
        # backends return None and share the model's namespace — their
        # entries are bit-identical by contract, so interchangeable.
        namespace = getattr(backend, "cache_namespace", None)
        if namespace is None and backend is not None and not getattr(backend, "exact", True):
            # Duck-typed third-party backends without the property still
            # get the PR 3 isolation rule.
            namespace = getattr(backend, "name", "inexact")
        self._cache_space = f"{model.name}|{namespace}" if namespace else model.name
        self._pipeline_lock = threading.Lock()
        self._pipeline_stats = PipelineStats()

    def __repr__(self) -> str:
        mode = "naive" if self.naive else "batched"
        return f"EmbeddingExecutor({self.name!r}, mode={mode}, cached={self.cache is not None})"

    @property
    def pipeline_stats(self) -> PipelineStats:
        """Snapshot of this executor's async-encode accounting."""
        with self._pipeline_lock:
            return dataclasses.replace(self._pipeline_stats)

    # ------------------------------------------------------------------
    # EmbeddingModel surface (duck-typed, cached)
    # ------------------------------------------------------------------

    def supported_levels(self) -> frozenset:
        return self.model.supported_levels()

    def supports(self, level: EmbeddingLevel) -> bool:
        return self.model.supports(level)

    def embed_columns(self, table: Table) -> np.ndarray:
        return self.embed_levels(table, (EmbeddingLevel.COLUMN,))[EmbeddingLevel.COLUMN]

    def embed_rows(self, table: Table) -> np.ndarray:
        return self.embed_levels(table, (EmbeddingLevel.ROW,))[EmbeddingLevel.ROW]

    def embed_table(self, table: Table) -> np.ndarray:
        return self.embed_levels(table, (EmbeddingLevel.TABLE,))[EmbeddingLevel.TABLE]

    def embed_cells(
        self, table: Table, coords: Sequence[Tuple[int, int]]
    ) -> Dict[Tuple[int, int], np.ndarray]:
        """Embeddings of the requested cells; cells truncated away are absent.

        The cache holds one entry per table: on a miss the model embeds
        every cell of the table in one call, kept as ``(row, col, vec)``
        records sorted by coordinate, so any later request for the same
        table, in this process or over a warm disk tier, encodes nothing.
        Each call returns a fresh dict of the requested cells present.
        :func:`~repro.models.aggregate.cell_embeddings` pools each cell
        from its own tokens alone, so every vector is bit-identical to a
        direct request for just these coordinates.
        """
        if self.naive or self.cache is None:
            return self.model.embed_cells(table, coords)
        key = (self._cache_space, "cells", table_fingerprint(table))
        records = self.cache.get(key)
        if records is None:
            cells = self.model.embed_cells(
                table,
                [(r, c) for r in range(table.num_rows) for c in range(table.num_columns)],
            )
            records = _records(
                [("row", "<i8"), ("col", "<i8")],
                [(r, c, cells[r, c]) for r, c in sorted(cells)],
                self.dim,
            )
            self.cache.put(key, records)
        wanted = set(coords)
        return {
            (r, c): vec
            for r, c, vec in zip(
                records["row"].tolist(), records["col"].tolist(), records["vec"]
            )
            if (r, c) in wanted
        }

    def embed_entities(self, table: Table) -> Dict[str, np.ndarray]:
        """Embeddings of the table's linked entities, keyed by entity id.

        Cached as one entry per table, ``(id, vec)`` records sorted by id,
        which the disk tier persists; each call returns a fresh dict.
        """
        if self.naive or self.cache is None:
            return self.model.embed_entities(table)
        key = (self._cache_space, "entity", table_fingerprint(table))
        records = self.cache.get(key)
        if records is None:
            entities = self.model.embed_entities(table)
            ids = sorted(entities)
            records = _records(
                [("id", f"<U{max([1, *map(len, ids)])}")],
                [(i, entities[i]) for i in ids],
                self.dim,
            )
            self.cache.put(key, records)
        return dict(zip(records["id"].tolist(), records["vec"]))

    def embed_value_column(self, header: str, values: Sequence[object]) -> np.ndarray:
        return self.embed_value_columns([(header, list(values))])[0]

    # ------------------------------------------------------------------
    # Batch planning API
    # ------------------------------------------------------------------

    def embed_levels(
        self, table: Table, levels: Sequence[EmbeddingLevel]
    ) -> Dict[EmbeddingLevel, np.ndarray]:
        """Requested level embeddings of one table (one encode when possible)."""
        return self.embed_levels_many([table], levels)[0]

    def embed_levels_many(
        self,
        tables: Sequence[Table],
        levels: Sequence[EmbeddingLevel],
    ) -> List[Dict[EmbeddingLevel, np.ndarray]]:
        """Level embeddings for every table, deduplicated, cached, batched.

        Returns one ``{level: array}`` dict per input table, in input
        order.  Duplicate tables (by content fingerprint) are embedded
        once; cache hits skip computation entirely; the remaining misses
        are driven through the model's batch encoder.
        """
        levels = tuple(levels)
        unknown = set(levels) - set(BUNDLE_LEVELS)
        if unknown:
            raise ValueError(f"embed_levels_many covers {BUNDLE_LEVELS}, got {unknown}")
        if self.naive:
            return [self._compute_naive(table, levels) for table in tables]

        fingerprints = [table_fingerprint(t) for t in tables]
        # One slot per *unique* table, preserving first-seen order.
        slots: Dict[str, Dict[EmbeddingLevel, np.ndarray]] = {}
        pending: List[Tuple[str, Table, Tuple[EmbeddingLevel, ...]]] = []
        for fp, table in zip(fingerprints, tables):
            if fp in slots:
                continue
            bundle: Dict[EmbeddingLevel, np.ndarray] = {}
            if self.cache is not None:
                for level in levels:
                    hit = self.cache.get((self._cache_space, level.value, fp))
                    if hit is not None:
                        bundle[level] = hit
            slots[fp] = bundle
            missing = tuple(lv for lv in levels if lv not in bundle)
            if missing:
                pending.append((fp, table, missing))

        if pending:
            computed = self._compute_pending(
                [t for _, t, _ in pending], [lv for _, _, lv in pending]
            )
            for (fp, _, missing), bundle in zip(pending, computed):
                slots[fp].update(bundle)
                if self.cache is not None:
                    for level in missing:
                        self.cache.put((self._cache_space, level.value, fp), bundle[level])

        return [dict(slots[fp]) for fp in fingerprints]

    def embed_value_columns(
        self, requests: Sequence[Tuple[str, Sequence[object]]]
    ) -> List[np.ndarray]:
        """Standalone column embeddings for many (header, values) requests."""
        if self.naive:
            return [
                self.model.embed_value_column(header, list(values))
                for header, values in requests
            ]
        out: List[Optional[np.ndarray]] = [None] * len(requests)
        first_seen: Dict[str, List[int]] = {}
        for i, (header, values) in enumerate(requests):
            fp = value_column_fingerprint(header, values)
            first_seen.setdefault(fp, []).append(i)
        misses: List[str] = []
        for fp, indices in first_seen.items():
            # `is not None`, not truthiness: an empty memory tier is
            # falsy (__len__ == 0) but may still front a warm disk tier.
            value = (
                self.cache.get((self._cache_space, "valuecol", fp))
                if self.cache is not None
                else None
            )
            if value is None:
                misses.append(fp)
            else:
                for i in indices:
                    out[i] = value
        if misses:
            miss_requests = [
                (requests[first_seen[fp][0]][0], list(requests[first_seen[fp][0]][1]))
                for fp in misses
            ]
            batch_api = getattr(self.model, "embed_value_columns_batch", None)
            if batch_api is not None:
                values = batch_api(miss_requests, batch_size=self.batch_size)
            else:
                values = [
                    self.model.embed_value_column(h, v) for h, v in miss_requests
                ]
            for fp, value in zip(misses, values):
                if self.cache is not None:
                    self.cache.put((self._cache_space, "valuecol", fp), value)
                for i in first_seen[fp]:
                    out[i] = value
        return out

    # ------------------------------------------------------------------

    @property
    def cache_stats(self) -> Optional[CacheStats]:
        return self.cache.stats if self.cache is not None else None

    _LEVEL_METHODS = {
        EmbeddingLevel.COLUMN: "embed_columns",
        EmbeddingLevel.ROW: "embed_rows",
        EmbeddingLevel.TABLE: "embed_table",
    }

    def _compute_naive(
        self, table: Table, levels: Tuple[EmbeddingLevel, ...]
    ) -> Dict[EmbeddingLevel, np.ndarray]:
        """Legacy path: one dedicated model call (one encode) per level."""
        return {
            level: getattr(self.model, self._LEVEL_METHODS[level])(table)
            for level in levels
        }

    def _compute_pending(
        self,
        tables: Sequence[Table],
        levels_list: Sequence[Tuple[EmbeddingLevel, ...]],
    ) -> List[Dict[EmbeddingLevel, np.ndarray]]:
        """Compute cache misses: streamed through the encode loop when
        worthwhile, plain batch otherwise."""
        if self.async_encode and len(tables) > self.pipeline_chunk:
            computed = self._compute_streaming(tables, levels_list)
            if computed is not None:
                return computed
        return self._compute_batch(tables, levels_list)

    def _compute_batch(
        self,
        tables: Sequence[Table],
        levels_list: Sequence[Tuple[EmbeddingLevel, ...]],
    ) -> List[Dict[EmbeddingLevel, np.ndarray]]:
        batch_api = getattr(self.model, "embed_levels_batch", None)
        if batch_api is not None:
            return batch_api(tables, levels_list, batch_size=self.batch_size)
        bundle_api = getattr(self.model, "embed_levels", None)
        if bundle_api is not None:
            return [bundle_api(t, lv) for t, lv in zip(tables, levels_list)]
        # Generic EmbeddingModel: no shared-encode capability, call per level.
        return [
            self._compute_naive(t, lv) for t, lv in zip(tables, levels_list)
        ]

    def _compute_streaming(
        self,
        tables: Sequence[Table],
        levels_list: Sequence[Tuple[EmbeddingLevel, ...]],
    ) -> Optional[List[Dict[EmbeddingLevel, np.ndarray]]]:
        """Producer/consumer plan over the background encode loop.

        Chunk *k*'s token arrays (columnar
        :class:`~repro.models.token_array.TokenArray` sequences) encode on
        the loop while this thread serializes chunk *k+1* and aggregates
        chunk *k-1*.  Returns
        ``None`` when the model offers no serialize/encode/finish split
        (generic models, ROW_TEMPLATE serialization) — callers fall back
        to the synchronous batch path.
        """
        serialize = getattr(self.model, "serialize_levels", None)
        finish = getattr(self.model, "finish_levels", None)
        encoder = getattr(self.model, "encoder", None)
        if serialize is None or finish is None or encoder is None:
            return None
        timings = telemetry.current()
        loop = encode_loop()
        out: List[Dict[EmbeddingLevel, np.ndarray]] = []
        prev: Optional[Tuple[object, object]] = None  # (plan, future)

        def collect(plan, future) -> None:
            t0 = time.perf_counter()
            states = future.result()
            waited = time.perf_counter() - t0
            with self._pipeline_lock:
                self._pipeline_stats.wait_seconds += waited
            out.extend(finish(plan, states))

        start = 0
        while start < len(tables):
            end = start + self.pipeline_chunk
            plan = serialize(tables[start:end], levels_list[start:end])
            if plan is None:
                # No shared encoder pass for this model; first chunk, so
                # nothing is in flight yet — let the sync path handle all.
                return None
            future = loop.submit(
                self._encode_on_loop(encoder, plan.token_lists, timings)
            )
            if prev is not None:
                collect(*prev)  # aggregate k-1 while k encodes
            prev = (plan, future)
            start = end
        if prev is not None:
            collect(*prev)
        return out

    async def _encode_on_loop(self, encoder, token_lists, timings):
        """One chunk's encode via the backend's awaitable entry point.

        Busy time is credited to the *submitting* cell's telemetry (the
        captured ``timings``) and to this executor's pipeline stats — the
        foreground thread is elsewhere while this runs.
        """
        t0 = time.perf_counter()
        try:
            return await encoder.aencode_batch(
                token_lists, batch_size=self.batch_size
            )
        finally:
            busy = time.perf_counter() - t0
            telemetry.add("encode", busy, timings=timings)
            with self._pipeline_lock:
                self._pipeline_stats.batches += 1
                self._pipeline_stats.sequences += len(token_lists)
                self._pipeline_stats.encode_seconds += busy


def as_executor(model) -> EmbeddingExecutor:
    """Wrap a raw model in a (cacheless) executor; executors pass through.

    Property runners call this on whatever they were handed, so they can be
    driven either directly with an :class:`EmbeddingModel` (standalone use,
    tests) or with a cache-backed executor from the Observatory runtime.
    """
    if isinstance(model, EmbeddingExecutor):
        return model
    return EmbeddingExecutor(model)
