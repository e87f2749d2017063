"""Persistent column-embedding index with a provable exact mode.

:class:`ColumnIndex` serves top-k cosine joinability queries over a
persistent :class:`~repro.index.store.ShardStore` corpus.  Two pruning
modes trade latency against guarantees:

``off``
    Exhaustive scoring over the full normalized matrix.  **Provably
    bit-identical** to :class:`~repro.downstream.join_discovery.
    JoinDiscoveryIndex` — same keys, same float scores, same order —
    whenever the oracle is fed :meth:`ColumnIndex.quantize`-d embeddings
    in the same insertion order.  The identity rests on three verified
    numpy facts: float32→float64 conversion is exact, elementwise row
    normalization is layout-independent, and a matmul over rows folded
    block by block into one contiguous buffer is bit-identical to one
    over the equivalently-stacked matrix.  (A matmul over a *gathered
    subset* of rows is **not** — BLAS blocking differs by shape — which
    is exactly why the probe mode below carries a recall contract
    instead.)

``probe``
    Fixed-effort scan of the partitions whose centroids score highest
    (widened until at least ``max(k, min_candidates)`` candidates are
    gathered).  Fast and approximate: recall against the exhaustive
    top-k is floored at :data:`PROBE_RECALL_FLOOR` on clustered corpora
    and enforced by the test suite and CI on representative workloads.

A handle reads each shard once, when it folds that shard into one
growing float64 normalized matrix; an append folds only its own rows, and
the handle keeps no shard file open.  Partition plans are built from that
same matrix.  They are derived data keyed to the store generation
(rebuilt whenever the corpus changes); the store itself owns crash
safety, and every open checks each shard's byte sizes and sha256
digests, dropping a shard that fails rather than serving it.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import ColumnIndexError
from repro.index.partitions import (
    PartitionPlan,
    build_plan,
    deserialize_plan,
    partition_budget,
    serialize_plan,
)
from repro.index.store import ShardStore

PRUNE_MODES = ("off", "probe")
PROBE_RECALL_FLOOR = 0.9
DEFAULT_SHARD_ROWS = 4096
MIN_CANDIDATE_FLOOR = 32


def default_min_candidates(rows: int) -> int:
    """Probe-mode candidate floor: ~6·sqrt(N), at least 32.

    Coarse partitions hold ~sqrt(N) rows each, so this widens probe
    queries to roughly six partitions' worth of candidates — still a
    vanishing fraction of large corpora (≈3% at N=32k) but enough
    that measured recall stayed ≥0.9 per-query (≥0.99 mean) on the
    clustered corpora the benchmark and CI gate on.  Norm banding can
    split one semantic cluster across bands, so a single partition's
    worth of candidates is not safe even when the plan looks tight.
    """
    return max(MIN_CANDIDATE_FLOOR, int(np.ceil(6.0 * np.sqrt(max(rows, 1)))))


class ColumnIndex:
    """Persistent top-k cosine index over named column embeddings."""

    def __init__(
        self,
        directory: str,
        *,
        dim: Optional[int] = None,
        create: bool = False,
    ):
        self._directory = directory
        self._store = ShardStore(directory, dim=dim, create=create)
        # Folded rows live at the front of buffers with headroom; the
        # ``[:rows]`` views are what queries and plans read.
        self._buffer = np.empty((0, self.dim), dtype=np.float64)
        self._norm_buffer = np.empty(0, dtype=np.float64)
        self._dense = self._buffer
        self._all_norms = self._norm_buffer
        self._all_keys: List[str] = []
        self._folded_shards = 0
        self._plan: Optional[PartitionPlan] = None
        # Cumulative rows scored by queries: every row for ``off``, the
        # gathered candidates for ``probe``.
        self.rows_scored = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, directory: str, dim: int) -> "ColumnIndex":
        """Start a fresh (or reopen a matching) index at ``directory``."""
        return cls(directory, dim=dim, create=True)

    @classmethod
    def open(cls, directory: str) -> "ColumnIndex":
        """Open an existing index; raises if the directory holds none."""
        return cls(directory)

    @classmethod
    def build(
        cls,
        directory: str,
        items: Iterable[Tuple[str, np.ndarray]],
        *,
        dim: int,
        shard_rows: int = DEFAULT_SHARD_ROWS,
    ) -> "ColumnIndex":
        """Create an index and bulk-append ``(key, embedding)`` items."""
        index = cls.create(directory, dim)
        index.append_many(items, shard_rows=shard_rows)
        return index

    @staticmethod
    def quantize(embedding: np.ndarray) -> np.ndarray:
        """The storage quantization, exposed for oracle comparisons.

        Shards store float32; float32→float64 is exact, so an oracle fed
        ``quantize(v)`` sees the same float64 values the index serves.
        """
        return np.asarray(embedding, dtype=np.float32).astype(np.float64).ravel()

    # ------------------------------------------------------------------
    # Append
    # ------------------------------------------------------------------

    def append(self, key: str, embedding: np.ndarray) -> None:
        """Add one column embedding (one shard; prefer :meth:`append_many`)."""
        self.append_many([(key, embedding)])

    def append_many(
        self,
        items: Iterable[Tuple[str, np.ndarray]],
        *,
        shard_rows: int = DEFAULT_SHARD_ROWS,
    ) -> int:
        """Append embeddings in shard-sized batches; returns rows added."""
        if shard_rows < 1:
            raise ColumnIndexError("shard_rows must be positive")
        keys: List[str] = []
        rows: List[np.ndarray] = []
        norms: List[float] = []
        added = 0

        def flush() -> None:
            nonlocal added
            if not keys:
                return
            matrix = np.stack(rows).astype(np.float32)
            self._store.append(keys, matrix, np.asarray(norms, dtype=np.float64))
            added += len(keys)
            keys.clear()
            rows.clear()
            norms.clear()

        for key, embedding in items:
            row = self.quantize(embedding)
            if row.shape != (self.dim,):
                raise ColumnIndexError(f"expected a {self.dim}-d embedding")
            # The canonical norm: the exact per-row expression the
            # brute-force oracle evaluates at add time.
            norm = np.linalg.norm(row)
            if norm < 1e-12:
                raise ColumnIndexError(
                    "cannot index a zero embedding (after float32 quantization)"
                )
            keys.append(str(key))
            rows.append(row)
            norms.append(float(norm))
            if len(keys) >= shard_rows:
                flush()
        flush()
        return added

    # ------------------------------------------------------------------
    # In-memory views
    # ------------------------------------------------------------------

    def _fold(self) -> None:
        """Fold every shard not folded yet into the normalized matrix.

        Each shard is read once, here, and written as ``float64(shard) /
        norms`` into the buffer past the current view, so earlier views
        stay valid.  The buffer grows geometrically with 1.25x headroom:
        one-row appends rarely reallocate, and untouched headroom is not
        resident.
        """
        pending = self._store.shards[self._folded_shards:]
        if not pending:
            return
        rows = self._dense.shape[0]
        needed = rows + sum(meta.rows for meta in pending)
        if needed > self._buffer.shape[0]:
            capacity = max(8, needed + needed // 4)
            buffer = np.empty((capacity, self.dim), dtype=np.float64)
            buffer[:rows] = self._dense
            norm_buffer = np.empty(capacity, dtype=np.float64)
            norm_buffer[:rows] = self._all_norms
            self._buffer, self._norm_buffer = buffer, norm_buffer
        for meta in pending:
            shard = self._store.matrix(meta)
            norms = self._store.norms(meta)
            keys = self._store.keys(meta)
            end = rows + meta.rows
            # float32 -> float64 is exact, so this is bit-identical to
            # ``shard.astype(np.float64) / norms[:, None]``.
            np.divide(shard, norms[:, None], out=self._buffer[rows:end])
            self._norm_buffer[rows:end] = norms
            self._all_keys.extend(keys)
            self._dense = self._buffer[:end]
            self._all_norms = self._norm_buffer[:end]
            self._folded_shards += 1
            rows = end

    def _ensure_dense(self) -> np.ndarray:
        """Float64 normalized corpus matrix in global row order.

        The ``[:rows]`` view of the folded buffer: bit-identical to the
        oracle's ``np.stack(normalized rows)`` because elementwise
        division is layout-independent and a matmul over a contiguous
        view agrees bitwise with one over the equivalently stacked matrix.
        """
        self._fold()
        if not self._dense.shape[0]:
            raise ColumnIndexError("index is empty")
        return self._dense

    def _ensure_plan(self) -> PartitionPlan:
        """The current generation's plan: loaded if persisted, else built
        from the folded normalized matrix and persisted."""
        dense = self._ensure_dense()
        generation = self._store.generation
        if self._plan is not None and self._plan.generation == generation:
            return self._plan
        path = self._store.partition_path(generation)
        if os.path.exists(path):
            try:
                with open(path, "rb") as handle:
                    payload = handle.read()
            except OSError:
                payload = b""
            plan = deserialize_plan(payload, expect_generation=generation)
            if plan is not None and plan.assignments.shape[0] == dense.shape[0]:
                self._plan = plan
                return plan
        plan = build_plan(dense, self._all_norms, generation=generation)
        payload = serialize_plan(plan)
        self._store.write_derived(path, lambda fh: fh.write(payload))
        self._plan = plan
        return plan

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------

    def _prepare_query(self, embedding: np.ndarray, k: int) -> np.ndarray:
        if len(self) == 0:
            raise ColumnIndexError("index is empty")
        if not 1 <= k <= len(self):
            raise ColumnIndexError(f"k must be in [1, {len(self)}]")
        query = np.asarray(embedding, dtype=np.float64).ravel()
        if query.shape != (self.dim,):
            raise ColumnIndexError(f"expected a {self.dim}-d query embedding")
        norm = np.linalg.norm(query)
        if norm < 1e-12:
            raise ColumnIndexError("cannot look up a zero embedding")
        return query / norm

    def query(
        self,
        embedding: np.ndarray,
        k: int,
        *,
        prune: str = "off",
        probes: Optional[int] = None,
        min_candidates: Optional[int] = None,
    ) -> List[Tuple[str, float]]:
        """Top-k ``(key, cosine)`` under the requested pruning mode."""
        if prune not in PRUNE_MODES:
            raise ColumnIndexError(
                f"prune must be one of {PRUNE_MODES}, got {prune!r}"
            )
        unit = self._prepare_query(embedding, k)
        if prune == "off":
            return self._query_exact(unit, k)
        return self._query_probe(
            unit, k, probes=probes, min_candidates=min_candidates
        )

    def _query_exact(self, unit: np.ndarray, k: int) -> List[Tuple[str, float]]:
        # Mirrors JoinDiscoveryIndex.lookup expression for expression.
        dense = self._ensure_dense()
        scores = dense @ unit
        self.rows_scored += dense.shape[0]
        order = np.argsort(-scores, kind="stable")[:k]
        return [(self._all_keys[int(i)], float(scores[int(i)])) for i in order]

    def _query_probe(
        self,
        unit: np.ndarray,
        k: int,
        *,
        probes: Optional[int],
        min_candidates: Optional[int],
    ) -> List[Tuple[str, float]]:
        # Validate before the plan is built: a rejected query must not
        # leave a partitions-*.npz behind.
        if min_candidates is None:
            min_candidates = default_min_candidates(len(self))
        elif min_candidates < 1:
            raise ColumnIndexError("min_candidates must be positive")
        if probes is not None and probes < 1:
            raise ColumnIndexError("probes must be positive")
        dense = self._ensure_dense()
        plan = self._ensure_plan()
        # IVF-style: probe partitions in centroid-score order.
        order = np.argsort(-(plan.centroids @ unit), kind="stable")
        member_lists: List[np.ndarray] = []
        score_lists: List[np.ndarray] = []
        gathered = 0
        target = max(k, min_candidates)
        for rank, partition in enumerate(order):
            # Fixed effort, widened to a candidate floor.
            enough = gathered >= target
            past_probes = probes is not None and rank >= probes
            if enough and (probes is None or past_probes):
                break
            if past_probes and gathered >= k:
                break
            members = plan.members(int(partition))
            if members.size == 0:
                continue
            member_lists.append(members)
            score_lists.append(dense[members] @ unit)
            gathered += members.size
        self.rows_scored += gathered
        rows = np.concatenate(member_lists)
        scores = np.concatenate(score_lists)
        # (-score, row) ordering == stable argsort over the full corpus.
        top = np.lexsort((rows, -scores))[: min(k, rows.size)]
        return [(self._all_keys[int(rows[i])], float(scores[i])) for i in top]

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self._store.dim

    @property
    def generation(self) -> int:
        return self._store.generation

    @property
    def directory(self) -> str:
        return self._directory

    @property
    def dropped_shards(self) -> int:
        return self._store.dropped_shards

    def __len__(self) -> int:
        return self._store.total_rows

    def keys(self) -> List[str]:
        self._fold()
        return list(self._all_keys)

    def _peek_partitions(self) -> Optional[int]:
        """Partition count without forcing a plan build: the loaded plan
        when current, else a valid persisted one for this generation."""
        generation = self._store.generation
        if self._plan is not None and self._plan.generation == generation:
            return self._plan.partitions
        path = self._store.partition_path(generation)
        if os.path.exists(path):
            try:
                with open(path, "rb") as handle:
                    payload = handle.read()
            except OSError:
                return None
            plan = deserialize_plan(payload, expect_generation=generation)
            if plan is not None:
                return plan.partitions
        return None

    def describe(self) -> Dict[str, object]:
        """Machine-readable summary for the CLI and analysis rendering."""
        return {
            "directory": self._directory,
            "dim": self.dim,
            "rows": len(self),
            "shards": len(self._store.shards),
            "generation": self.generation,
            "partition_budget": partition_budget(len(self)) if len(self) else 0,
            "partitions": self._peek_partitions(),
            "dropped_shards": self.dropped_shards,
            "swept_files": self._store.swept_files,
            "rows_scored": self.rows_scored,
            "prune_modes": list(PRUNE_MODES),
            "probe_recall_floor": PROBE_RECALL_FLOOR,
        }

    # Pickle support: the on-disk store is the state; reopening replays
    # verification so an unpickled index can never serve dropped shards.
    def __getstate__(self) -> Dict[str, object]:
        return {"directory": self._directory}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__init__(str(state["directory"]))

    def __repr__(self) -> str:
        return (
            f"ColumnIndex({self._directory!r}, dim={self.dim}, rows={len(self)}, "
            f"generation={self.generation})"
        )
