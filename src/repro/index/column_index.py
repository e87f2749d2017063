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
    normalization is layout-independent, and a matmul over a
    concatenation of row blocks is bit-identical to one over the
    equivalently-stacked matrix.  (A matmul over a *gathered subset* of
    rows is **not** — BLAS blocking differs by shape — which is exactly
    why the probe mode below carries a recall contract instead.)

``probe``
    Fixed-effort scan of the partitions whose centroids score highest
    (widened until at least ``max(k, min_candidates)`` candidates are
    gathered).  Fast and approximate: recall against the exhaustive
    top-k is floored at :data:`PROBE_RECALL_FLOOR` on clustered corpora
    and enforced by the test suite and CI on representative workloads.

Partition plans are derived data keyed to the store generation (rebuilt
whenever the corpus changes); the store itself owns crash safety, and
every open checks each shard's byte sizes and sha256 digests, dropping a
shard that fails rather than serving it.
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
        self._dense: Optional[np.ndarray] = None
        self._dense_generation = -1
        self._all_keys: List[str] = []
        self._all_norms: Optional[np.ndarray] = None
        self._plan: Optional[PartitionPlan] = None

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

    def _ensure_dense(self) -> np.ndarray:
        """Float64 normalized corpus matrix in global row order.

        Built as a concatenation of per-shard ``float64(shard) / norms``
        blocks — bit-identical to the oracle's ``np.stack(normalized
        rows)`` because elementwise division is layout-independent and
        concatenated-vs-stacked matmuls agree bitwise.
        """
        if self._dense is not None and self._dense_generation == self._store.generation:
            return self._dense
        if not self._store.shards:
            raise ColumnIndexError("index is empty")
        parts = []
        keys: List[str] = []
        norm_parts = []
        for meta in self._store.shards:
            shard64 = self._store.matrix(meta).astype(np.float64)
            shard_norms = self._store.norms(meta)
            parts.append(shard64 / shard_norms[:, None])
            norm_parts.append(shard_norms)
            keys.extend(self._store.keys(meta))
        self._dense = np.concatenate(parts)
        self._all_keys = keys
        self._all_norms = np.concatenate(norm_parts)
        self._dense_generation = self._store.generation
        return self._dense

    def _ensure_plan(self) -> PartitionPlan:
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
        raw = np.concatenate(
            [self._store.matrix(meta).astype(np.float64) for meta in self._store.shards]
        )
        plan = build_plan(raw, self._all_norms, generation=generation)
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
        if self._store.total_rows and self._dense_generation != self._store.generation:
            self._ensure_dense()
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
