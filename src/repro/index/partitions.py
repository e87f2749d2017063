"""Deterministic norm-banded coarse partitions for candidate pruning.

The pruning layer splits the corpus into coarse partitions and keeps, per
partition, a unit-norm centroid of the *normalized* member rows.  A
``probe`` query scores the centroids and scans only the members of the
best-scoring partitions (IVF-style).

Partitioning is **norm-banded**: rows are first bucketed into quantile
bands of their raw (pre-normalization) L2 norm — column embeddings from
serialized tables correlate norm with token mass, so banding groups
columns of similar "size" — then each band is split by a small,
deterministic Lloyd k-means over the normalized rows.  Everything is
seeded from ``(rows, dim)`` only, never from wall-clock or global RNG
state, so the same corpus always yields the same plan.

The plan is persisted as ``partitions-<generation>.npz`` with an embedded
self-digest; a stale generation, an older :data:`PLAN_VERSION`, a torn
file, or a digest mismatch simply triggers a rebuild — the plan is
derived data and never authoritative.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
from typing import List, Optional

import numpy as np

NORM_BANDS = 4
KMEANS_ITERATIONS = 6
# Bumped whenever the file layout changes: a plan of another version is
# refused and rebuilt.
PLAN_VERSION = 2
# Fixed, not PLAN_VERSION: a file-layout change must not move the k-means
# seed, and with it the partitions and every probe result.
_SEED_SALT = 1


@dataclasses.dataclass(frozen=True)
class PartitionPlan:
    """Partition assignment over the corpus's global row order.

    ``assignments[i]`` is row ``i``'s partition id and ``centroids``
    holds one unit-norm row per partition.  ``generation`` ties the plan
    to the shard-store state it was computed from.
    """

    generation: int
    assignments: np.ndarray  # (rows,) int32
    centroids: np.ndarray  # (partitions, dim) float64, unit rows

    @property
    def partitions(self) -> int:
        return int(self.centroids.shape[0])

    def members(self, partition: int) -> np.ndarray:
        return np.nonzero(self.assignments == partition)[0]


def partition_budget(rows: int) -> int:
    """Total partition count: ~sqrt(N), at least 1, capped at 4096."""
    return max(1, min(4096, int(round(np.sqrt(rows)))))


def _band_edges(norms: np.ndarray, bands: int) -> np.ndarray:
    qs = np.linspace(0.0, 1.0, bands + 1)[1:-1]
    return np.quantile(norms, qs)


def _kmeans(
    normalized: np.ndarray, clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """Fixed-iteration Lloyd k-means; returns per-row cluster labels."""
    rows = normalized.shape[0]
    clusters = min(clusters, rows)
    if clusters <= 1:
        return np.zeros(rows, dtype=np.int64)
    seeds = rng.choice(rows, size=clusters, replace=False)
    centroids = normalized[seeds].copy()
    labels = np.zeros(rows, dtype=np.int64)
    for _ in range(KMEANS_ITERATIONS):
        # Unit rows: maximizing dot product == minimizing Euclidean distance.
        labels = np.argmax(normalized @ centroids.T, axis=1)
        for cluster in range(clusters):
            mask = labels == cluster
            if not mask.any():
                # Re-seed an empty cluster on the row farthest from its centroid.
                scores = np.einsum("ij,ij->i", normalized, centroids[labels])
                centroids[cluster] = normalized[int(np.argmin(scores))]
                continue
            mean = normalized[mask].mean(axis=0)
            length = np.linalg.norm(mean)
            centroids[cluster] = mean / length if length > 0 else mean
    return labels


def build_plan(
    normalized: np.ndarray, norms: np.ndarray, *, generation: int
) -> PartitionPlan:
    """Compute the deterministic plan for a corpus.

    ``normalized`` is the float64 corpus in global row order with each
    row already divided by its norm (the matrix the index scores), and
    ``norms`` the canonical per-row raw norms, which pick the bands.
    """
    rows, dim = normalized.shape
    budget = partition_budget(rows)
    rng = np.random.default_rng(hash((rows, dim, _SEED_SALT)) & 0xFFFFFFFF)

    bands = min(NORM_BANDS, rows)
    edges = _band_edges(norms, bands)
    band_of = np.searchsorted(edges, norms, side="right")

    assignments = np.empty(rows, dtype=np.int32)
    centroid_rows: List[np.ndarray] = []
    next_id = 0
    for band in range(bands):
        member_idx = np.nonzero(band_of == band)[0]
        if member_idx.size == 0:
            continue
        share = max(1, int(round(budget * member_idx.size / rows)))
        labels = _kmeans(normalized[member_idx], share, rng)
        for cluster in range(int(labels.max()) + 1):
            cluster_idx = member_idx[labels == cluster]
            if cluster_idx.size == 0:
                continue
            mean = normalized[cluster_idx].mean(axis=0)
            length = np.linalg.norm(mean)
            assignments[cluster_idx] = next_id
            centroid_rows.append(mean / length if length > 0 else mean)
            next_id += 1
    return PartitionPlan(
        generation=generation,
        assignments=assignments,
        centroids=np.vstack(centroid_rows),
    )


def _plan_digest(generation: int, assignments: np.ndarray, centroids: np.ndarray) -> str:
    digest = hashlib.sha256()
    digest.update(f"{PLAN_VERSION}:{generation}".encode("ascii"))
    for array in (assignments, centroids):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def serialize_plan(plan: PartitionPlan) -> bytes:
    buffer = io.BytesIO()
    np.savez(
        buffer,
        plan_version=np.int64(PLAN_VERSION),
        generation=np.int64(plan.generation),
        assignments=plan.assignments,
        centroids=plan.centroids,
        digest=np.frombuffer(
            _plan_digest(plan.generation, plan.assignments, plan.centroids).encode(
                "ascii"
            ),
            dtype=np.uint8,
        ),
    )
    return buffer.getvalue()


def deserialize_plan(payload: bytes, *, expect_generation: int) -> Optional[PartitionPlan]:
    """Load a persisted plan; ``None`` on any mismatch or corruption."""
    try:
        with np.load(io.BytesIO(payload)) as archive:
            if int(archive["plan_version"]) != PLAN_VERSION:
                return None
            generation = int(archive["generation"])
            if generation != expect_generation:
                return None
            assignments = archive["assignments"]
            centroids = archive["centroids"]
            stored = archive["digest"].tobytes().decode("ascii")
        if stored != _plan_digest(generation, assignments, centroids):
            return None
        if assignments.ndim != 1 or centroids.ndim != 2:
            return None
        return PartitionPlan(
            generation=generation, assignments=assignments, centroids=centroids
        )
    except (OSError, ValueError, KeyError, UnicodeDecodeError, EOFError):
        return None
