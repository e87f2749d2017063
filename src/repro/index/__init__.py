"""Persistent columnar ANN index for joinability search.

Queries run in one of two modes (:data:`PRUNE_MODES`): exhaustive
``off``, bit-identical to the brute-force oracle, and partition-probing
``probe``, floored at :data:`PROBE_RECALL_FLOOR` recall.  See
:mod:`repro.index.column_index` for the query-mode guarantees and
:mod:`repro.index.store` for the crash-safety protocol.
"""

from repro.index.column_index import (
    PROBE_RECALL_FLOOR,
    PRUNE_MODES,
    ColumnIndex,
    default_min_candidates,
)
from repro.index.partitions import PartitionPlan, partition_budget
from repro.index.store import ShardStore

__all__ = [
    "PROBE_RECALL_FLOOR",
    "PRUNE_MODES",
    "ColumnIndex",
    "PartitionPlan",
    "ShardStore",
    "default_min_candidates",
    "partition_budget",
]
