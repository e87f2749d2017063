"""Column-index benchmark: build throughput and query latency vs brute force.

Builds the persistent :class:`repro.index.ColumnIndex` over clustered
synthetic column-embedding corpora at several scales and measures, per
scale:

- **build throughput** (rows/s through ``append_many``, including shard
  digesting and the manifest protocol);
- **query latency** for the exhaustive oracle
  (:class:`JoinDiscoveryIndex`), the index's pruning-off mode, and the
  pruned ``probe`` mode;
- **probe recall** against the exhaustive top-k;
- **rows scored** per query in each mode (``ColumnIndex.rows_scored``):
  every row for ``off``, the gathered candidates for ``probe``.

Gates (every mode, every scale), all counts rather than wall-clock times,
so they hold on any hardware:

- pruning-off results are **bit-identical** to the brute-force oracle —
  keys, scores, and order — for every benchmarked query;
- probe mean recall >= the documented floor
  (:data:`repro.index.PROBE_RECALL_FLOOR`);
- the sublinear-curve check: at the largest benched corpus a probe query
  scores at most :data:`MAX_PROBE_FRACTION` of the rows an ``off`` query
  scores, and that fraction falls from the smallest scale to the largest.
  The timings are recorded as curves, not gated.

Usage::

    python benchmarks/bench_column_index.py                 # full scales
    python benchmarks/bench_column_index.py --smoke         # tiny CI gate
    python benchmarks/bench_column_index.py --json BENCH_column_index.json

``--json PATH`` writes every timing and recall into a machine-readable
record (written even when a gate fails, so CI keeps the evidence).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import tempfile
import time
from typing import Dict, List, Optional

import numpy as np

from repro.downstream.join_discovery import JoinDiscoveryIndex
from repro.index import PROBE_RECALL_FLOOR, ColumnIndex, default_min_candidates

DIM = 64
FULL_SCALES = (2000, 8000, 32000)
SMOKE_SCALES = (1000, 4000)
FULL_QUERIES = 50
SMOKE_QUERIES = 25
K = 10
MAX_PROBE_FRACTION = 0.25


def clustered_corpus(rng: np.random.Generator, rows: int):
    """Synthetic column embeddings with cluster structure (as real
    column corpora have: columns of one semantic type embed nearby)."""
    n_clusters = max(8, rows // 80)
    centers = rng.normal(size=(n_clusters, DIM)) * 4.0
    per = rows // n_clusters
    matrix = np.concatenate(
        [
            centers[c] + rng.normal(size=(per, DIM)) * 0.5
            for c in range(n_clusters)
        ]
    )[:rows]
    keys = [f"col{i}" for i in range(matrix.shape[0])]
    queries = np.stack(
        [
            centers[i % n_clusters] + rng.normal(size=DIM) * 0.5
            for i in range(FULL_QUERIES)
        ]
    )
    return keys, matrix, queries


def time_queries(fn, queries) -> float:
    """Mean seconds per query."""
    t0 = time.perf_counter()
    for query in queries:
        fn(query)
    return (time.perf_counter() - t0) / len(queries)


def time_index_queries(index: ColumnIndex, mode: str, queries):
    """Mean seconds and mean rows scored per ``mode`` query."""
    before = index.rows_scored
    seconds = time_queries(lambda q: index.query(q, K, prune=mode), queries)
    return seconds, (index.rows_scored - before) / len(queries)


def bench_scale(rows: int, n_queries: int, scratch: str) -> Dict[str, object]:
    rng = np.random.default_rng(rows)
    keys, matrix, queries = clustered_corpus(rng, rows)
    queries = queries[:n_queries]

    t0 = time.perf_counter()
    index = ColumnIndex.build(
        os.path.join(scratch, f"idx-{rows}"), zip(keys, matrix), dim=DIM
    )
    build_seconds = time.perf_counter() - t0

    oracle = JoinDiscoveryIndex(DIM)
    for key, row in zip(keys, matrix):
        oracle.add(key, ColumnIndex.quantize(row))

    # Warm every path before timing: oracle matrix view, index dense
    # matrix, and the persisted partition plan.
    oracle.lookup(queries[0], K)
    for mode in ("off", "probe"):
        index.query(queries[0], K, prune=mode)

    # Gate: pruning-off is bit-identical to brute force on every query.
    for query in queries:
        assert index.query(query, K, prune="off") == oracle.lookup(query, K), (
            f"pruning-off diverged from the exhaustive oracle at rows={rows}"
        )

    recalls: List[float] = []
    for query in queries:
        exact = {key for key, _ in oracle.lookup(query, K)}
        probe = {key for key, _ in index.query(query, K, prune="probe")}
        recalls.append(len(exact & probe) / K)

    t_exhaustive = time_queries(lambda q: oracle.lookup(q, K), queries)
    t_off, scored_off = time_index_queries(index, "off", queries)
    t_probe, scored_probe = time_index_queries(index, "probe", queries)

    return {
        "rows": len(keys),
        "dim": DIM,
        "k": K,
        "queries": len(queries),
        "build_seconds": build_seconds,
        "build_rows_per_s": len(keys) / max(build_seconds, 1e-9),
        "shards": index.describe()["shards"],
        "partitions": index.describe()["partitions"],
        "probe_candidate_floor": default_min_candidates(len(keys)),
        "t_exhaustive_ms": t_exhaustive * 1e3,
        "t_off_ms": t_off * 1e3,
        "t_probe_ms": t_probe * 1e3,
        "probe_speedup_vs_exhaustive": t_exhaustive / max(t_probe, 1e-9),
        "rows_scored_off": scored_off,
        "rows_scored_probe": scored_probe,
        "probe_scored_fraction": scored_probe / scored_off,
        "probe_recall_mean": float(np.mean(recalls)),
        "probe_recall_min": float(np.min(recalls)),
        "oracle_identical": True,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny scales + hardware-independent assertions (CI gate)",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        dest="json_path",
        help="write a machine-readable BENCH_*.json record",
    )
    args = parser.parse_args(argv)
    scales = SMOKE_SCALES if args.smoke else FULL_SCALES
    n_queries = SMOKE_QUERIES if args.smoke else FULL_QUERIES

    payload: Dict[str, object] = {
        "bench": "column_index",
        "schema_version": 3,
        "mode": "smoke" if args.smoke else "full",
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "dim": DIM,
        "k": K,
        "probe_recall_floor": PROBE_RECALL_FLOOR,
        "scales": [],
        "timestamp": time.time(),
    }

    print("=" * 72)
    print(
        f"Column index benchmark — scales {list(scales)}, dim {DIM}, "
        f"top-{K}, {n_queries} queries/scale"
    )
    print("=" * 72)
    try:
        with tempfile.TemporaryDirectory() as scratch:
            for rows in scales:
                record = bench_scale(rows, n_queries, scratch)
                payload["scales"].append(record)
                print(
                    f"rows={record['rows']:>6}: build "
                    f"{record['build_rows_per_s']:>9.0f} rows/s | query ms "
                    f"exhaustive {record['t_exhaustive_ms']:.3f} / "
                    f"off {record['t_off_ms']:.3f} / "
                    f"probe {record['t_probe_ms']:.3f} "
                    f"({record['probe_speedup_vs_exhaustive']:.1f}x) | "
                    f"probe scores {record['rows_scored_probe']:.0f} rows "
                    f"({record['probe_scored_fraction']:.3f}) | "
                    f"probe recall {record['probe_recall_mean']:.3f} "
                    f"(min {record['probe_recall_min']:.2f}) | oracle-identical"
                )

        # Recall floor at every scale (oracle identity asserted inline).
        for record in payload["scales"]:
            assert record["probe_recall_mean"] >= PROBE_RECALL_FLOOR, (
                f"probe recall {record['probe_recall_mean']:.3f} below floor "
                f"{PROBE_RECALL_FLOOR} at rows={record['rows']}"
            )
        # The sublinear payoff, counted: a probe query scores a small
        # share of the corpus at the largest scale, and a falling one as
        # the corpus grows.
        smallest, largest = payload["scales"][0], payload["scales"][-1]
        assert largest["probe_scored_fraction"] <= MAX_PROBE_FRACTION, (
            f"probe scored {largest['rows_scored_probe']:.0f} of "
            f"{largest['rows_scored_off']:.0f} rows per query at "
            f"rows={largest['rows']}, above {MAX_PROBE_FRACTION}"
        )
        assert largest["probe_scored_fraction"] < smallest["probe_scored_fraction"], (
            "probe's scored fraction did not fall with corpus size: "
            f"{smallest['probe_scored_fraction']:.3f} at rows={smallest['rows']}, "
            f"{largest['probe_scored_fraction']:.3f} at rows={largest['rows']}"
        )
        payload["gates_passed"] = True
        print(
            f"gates: oracle identity at every scale; probe recall >= "
            f"{PROBE_RECALL_FLOOR}; probe scores "
            f"{largest['probe_scored_fraction']:.3f} of the corpus at "
            f"rows={largest['rows']} (<= {MAX_PROBE_FRACTION}), down from "
            f"{smallest['probe_scored_fraction']:.3f} at rows={smallest['rows']}"
        )
    finally:
        if args.json_path:
            with open(args.json_path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True, default=str)
            print(f"wrote {args.json_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
