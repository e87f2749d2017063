"""Runtime benchmark: batched/cached ``Observatory.sweep`` vs legacy path.

Measures the characterization runtime on the default benchmark matrix
(2 models x 4 properties) in three configurations:

1. **naive** — sequential ``characterize`` calls with the runtime disabled
   (``RuntimeConfig(enabled=False)``): one encoder pass per level per
   variant, no deduplication, no cache.  This is the pre-runtime compute
   profile.
2. **cold sweep** — ``Observatory.sweep`` with an empty cache: levels are
   bundled into one encoder pass per variant, requests are deduplicated by
   content hash, short sequences are batch-encoded.
3. **warm sweep** — the same sweep again on the primed cache: the
   re-characterization a practitioner triggers every time they iterate on
   analysis code, add a measure, or regenerate a report over unchanged
   data.  Only fingerprinting and the measures themselves are recomputed.

It then measures **process execution**
(``Observatory.sweep(execution="process")``): cells spread across spawned
worker processes sharing an on-disk cache tier, which scales the
GIL-bound Python half of the matrix past one core.  Reported as
single-process vs multi-process wall-clock (thread-vs-process scaling);
on a single-core host the run degenerates to spawn overhead and the
report says so.

The **scheduler** section runs the work-stealing scheduler
(:class:`WorkStealingSweep`, LPT-ordered corpus-affinity groups pulled
by persistent workers) on a fresh disk tier and asserts its results
bit-identical to a thread-engine sweep; the record then carries the
dispatch log, steal/re-dispatch/crash counts, per-worker busy fractions,
and the measured per-cell seconds as ``scheduler.cell_records`` — the
telemetry priors a later sweep reloads via ``--cost-priors`` /
``$REPRO_SWEEP_COST_PRIORS`` for LPT dispatch.

Reported speedups: cold (architecture only), warm (cache), and the
two-pass analysis workflow (characterize once, re-characterize once) —
the workflow number is the headline the runtime targets (>= 3x); the cold
number guards the architectural win on its own.  All configurations —
including every process shard count — must produce numerically identical
``PropertyResult`` measures.

It also measures the **encoder-backend tiers**: exact same-length
batching vs padded tolerance-tier batching on a heterogeneous-length
corpus where every sequence has a distinct token length (same-length
grouping degenerates to batch-size-1 there), plus the **streaming
pipeline**: cold sweeps with async encode on vs off, reporting how much
encode time overlapped foreground CPU work.

The **remote transport** section encodes a corpus through
:class:`RemoteBackend` against the in-process loopback service double
(a real local backend behind the HTTP wire), asserts bit-identity, and
records the transport overhead (round trips, bytes, latency-aware chunk
suggestion) into the JSON record — no gate: on a loopback link the wire
is pure overhead by construction.

The **columnar token plane** section times serialization and aggregation
on the interned-id array path against the frozen PR 3 Token-object path
(``serialize_tokens`` + :mod:`repro.models.reference_plane`), asserting
the outputs bit-identical first.  The cold sweep's telemetry-measured
per-phase totals (serialize/encode/aggregate seconds) land in the JSON
record as ``phase_seconds``; the full (non-smoke) run gates the combined
serialize+aggregate speedup at >= 1.5x — smoke stays ungated because
1-core CI timing is too noisy for a fresh phase gate.

Usage::

    python benchmarks/bench_runtime_sweep.py                       # full benchmark
    python benchmarks/bench_runtime_sweep.py --smoke               # tiny CI gate
    python benchmarks/bench_runtime_sweep.py --smoke --execution process
    python benchmarks/bench_runtime_sweep.py --smoke --json BENCH_smoke.json

The ``--smoke`` mode runs in seconds and only asserts the invariants CI
can check on shared hardware: identical results, an overall cache hit
rate above 45% across the two sweeps, a cached sweep no slower than the
naive baseline, a two-pass workflow at least 3.5x over naive, padded
batching no slower than exact on the degenerate corpus, and padded
numerics inside the documented tolerance.  ``--execution process``
points the smoke gate at the process engine instead: identical results,
a warm disk-tier hit rate, and complete dispatch telemetry (no
wall-clock gate — spawn cost is hardware noise).  ``--json PATH``
writes every timing, speedup, and the
host fingerprint to a machine-readable record so CI can track the perf
trajectory per push.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

from repro import Observatory, RuntimeConfig
from repro.analysis.reporting import format_value_table
from repro.core.framework import DatasetSizes
from repro.core.results import PropertyResult
from repro.models.backends import (
    FLOAT32_TOLERANCE,
    LocalBackend,
    PaddedBackend,
    RemoteBackend,
    TransportConfig,
    max_relative_error,
)
from repro.models.registry import load_model
from repro.relational.table import Table
from repro.runtime.cache import CacheStats

MODELS = ["bert", "tapas"]
PROPERTIES = [
    "row_order_insignificance",
    "column_order_insignificance",
    "perturbation_robustness",
    "heterogeneous_context",
]

FULL_SIZES = DatasetSizes(
    wikitables_tables=8,
    sotab_tables=10,
    n_permutations=8,
    min_rows=14,
    max_rows=20,
)
SMOKE_SIZES = DatasetSizes(
    wikitables_tables=3,
    sotab_tables=4,
    n_permutations=4,
    min_rows=5,
    max_rows=7,
)
WARMUP_SIZES = DatasetSizes(
    wikitables_tables=2,
    sotab_tables=2,
    n_permutations=2,
    min_rows=4,
    max_rows=5,
)


def time_best(fn, *, trials: int, repeats: int) -> float:
    """Best-of-``trials`` wall time of ``repeats`` back-to-back calls."""
    best = float("inf")
    for _ in range(trials):
        t0 = time.perf_counter()
        for _ in range(repeats):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best


# ----------------------------------------------------------------------
# Encoder-backend comparison: exact same-length vs padded tolerance tiers
# ----------------------------------------------------------------------

_WORDS = [
    "alpha", "bravo", "delta", "echo", "golf", "hotel", "india", "kilo",
    "lima", "mike", "oscar", "papa", "romeo", "sierra", "tango", "victor",
]


def heterogeneous_corpus(model, max_length: int = 32) -> List[Table]:
    """Narrow standalone columns whose token lengths are all *distinct*.

    This is the workload padded batching exists for: every sequence has a
    different length, so exact same-length grouping degenerates to
    batch-size-1 (the EmbDI-style heterogeneous-corpus regime), while
    tolerance tiers still form real batches.  Lengths are kept short —
    under ``max_length`` tokens — because that is where batching pays on
    CPU (past ~48 tokens the stacked attention temporaries leave cache).
    """
    tables: List[Table] = []
    seen: set = set()
    i = 0
    for k in (1, 2, 3, 4):
        for extra in range(6):
            vals = [_WORDS[(i + j) % 16] for j in range(k)]
            for e in range(extra):
                vals[e % k] += " " + _WORDS[(i + e + 7) % 16]
            table = Table.from_columns([(_WORDS[i % 16], vals)])
            length = len(model._serializer.serialize(table))
            if length not in seen and length <= max_length:
                seen.add(length)
                tables.append(table)
            i += 1
    return tables


def run_backend_comparison(*, repeats: int = 6, trials: int = 3) -> Dict[str, object]:
    """Exact vs padded throughput on the heterogeneous-length corpus.

    Times ``encode_batch`` under both backends (best-of-``trials``, each
    timing ``repeats`` passes) and verifies the padded outputs stay within
    the documented tolerance of exact.
    """
    exact_model = load_model("bert")
    corpus = heterogeneous_corpus(exact_model)
    token_lists = [exact_model._serializer.serialize(t) for t in corpus]
    # Only the backend differs between the timed configurations; both
    # drive the same encoder instance.
    local: LocalBackend = exact_model.encoder.backend
    padded = PaddedBackend(tier_width=8)
    encoder = exact_model.encoder
    # Warm content-vector caches so both sides start equally hot.
    local.encode_batch(encoder, token_lists, 16)
    padded.encode_batch(encoder, token_lists, 16)
    t_exact = t_padded = float("inf")
    exact_states = padded_states = None
    for _ in range(trials):
        t0 = time.perf_counter()
        for _ in range(repeats):
            exact_states = local.encode_batch(encoder, token_lists, 16)
        t_exact = min(t_exact, time.perf_counter() - t0)
        t0 = time.perf_counter()
        for _ in range(repeats):
            padded_states = padded.encode_batch(encoder, token_lists, 16)
        t_padded = min(t_padded, time.perf_counter() - t0)
    max_err = max(
        max_relative_error(p, e)
        for p, e in zip(padded_states, exact_states)
    )
    return {
        "sequences": len(token_lists),
        "lengths": sorted(len(t) for t in token_lists),
        "t_exact": t_exact,
        "t_padded": t_padded,
        "padded_speedup": t_exact / t_padded,
        "max_relative_error": max_err,
        "tolerance": padded.tolerance,
        "tier_width": padded.tier_width,
        "waste_ratio": padded.stats.waste_ratio,
    }


def report_backend_comparison(cmp: Dict[str, object]) -> None:
    rows = [
        ["local backend (exact, same-length only)", cmp["t_exact"], 1.0],
        ["padded backend (tolerance tiers)", cmp["t_padded"], cmp["padded_speedup"]],
    ]
    print()
    print(
        f"Exact vs padded batching — {cmp['sequences']} standalone columns, "
        f"all-distinct token lengths {cmp['lengths'][0]}..{cmp['lengths'][-1]}:"
    )
    print(format_value_table(rows, ["backend", "seconds", "speedup"]))
    print(
        f"padded numerics: max relative error {cmp['max_relative_error']:.1e} "
        f"(documented bound {cmp['tolerance']:.0e}), "
        f"padding waste {cmp['waste_ratio']:.1%} "
        f"(tier width {cmp['tier_width']})"
    )


# ----------------------------------------------------------------------
# Columnar token plane: interned-id arrays vs the PR 3 object path
# ----------------------------------------------------------------------


def token_plane_corpus(n_tables: int = 16) -> List[Table]:
    """Sweep-shaped tables (several columns, 14-20 rows of short text)."""
    tables: List[Table] = []
    for i in range(n_tables):
        n_rows = 14 + (i % 7)
        columns = []
        for c in range(4):
            values = [
                f"{_WORDS[(i + r + c) % 16]} {_WORDS[(i * 3 + r * 2 + c) % 16]}"
                if (r + c) % 3
                else (i * 100 + r * 10 + c)
                for r in range(n_rows)
            ]
            columns.append((f"{_WORDS[(i + c) % 16]} c{c}", values))
        tables.append(Table.from_columns(columns, table_id=f"plane-{i}"))
    return tables


def run_token_plane_comparison(*, repeats: int = 4, trials: int = 3) -> Dict[str, object]:
    """Serialize+aggregate on the columnar plane vs the frozen PR 3 path.

    The object path (``serialize_tokens`` + the per-token loops preserved
    in :mod:`repro.models.reference_plane`) *is* the PR 3 baseline, kept
    executable precisely so this comparison stays machine-relative.  Both
    paths run on the same corpus with warm tokenizer/interner caches, and
    their outputs are asserted bit-identical before any timing is trusted.
    """
    import numpy as np

    from repro.models import aggregate, reference_plane

    model = load_model("bert")
    serializer = model._serializer
    corpus = token_plane_corpus()
    # Warm every memo tier (tokenizer, interner, piece-id cache) so the
    # comparison measures steady-state sweep behaviour, not first-touch.
    arrays = [serializer.serialize(t) for t in corpus]
    objects = [serializer.serialize_tokens(t) for t in corpus]
    rng = np.random.default_rng(11)
    states = [rng.standard_normal((len(ta), model.dim)) for ta in arrays]

    # Correctness before speed: identical streams, identical aggregates.
    for ta, tokens, st_, table in zip(arrays, objects, states, corpus):
        assert ta.tokens() == tokens, "columnar serialization diverged from object path"
        assert np.array_equal(
            aggregate.column_embeddings(ta, st_, table.num_columns),
            reference_plane.column_embeddings_reference(tokens, st_, table.num_columns),
        )
        assert np.array_equal(
            aggregate.row_embeddings(ta, st_, table.num_rows),
            reference_plane.row_embeddings_reference(tokens, st_, table.num_rows),
        )
        assert np.array_equal(
            aggregate.table_embedding(ta, st_),
            reference_plane.table_embedding_reference(tokens, st_),
        )

    def serialize_columnar():
        for table in corpus:
            serializer.serialize(table)

    def serialize_objects():
        for table in corpus:
            serializer.serialize_tokens(table)

    def aggregate_columnar():
        for ta, st_, table in zip(arrays, states, corpus):
            aggregate.column_embeddings(ta, st_, table.num_columns)
            aggregate.row_embeddings(
                ta, st_, min(aggregate.embedded_row_count(ta), table.num_rows)
            )
            aggregate.table_embedding(ta, st_)

    def aggregate_objects():
        for tokens, st_, table in zip(objects, states, corpus):
            reference_plane.column_embeddings_reference(tokens, st_, table.num_columns)
            reference_plane.row_embeddings_reference(
                tokens,
                st_,
                min(reference_plane.embedded_row_count_reference(tokens), table.num_rows),
            )
            reference_plane.table_embedding_reference(tokens, st_)

    t_ser_col = time_best(serialize_columnar, trials=trials, repeats=repeats)
    t_ser_obj = time_best(serialize_objects, trials=trials, repeats=repeats)
    t_agg_col = time_best(aggregate_columnar, trials=trials, repeats=repeats)
    t_agg_obj = time_best(aggregate_objects, trials=trials, repeats=repeats)
    return {
        "tables": len(corpus),
        "tokens_total": sum(len(ta) for ta in arrays),
        "t_serialize_objects": t_ser_obj,
        "t_serialize_columnar": t_ser_col,
        "serialize_speedup": t_ser_obj / t_ser_col,
        "t_aggregate_objects": t_agg_obj,
        "t_aggregate_columnar": t_agg_col,
        "aggregate_speedup": t_agg_obj / t_agg_col,
        "combined_speedup": (t_ser_obj + t_agg_obj) / (t_ser_col + t_agg_col),
    }


def report_token_plane(cmp: Dict[str, object]) -> None:
    rows = [
        [
            "serialize: Token objects (PR 3 path)",
            cmp["t_serialize_objects"],
            1.0,
        ],
        ["serialize: columnar TokenArray", cmp["t_serialize_columnar"], cmp["serialize_speedup"]],
        ["aggregate: per-token loops (PR 3 path)", cmp["t_aggregate_objects"], 1.0],
        ["aggregate: masked reductions", cmp["t_aggregate_columnar"], cmp["aggregate_speedup"]],
    ]
    print()
    print(
        f"Columnar token plane — {cmp['tables']} tables, "
        f"{cmp['tokens_total']} tokens, outputs bit-identical:"
    )
    print(format_value_table(rows, ["phase / path", "seconds", "speedup"]))
    print(f"combined serialize+aggregate speedup: {cmp['combined_speedup']:.2f}x")


# ----------------------------------------------------------------------
# Remote transport: loopback HTTP encoding vs in-process local
# ----------------------------------------------------------------------


def run_remote_comparison(*, repeats: int = 2, trials: int = 2) -> Dict[str, object]:
    """Transport overhead of the remote backend against its loopback double.

    Encodes the token-plane corpus through the in-process local backend
    and through :class:`RemoteBackend` pointed at a
    :class:`~repro.testing.encoder_service.LoopbackEncoderService` (a real
    local backend behind the HTTP wire), asserting the outputs
    bit-identical before timing.  The interesting numbers are the
    serialization+HTTP overhead per chunk and the latency-aware chunk
    suggestion — on a loopback link the remote path is *expected* to be
    slower (every byte is pure overhead; the win only appears when the
    service has hardware the client lacks), so this section records, it
    does not gate.
    """
    import numpy as np

    from repro.testing import LoopbackEncoderService

    model = load_model("bert")
    encoder = model.encoder
    corpus = token_plane_corpus(8)
    token_lists = [model._serializer.serialize(t) for t in corpus]
    local = LocalBackend()
    local_states = local.encode_batch(encoder, token_lists, 16)

    with LoopbackEncoderService() as service:
        remote = RemoteBackend(service.url, timeout=30.0, retries=1)
        remote_states = remote.encode_batch(encoder, token_lists, 16)
        for local_arr, remote_arr in zip(local_states, remote_states):
            assert np.array_equal(local_arr, remote_arr), (
                "remote loopback encoding diverged from local"
            )
        t_local = time_best(
            lambda: local.encode_batch(encoder, token_lists, 16),
            trials=trials, repeats=repeats,
        )
        t_remote = time_best(
            lambda: remote.encode_batch(encoder, token_lists, 16),
            trials=trials, repeats=repeats,
        )
        stats = remote.stats_snapshot()
        suggested = remote.suggest_pipeline_chunk(8)
    return {
        "sequences": len(token_lists),
        "t_local": t_local,
        "t_remote": t_remote,
        "transport_overhead": t_remote / t_local,
        "chunks": stats.chunks,
        "mean_round_trip": stats.mean_round_trip,
        "bytes_sent": stats.bytes_sent,
        "bytes_received": stats.bytes_received,
        "suggested_pipeline_chunk": suggested,
    }


def report_remote_comparison(cmp: Dict[str, object]) -> None:
    rows = [
        ["local backend (in-process)", cmp["t_local"], 1.0],
        [
            "remote backend (loopback HTTP)",
            cmp["t_remote"],
            cmp["t_local"] / cmp["t_remote"],
        ],
    ]
    print()
    print(
        f"Remote transport overhead — {cmp['sequences']} sequences over "
        f"loopback HTTP, outputs bit-identical:"
    )
    print(format_value_table(rows, ["backend", "seconds", "speedup"]))
    print(
        f"transport: {cmp['chunks']} chunks, mean round-trip "
        f"{cmp['mean_round_trip'] * 1000.0:.1f}ms, "
        f"{cmp['bytes_sent']} B out / {cmp['bytes_received']} B in, "
        f"latency-aware chunk suggestion {cmp['suggested_pipeline_chunk']} "
        f"(loopback: overhead is expected — the win needs remote hardware)"
    )


# ----------------------------------------------------------------------
# Fleet transport: wire-tier bytes accounting + multi-replica routing
# ----------------------------------------------------------------------

# The four opt-in wire tiers, from bit-exact default to cheapest.
_WIRE_TIERS = (
    ("none/float64", {}),
    ("gzip/float64", {"compression": "gzip"}),
    ("none/float32", {"state_dtype": "float32"}),
    ("gzip/float32", {"compression": "gzip", "state_dtype": "float32"}),
)


def run_fleet_comparison() -> Dict[str, object]:
    """Bytes-on-wire per transport tier + multi-replica routing accounting.

    Two measurements share the token-plane corpus:

    1. *Wire tiers* — one single-replica loopback encode per
       {compression} x {state_dtype} combination, recording request and
       response bytes.  The exact float64 tier must stay bit-identical to
       the local backend; the float32 tier must stay inside
       :data:`FLOAT32_TOLERANCE`.  Gzip on base64 float64 states is
       entropy-bounded (random mantissas don't compress), so the gates
       target what gzip *can* win: the request side (token text, highly
       redundant) and the full opt-in tier (gzip + float32 together).
    2. *Fleet routing* — the same corpus through a 3-replica
       :class:`~repro.testing.encoder_service.FleetHarness`, recording
       per-replica round-trip counts from the stats snapshot.
    """
    import numpy as np

    from repro.testing import FleetHarness, LoopbackEncoderService

    model = load_model("bert")
    encoder = model.encoder
    corpus = token_plane_corpus(8)
    token_lists = [model._serializer.serialize(t) for t in corpus]
    local_states = LocalBackend().encode_batch(encoder, token_lists, 16)

    tiers: Dict[str, Dict[str, object]] = {}
    with LoopbackEncoderService() as service:
        for label, knobs in _WIRE_TIERS:
            backend = RemoteBackend(
                config=TransportConfig(urls=(service.url,), timeout=30.0, **knobs),
                exact=knobs.get("state_dtype", "float64") == "float64",
            )
            states = backend.encode_batch(encoder, token_lists, 16)
            if backend.exact:
                for local_arr, remote_arr in zip(local_states, states):
                    assert np.array_equal(local_arr, remote_arr), (
                        f"{label}: exact tier diverged from local"
                    )
            else:
                worst = max(
                    max_relative_error(local_arr, remote_arr)
                    for local_arr, remote_arr in zip(local_states, states)
                )
                assert worst <= FLOAT32_TOLERANCE, (
                    f"{label}: float32 tier error {worst:.2e} exceeds "
                    f"{FLOAT32_TOLERANCE:.0e}"
                )
            stats = backend.stats_snapshot()
            tiers[label] = {
                "bytes_sent": stats.bytes_sent,
                "bytes_received": stats.bytes_received,
                "bytes_total": stats.bytes_sent + stats.bytes_received,
                "exact": backend.exact,
            }

    plain = tiers["none/float64"]
    cheap = tiers["gzip/float32"]
    request_gzip_reduction = 1.0 - (
        tiers["gzip/float64"]["bytes_sent"] / plain["bytes_sent"]
    )
    opt_in_total_reduction = 1.0 - (cheap["bytes_total"] / plain["bytes_total"])

    # Sharding splits work only above the per-replica sequence floor, so
    # the routing measurement widens the corpus (cache-identical repeats).
    fleet_lists = token_lists * 4
    fleet_expected = local_states * 4
    with FleetHarness(3) as fleet:
        backend = RemoteBackend(
            config=TransportConfig(urls=fleet.urls, timeout=30.0),
            exact=True,
        )
        fleet_states = backend.encode_batch(encoder, fleet_lists, 8)
        for local_arr, remote_arr in zip(fleet_expected, fleet_states):
            assert np.array_equal(local_arr, remote_arr), (
                "fleet encoding diverged from local"
            )
        fleet_stats = backend.stats_snapshot()
        replica_rows = {
            url: {
                "requests": rep.requests,
                "chunks": rep.chunks,
                "mean_round_trip": rep.mean_round_trip,
            }
            for url, rep in fleet_stats.replicas.items()
        }

    return {
        "sequences": len(token_lists),
        "fleet_sequences": len(fleet_lists),
        "tiers": tiers,
        "request_gzip_reduction": request_gzip_reduction,
        "opt_in_total_reduction": opt_in_total_reduction,
        "fleet_replicas": replica_rows,
        "fleet_chunks": fleet_stats.chunks,
        "fleet_connections_opened": fleet_stats.connections_opened,
        "fleet_connections_reused": fleet_stats.connections_reused,
    }


def report_fleet_comparison(cmp: Dict[str, object]) -> None:
    rows = [
        [label, tier["bytes_sent"], tier["bytes_received"], tier["bytes_total"]]
        for label, tier in cmp["tiers"].items()
    ]
    print()
    print(
        f"Fleet transport tiers — {cmp['sequences']} sequences, bytes on "
        f"the wire per {{compression}}/{{state_dtype}} combination:"
    )
    print(format_value_table(rows, ["tier", "B out", "B in", "B total"]))
    print(
        f"gzip cuts request bytes {cmp['request_gzip_reduction']:.1%}; the "
        f"full opt-in tier (gzip+float32) cuts total bytes "
        f"{cmp['opt_in_total_reduction']:.1%}.  Bit-exact float64 responses "
        f"barely compress (base64 of random mantissas is near "
        f"incompressible) — that tier trades bytes for exactness by design."
    )
    replicas = cmp["fleet_replicas"]
    served = ", ".join(
        f"{url.rsplit(':', 1)[-1]}: {row['chunks']} chunks/"
        f"{row['requests']} requests"
        for url, row in sorted(replicas.items())
    )
    print(
        f"fleet routing ({cmp['fleet_sequences']} sequences over 3 replicas, "
        f"{cmp['fleet_chunks']} chunks): {served}; "
        f"{cmp['fleet_connections_opened']} connections opened, "
        f"{cmp['fleet_connections_reused']} reused"
    )


def phase_totals(sweep) -> Dict[str, float]:
    """Telemetry-measured per-phase seconds summed over a sweep's cells."""
    return {
        "serialize_seconds": sum(c.serialize_seconds for c in sweep.cells),
        "encode_seconds": sum(c.encode_seconds for c in sweep.cells),
        "aggregate_seconds": sum(c.aggregate_seconds for c in sweep.cells),
    }


# ----------------------------------------------------------------------
# Sync-vs-async streaming comparison
# ----------------------------------------------------------------------


def run_async_comparison(sizes: DatasetSizes) -> Dict[str, object]:
    """Cold sweeps with the streaming pipeline on vs off (results must match).

    On a single-core host the overlap cannot shorten wall time (there is
    no second core to hide the encode behind) — the number that matters
    everywhere is the overlap ratio: how much encode time the submitting
    thread did *not* block on.

    Permutation counts are raised past one pipeline chunk (a shuffle
    property submits ``n_permutations`` variants per ``embed_levels_many``
    call) so the streaming path actually engages at smoke sizes.
    """
    sizes = dataclasses.replace(sizes, n_permutations=max(12, sizes.n_permutations))
    o_sync = Observatory(
        seed=0, sizes=sizes, runtime=RuntimeConfig(batch_size=8, async_encode=False)
    )
    t0 = time.perf_counter()
    sweep_sync = o_sync.sweep(MODELS[:1], PROPERTIES, execution="thread")
    t_sync = time.perf_counter() - t0
    o_async = Observatory(
        seed=0, sizes=sizes, runtime=RuntimeConfig(batch_size=8, async_encode=True)
    )
    t0 = time.perf_counter()
    sweep_async = o_async.sweep(MODELS[:1], PROPERTIES, execution="thread")
    t_async = time.perf_counter() - t0
    for cell_s, cell_a in zip(sweep_sync.cells, sweep_async.cells):
        if cell_s.result.to_dict() != cell_a.result.to_dict():
            raise AssertionError(
                f"async pipeline changed results for "
                f"({cell_a.model_name}, {cell_a.property_name})"
            )
    pipe = sweep_async.pipeline
    return {
        "t_sync": t_sync,
        "t_async": t_async,
        "async_speedup": t_sync / t_async,
        "overlap_ratio": pipe.overlap_ratio if pipe else 0.0,
        "async_batches": pipe.batches if pipe else 0,
        "encode_seconds": pipe.encode_seconds if pipe else 0.0,
    }


def report_async_comparison(cmp: Dict[str, object]) -> None:
    cores = os.cpu_count() or 1
    rows = [
        ["synchronous encode", cmp["t_sync"], 1.0],
        ["streaming pipeline (async encode)", cmp["t_async"], cmp["async_speedup"]],
    ]
    print()
    print(f"Sync vs async streaming ({cores} core(s) available):")
    print(format_value_table(rows, ["configuration", "seconds", "speedup"]))
    print(
        f"pipeline: {cmp['async_batches']} background batches, "
        f"{cmp['encode_seconds']:.2f}s encoding, "
        f"{cmp['overlap_ratio']:.1%} overlapped with foreground CPU work"
    )
    if cores < 2:
        print(
            "note: single-core host — overlap cannot shorten wall time "
            "here; the overlap ratio is the portable signal."
        )


def run_naive(sizes: DatasetSizes) -> Tuple[float, Dict[Tuple[str, str], PropertyResult]]:
    observatory = Observatory(
        seed=0, sizes=sizes, runtime=RuntimeConfig(enabled=False)
    )
    started = time.perf_counter()
    results = {
        (model, prop): observatory.characterize(model, prop)
        for model in MODELS
        for prop in PROPERTIES
    }
    return time.perf_counter() - started, results


def run_sweeps(sizes: DatasetSizes):
    observatory = Observatory(seed=0, sizes=sizes, runtime=RuntimeConfig(batch_size=16))
    started = time.perf_counter()
    cold = observatory.sweep(MODELS, PROPERTIES, execution="thread")
    t_cold = time.perf_counter() - started
    started = time.perf_counter()
    warm = observatory.sweep(MODELS, PROPERTIES, execution="thread")
    t_warm = time.perf_counter() - started
    return t_cold, cold, t_warm, warm, observatory.cache.stats


def run_process_sweep(sizes: DatasetSizes, disk_dir: str, workers: int):
    """One process-sharded sweep sharing ``disk_dir`` as the cache tier."""
    observatory = Observatory(
        seed=0,
        sizes=sizes,
        runtime=RuntimeConfig(batch_size=16, disk_cache_dir=disk_dir),
    )
    started = time.perf_counter()
    sweep = observatory.sweep(
        MODELS, PROPERTIES, max_workers=workers, execution="process"
    )
    return time.perf_counter() - started, sweep


def run_process_scaling(sizes: DatasetSizes):
    """Cold single-shard vs cold multi-shard process sweeps + a warm pass.

    Each cold run uses a fresh disk dir so shard counts are compared on
    equal (empty-cache) footing; the warm pass reuses the multi-shard
    dir to measure the shared disk tier across process boundaries.
    """
    multi = min(4, os.cpu_count() or 1, len(MODELS) * len(PROPERTIES))
    with tempfile.TemporaryDirectory() as single_dir:
        t_single, single = run_process_sweep(sizes, single_dir, workers=1)
    with tempfile.TemporaryDirectory() as multi_dir:
        t_multi, cold = run_process_sweep(sizes, multi_dir, workers=multi)
        t_warm, warm = run_process_sweep(sizes, multi_dir, workers=multi)
    return {
        "single_workers": 1,
        "multi_workers": multi,
        "t_single": t_single,
        "t_multi": t_multi,
        "t_warm": t_warm,
        "single": single,
        "cold": cold,
        "warm": warm,
    }


def run_scheduler_comparison(sizes: DatasetSizes) -> Dict[str, object]:
    """The work-stealing scheduler, checked against the thread engine.

    The scheduler runs the cache-aware-ordered cells with 2 workers on a
    fresh disk tier; its results must be bit-identical to a thread-engine
    sweep of the same matrix before anything is recorded.  The record
    keeps the full dispatch log, steal/crash counters, per-worker
    utilization, and the measured per-cell seconds (``cell_records``)
    that feed a later sweep's LPT cost priors.
    """
    from repro.runtime.scheduler import WorkStealingSweep
    from repro.runtime.sweep import order_cells

    cells = order_cells([(m, p) for p in PROPERTIES for m in MODELS])
    with tempfile.TemporaryDirectory() as steal_dir:
        t0 = time.perf_counter()
        stealing = WorkStealingSweep(
            Observatory(
                seed=0,
                sizes=sizes,
                runtime=RuntimeConfig(batch_size=16, disk_cache_dir=steal_dir),
            ),
            max_workers=2,
        ).run(cells)
        t_stealing = time.perf_counter() - t0
    thread = Observatory(
        seed=0, sizes=sizes, runtime=RuntimeConfig(batch_size=16)
    ).sweep(MODELS, PROPERTIES, execution="thread")

    def as_dicts(outcome):
        return {
            (c.model_name, c.property_name): c.result.to_dict()
            for c in outcome.cells
        }

    if as_dicts(thread) != as_dicts(stealing):
        raise AssertionError("work-stealing scheduler diverged from the thread engine")
    return {
        "t_stealing": t_stealing,
        "stealing_workers": stealing.workers,
        "cell_records": [
            {
                "model": c.model_name,
                "property": c.property_name,
                "seconds": c.seconds,
            }
            for c in stealing.cells
        ],
        **stealing.scheduler.to_dict(),
    }


def report_scheduler_comparison(cmp: Dict[str, object]) -> None:
    print()
    print(
        f"Work-stealing scheduler — {cmp['groups']} corpus-affinity groups on "
        f"{cmp['stealing_workers']} workers in {cmp['t_stealing']:.2f}s, "
        "results bit-identical to the thread engine"
    )
    print(
        f"dispatch: {cmp['redispatches']} straggler re-dispatches "
        f"({cmp['duplicates_discarded']} duplicates discarded), "
        f"{cmp['crashes']} crashes ({cmp['salvaged_groups']} salvaged)"
    )
    for worker in cmp["workers"]:
        print(
            f"  worker {worker['worker_id']}: {worker['busy_fraction']:.1%} busy, "
            f"{worker['groups']} groups / {worker['cells']} cells, "
            f"{worker['steals']} steals"
        )
    for entry in cmp["dispatch_log"]:
        seconds = f"{entry['seconds']:.2f}s" if entry["seconds"] else "-"
        dup = " (duplicate)" if entry["duplicate"] else ""
        print(
            f"  group {entry['group']} ({entry['model']}/{entry['corpus']}, "
            f"{entry['cells']} cells) -> worker {entry['worker']}{dup}: "
            f"{entry['outcome']} in {seconds}"
        )


def check_identical(
    naive: Dict[Tuple[str, str], PropertyResult], sweep
) -> None:
    for cell in sweep.cells:
        expected = naive[(cell.model_name, cell.property_name)].to_dict()
        actual = cell.result.to_dict()
        if expected != actual:
            raise AssertionError(
                f"results diverged for ({cell.model_name}, {cell.property_name})"
            )


def warmup() -> None:
    """Amortize one-time costs (imports, shared content-vector cache) so the
    timed configurations start from the same warmth."""
    for enabled in (False, True):
        observatory = Observatory(
            seed=0, sizes=WARMUP_SIZES, runtime=RuntimeConfig(enabled=enabled)
        )
        for prop in PROPERTIES:
            observatory.characterize(MODELS[0], prop)


def report_process_scaling(scaling: Dict[str, object]) -> None:
    cores = os.cpu_count() or 1
    t_single, t_multi = scaling["t_single"], scaling["t_multi"]
    multi = scaling["multi_workers"]
    shards = f"{multi} shard{'s' if multi != 1 else ''}"
    rows = [
        ["process sweep, 1 shard (cold)", t_single, 1.0],
        [f"process sweep, {shards} (cold)", t_multi, t_single / t_multi],
        [
            f"process sweep, {shards} (warm disk tier)",
            scaling["t_warm"],
            t_single / scaling["t_warm"],
        ],
    ]
    print()
    print(f"Thread-vs-process scaling ({cores} core(s) available):")
    print(format_value_table(rows, ["configuration", "seconds", "scaling"]))
    if cores < 2:
        print(
            "note: single-core host — process sharding can only add spawn "
            "overhead here; scaling numbers are meaningful on >= 2 cores."
        )
    warm_stats: CacheStats = scaling["warm"].cache_stats
    print(
        f"shared disk tier: {warm_stats.disk_hits} cross-process disk hits "
        f"on the warm pass ({warm_stats.hit_rate:.1%} hit rate)"
    )


def write_json(path: Optional[str], payload: Dict[str, object]) -> None:
    """Persist the machine-readable benchmark record (CI perf artifact)."""
    if not path:
        return
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
    print(f"wrote {path}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes + hardware-independent assertions (CI gate)",
    )
    parser.add_argument(
        "--execution",
        choices=["thread", "process"],
        default="thread",
        help="which sweep engine the smoke gate exercises (default: thread)",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        dest="json_path",
        help="write a machine-readable BENCH_*.json record of all timings",
    )
    args = parser.parse_args(argv)
    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES

    payload: Dict[str, object] = {
        "bench": "runtime_sweep",
        "schema_version": 7,
        "mode": "smoke" if args.smoke else "full",
        "engine": args.execution,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "models": MODELS,
        "properties": PROPERTIES,
        "sizes": dataclasses.asdict(sizes),
        "timestamp": time.time(),
    }

    warmup()
    t_naive, naive_results = run_naive(sizes)
    payload["t_naive"] = t_naive

    if args.execution == "process":
        # try/finally from the first measurement on: the JSON record must
        # survive a failing comparison or gate.
        try:
            scaling = run_process_scaling(sizes)
            for sweep in (scaling["single"], scaling["cold"], scaling["warm"]):
                check_identical(naive_results, sweep)
            print()
            print("=" * 72)
            print(
                f"Runtime sweep benchmark (process engine) — "
                f"{len(MODELS)} models x {len(PROPERTIES)} properties"
            )
            print("=" * 72)
            report_process_scaling(scaling)
            print("results: numerically identical across all shard counts")
            payload.update(
                {
                    "backend": scaling["cold"].backend,
                    "t_process_single": scaling["t_single"],
                    "t_process_multi": scaling["t_multi"],
                    "t_process_warm": scaling["t_warm"],
                    "process_workers": scaling["multi_workers"],
                    "warm_disk_hit_rate": scaling["warm"].cache_stats.hit_rate,
                }
            )
            scheduler_cmp = run_scheduler_comparison(sizes)
            report_scheduler_comparison(scheduler_cmp)
            payload["scheduler"] = scheduler_cmp
            if args.smoke:
                combined = CacheStats.merged(
                    [scaling["cold"].cache_stats, scaling["warm"].cache_stats]
                )
                assert combined.hit_rate > 0.45, (
                    f"shared disk tier ineffective: hit rate {combined.hit_rate:.1%}"
                )
                assert scaling["warm"].cache_stats.disk_hits > 0, (
                    "warm process sweep never hit the shared disk tier"
                )
                # Dispatch telemetry must be complete: every group won by
                # exactly one result, every cell's seconds recorded.
                won = [
                    e for e in scheduler_cmp["dispatch_log"] if e["outcome"] == "won"
                ]
                assert len(won) == scheduler_cmp["groups"], (
                    f"dispatch log incomplete: {len(won)} wins for "
                    f"{scheduler_cmp['groups']} groups"
                )
                assert len(scheduler_cmp["cell_records"]) == len(MODELS) * len(
                    PROPERTIES
                ), "scheduler cell_records missing cells"
            payload["gates_passed"] = True
        finally:
            write_json(args.json_path, payload)
        print("benchmark assertions passed")
        return 0

    # Everything from here down runs inside try/finally so the JSON perf
    # record survives a failing comparison, identity check, or gate —
    # that record is exactly what a regression needs.
    try:
        t_cold, cold, t_warm, warm, cache_stats = run_sweeps(sizes)
        cold_speedup = t_naive / t_cold
        warm_speedup = t_naive / t_warm
        workflow_speedup = (2 * t_naive) / (t_cold + t_warm)
        payload.update(
            {
                "backend": cold.backend,
                "t_cold": t_cold,
                "t_warm": t_warm,
                "cold_speedup": cold_speedup,
                "warm_speedup": warm_speedup,
                "workflow_speedup": workflow_speedup,
                "cache_hit_rate": cache_stats.hit_rate,
                "cold_overlap_ratio": (
                    cold.pipeline.overlap_ratio if cold.pipeline else 0.0
                ),
                "cell_records": cold.records,
                "phase_seconds": phase_totals(cold),
            }
        )
        check_identical(naive_results, cold)
        check_identical(naive_results, warm)

        rows = [
            ["naive sequential (runtime off)", t_naive, 1.0],
            ["cold sweep (batched + cached)", t_cold, cold_speedup],
            ["warm sweep (re-characterize)", t_warm, warm_speedup],
            ["two-pass workflow", t_cold + t_warm, workflow_speedup],
        ]
        print()
        print("=" * 72)
        print(
            f"Runtime sweep benchmark — "
            f"{len(MODELS)} models x {len(PROPERTIES)} properties"
        )
        print("=" * 72)
        print(format_value_table(rows, ["configuration", "seconds", "speedup"]))
        print()
        print(f"cache: {cache_stats}")
        if cold.pipeline is not None:
            print(
                f"pipeline: {cold.pipeline.batches} async batches, "
                f"{cold.pipeline.overlap_ratio:.1%} of encode time overlapped"
            )
        print("results: numerically identical across all configurations")

        backend_cmp = run_backend_comparison()
        report_backend_comparison(backend_cmp)
        payload["backend_comparison"] = backend_cmp

        plane_cmp = run_token_plane_comparison()
        report_token_plane(plane_cmp)
        payload["token_plane"] = plane_cmp

        async_cmp = run_async_comparison(sizes)
        report_async_comparison(async_cmp)
        payload["async_comparison"] = async_cmp

        remote_cmp = run_remote_comparison()
        report_remote_comparison(remote_cmp)
        payload["remote"] = remote_cmp

        fleet_cmp = run_fleet_comparison()
        report_fleet_comparison(fleet_cmp)
        payload["fleet"] = fleet_cmp

        # Wire-tier gates (every mode — byte counts are deterministic, not
        # timing-dependent): gzip must earn its keep where it can.  The
        # response side of the bit-exact tier is entropy-bounded, so the
        # gates target the request side and the full opt-in tier.
        assert fleet_cmp["request_gzip_reduction"] >= 0.4, (
            f"gzip request-side reduction "
            f"{fleet_cmp['request_gzip_reduction']:.1%} < 40%"
        )
        assert fleet_cmp["opt_in_total_reduction"] >= 0.4, (
            f"gzip+float32 total wire reduction "
            f"{fleet_cmp['opt_in_total_reduction']:.1%} < 40%"
        )
        assert len(fleet_cmp["fleet_replicas"]) >= 2, (
            "fleet sharding never routed beyond a single replica"
        )

        if not args.smoke:
            scaling = run_process_scaling(sizes)
            for sweep in (scaling["single"], scaling["cold"], scaling["warm"]):
                check_identical(naive_results, sweep)
            report_process_scaling(scaling)
            payload.update(
                {
                    "t_process_single": scaling["t_single"],
                    "t_process_multi": scaling["t_multi"],
                    "t_process_warm": scaling["t_warm"],
                    "process_workers": scaling["multi_workers"],
                }
            )
            scheduler_cmp = run_scheduler_comparison(sizes)
            report_scheduler_comparison(scheduler_cmp)
            payload["scheduler"] = scheduler_cmp

        # Numerics gate in every mode: padded stays inside its documented
        # tolerance (the async comparison asserted result-identity
        # internally already).
        assert backend_cmp["max_relative_error"] <= backend_cmp["tolerance"], (
            f"padded backend error {backend_cmp['max_relative_error']:.2e} exceeds "
            f"documented tolerance {backend_cmp['tolerance']:.0e}"
        )
        if args.smoke:
            assert t_cold <= t_naive * 1.05, (
                f"cached sweep slower than naive baseline: {t_cold:.2f}s vs {t_naive:.2f}s"
            )
            # Tightened from "not slower" once two PRs of variance data
            # showed the two-pass workflow holding >= 4.3x on 1-core
            # runners; 3.5x keeps ~20% margin for runner noise.
            assert workflow_speedup >= 3.5, (
                f"two-pass workflow speedup {workflow_speedup:.2f}x < 3.5x"
            )
            assert cache_stats.hit_rate > 0.45, (
                f"cache ineffective: hit rate {cache_stats.hit_rate:.1%}"
            )
            # Measured edge ~1.2-1.5x on a quiet host; 0.9 leaves the same
            # noise margin the other smoke gates carry while still
            # catching padded becoming materially slower than exact.
            assert backend_cmp["padded_speedup"] >= 0.9, (
                f"padded batching materially slower than same-length "
                f"batching on the heterogeneous corpus: "
                f"{backend_cmp['padded_speedup']:.2f}x"
            )
        else:
            assert cold_speedup >= 2.0, f"cold sweep speedup {cold_speedup:.2f}x < 2x"
            assert workflow_speedup >= 3.5, (
                f"two-pass workflow speedup {workflow_speedup:.2f}x < 3.5x"
            )
            assert backend_cmp["padded_speedup"] >= 1.05, (
                f"padded batching does not beat same-length batching on the "
                f"heterogeneous corpus: {backend_cmp['padded_speedup']:.2f}x"
            )
            # Columnar token plane gate (full mode only — smoke stays
            # ungated: 1-core CI timing is too noisy for a fresh phase
            # gate).  Measured ~3x on the dev container; 1.5x keeps a
            # conservative margin.
            assert plane_cmp["combined_speedup"] >= 1.5, (
                f"columnar serialize+aggregate speedup "
                f"{plane_cmp['combined_speedup']:.2f}x < 1.5x vs the "
                f"Token-object baseline"
            )
        payload["gates_passed"] = True
    finally:
        write_json(args.json_path, payload)
    print("benchmark assertions passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
