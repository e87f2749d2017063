"""Full characterization report.

The paper's Section 5 is a comprehensive analysis: every model against every
applicable property.  :func:`full_characterization` runs that matrix through
the Observatory facade (skipping model/property combinations outside the
paper's Table 2 scope) and renders a single markdown document with the
headline statistic per cell — the artifact a practitioner would skim before
choosing a model.  :func:`render_sweep` renders the same kind of matrix
from a structured :class:`~repro.runtime.sweep.SweepResult` (the output of
``Observatory.sweep``), including skipped cells and cache accounting.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.framework import Observatory
from repro.core.results import PropertyResult
from repro.errors import ObservatoryError
from repro.runtime.sweep import SweepResult

# Headline statistic to show per property (distribution key or scalar key).
_HEADLINES = {
    "row_order_insignificance": ("distribution", "column/cosine", "median"),
    "column_order_insignificance": ("distribution", "column/cosine", "median"),
    "join_relationship": ("scalar", "spearman/multiset_jaccard", None),
    "functional_dependencies": ("scalar", "mean_s2/fd", None),
    "sample_fidelity": ("distribution", "ratio_0.25/fidelity", "median"),
    "perturbation_robustness": ("distribution", "schema-abbreviation/cosine", "median"),
    "heterogeneous_context": ("distribution", "non_textual/entire_table", "median"),
}

# Paper Table 2 exclusions (model not in scope for property).
_EXCLUSIONS = {
    "row_order_insignificance": {"taptap"},
    "column_order_insignificance": set(),
    "join_relationship": {"turl", "taptap"},
    "functional_dependencies": {"turl", "tabert", "taptap"},
    "sample_fidelity": {"taptap"},
    "perturbation_robustness": {"turl", "taptap"},
    "heterogeneous_context": {"turl", "taptap"},
}


def headline_value(result: PropertyResult, property_name: str) -> Optional[float]:
    """The report's single number for a result, per :data:`_HEADLINES`."""
    kind, key, field = _HEADLINES[property_name]
    if kind == "scalar":
        return result.scalars.get(key)
    stats = result.distributions.get(key)
    if stats is None:
        return None
    return getattr(stats, field)


def full_characterization(
    observatory: Observatory,
    *,
    models: Sequence[str],
    properties: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, Optional[float]]]:
    """Run the model x property matrix; returns model -> property -> value.

    Cells outside the paper's scope (Table 2) or unsupported by the model's
    exposed levels are None.
    """
    properties = list(properties or _HEADLINES)
    matrix: Dict[str, Dict[str, Optional[float]]] = {}
    for model_name in models:
        row: Dict[str, Optional[float]] = {}
        for property_name in properties:
            if property_name not in _HEADLINES:
                raise ObservatoryError(f"no headline defined for {property_name!r}")
            if model_name in _EXCLUSIONS.get(property_name, set()):
                row[property_name] = None
                continue
            try:
                result = observatory.characterize(model_name, property_name)
            except ObservatoryError:
                row[property_name] = None
                continue
            row[property_name] = headline_value(result, property_name)
        matrix[model_name] = row
    return matrix


_SHORT = {
    "row_order_insignificance": "P1 row",
    "column_order_insignificance": "P2 col",
    "join_relationship": "P3 join",
    "functional_dependencies": "P4 fd",
    "sample_fidelity": "P5 sample",
    "perturbation_robustness": "P7 perturb",
    "heterogeneous_context": "P8 context",
}


def render_markdown(matrix: Dict[str, Dict[str, Optional[float]]]) -> str:
    """Markdown table of the characterization matrix."""
    if not matrix:
        raise ObservatoryError("empty characterization matrix")
    properties = list(next(iter(matrix.values())))
    header = "| model | " + " | ".join(_SHORT.get(p, p) for p in properties) + " |"
    rule = "|" + "|".join(["---"] * (len(properties) + 1)) + "|"
    lines = [header, rule]
    for model_name, row in matrix.items():
        cells = [model_name]
        for p in properties:
            value = row[p]
            cells.append("—" if value is None else f"{value:.3f}")
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def sweep_matrix(sweep: SweepResult) -> Dict[str, Dict[str, Optional[float]]]:
    """Headline-value matrix (model -> property -> value) of a sweep.

    Cells the sweep skipped or that failed under ``on_error="degrade"`` —
    or whose property has no headline statistic registered — render as
    ``None``, same as out-of-scope cells in :func:`full_characterization`.
    """
    if not sweep.cells and not sweep.skipped and not sweep.failures:
        raise ObservatoryError("empty sweep result")
    others = [*sweep.skipped, *sweep.failures]
    model_names = sweep.model_names or sorted({c.model_name for c in others})
    property_names = sweep.property_names or sorted({c.property_name for c in others})
    matrix: Dict[str, Dict[str, Optional[float]]] = {}
    for model_name in model_names:
        row: Dict[str, Optional[float]] = {}
        for property_name in property_names:
            result = sweep.get(model_name, property_name)
            if result is None or property_name not in _HEADLINES:
                row[property_name] = None
            else:
                row[property_name] = headline_value(result, property_name)
        matrix[model_name] = row
    return matrix


def render_sweep(sweep: SweepResult) -> str:
    """Markdown rendering of a sweep: matrix, skipped cells, runtime stats,
    encoder backend/pipeline accounting, process scheduler
    utilization (process sweeps), and the slowest cells."""
    lines = [render_markdown(sweep_matrix(sweep))]
    if sweep.skipped:
        lines.append("")
        lines.append("Skipped cells:")
        for skip in sweep.skipped:
            lines.append(
                f"- {skip.model_name} / {skip.property_name}: {skip.reason}"
            )
    if sweep.failures:
        lines.append("")
        lines.append("Degraded cells (recorded, not re-run — see --resume):")
        for failure in sweep.failures:
            lines.append(
                f"- {failure.model_name} / {failure.property_name}: "
                f"{failure.error}: {failure.message}"
            )
    lines.append("")
    ran = len(sweep.cells) - sweep.replayed
    lines.append(
        f"Ran {ran} cells in {sweep.seconds:.2f}s "
        f"on {sweep.workers} {sweep.execution} worker(s); "
        f"encoder backend: {sweep.backend}; BLAS: {sweep.blas}."
    )
    if sweep.replayed:
        lines.append(
            f"Replayed {sweep.replayed} completed cell(s) from the sweep "
            f"journal; only the remainder was dispatched."
        )
    if sweep.cache_stats is not None:
        stats = sweep.cache_stats
        lines.append(
            f"Embedding cache: {stats.hits} hits / {stats.requests} requests "
            f"({stats.hit_rate:.1%} hit rate)."
        )
        if stats.evictions or stats.disk_evictions or stats.disk_drops:
            lines.append(
                f"Cache eviction: {stats.evictions} memory, "
                f"{stats.disk_evictions} disk (size), "
                f"{stats.disk_drops} corrupt entries dropped."
            )
    if sweep.pipeline is not None:
        pipe = sweep.pipeline
        lines.append(
            f"Encode pipeline: {pipe.batches} async batches "
            f"({pipe.sequences} sequences), {pipe.encode_seconds:.2f}s encoding, "
            f"{pipe.overlap_ratio:.1%} overlapped with CPU work."
        )
    if sweep.transport is not None:
        net = sweep.transport
        lines.append(
            f"Remote transport: {net.chunks} chunks ({net.sequences} sequences) "
            f"over {net.requests} requests, {net.retries} retried "
            f"({net.timeouts} timeouts, {net.http_errors} 5xx); "
            f"mean round-trip {net.mean_round_trip * 1000.0:.1f}ms, "
            f"{net.bytes_sent} B out / {net.bytes_received} B in."
        )
        lines.append(
            f"Fleet: {net.connections_opened} connections opened, "
            f"{net.connections_reused} reused; {net.quarantines} quarantines."
        )
        for url, rep in sorted(net.replicas.items()):
            lines.append(
                f"- {url}: {rep.chunks} chunks / {rep.requests} requests, "
                f"{rep.errors} errors, {rep.quarantines} quarantines, "
                f"mean round-trip {rep.mean_round_trip * 1000.0:.1f}ms"
            )
    if sweep.scheduler is not None:
        sched = sweep.scheduler
        lines.append(
            f"Scheduler: {sched.groups} work groups, "
            f"{sched.crashes} worker crashes "
            f"({sched.salvaged_groups} groups salvaged)."
        )
        for worker in sched.workers:
            flags = " [crashed]" if worker.crashed else ""
            lines.append(
                f"- worker {worker.worker_id}: {worker.busy_fraction:.1%} busy "
                f"({worker.busy_seconds:.2f}s busy / "
                f"{worker.idle_seconds:.2f}s idle), "
                f"{worker.groups} groups / {worker.cells} cells{flags}"
            )
    slowest = sweep.slowest(3)
    if slowest:
        lines.append("")
        lines.append("Slowest cells (encode/aggregate split):")
        for cell in slowest:
            lines.append(
                f"- {cell.model_name} / {cell.property_name}: "
                f"{cell.seconds:.2f}s (encode {cell.encode_seconds:.2f}s, "
                f"aggregate {cell.aggregate_seconds:.2f}s)"
            )
    return "\n".join(lines)


def render_index(
    info: Dict[str, object],
    *,
    cache_stats=None,
    results: Optional[Sequence[tuple]] = None,
) -> str:
    """Plain-text rendering of a column-index summary for CLI/CI logs.

    ``info`` is :meth:`repro.index.ColumnIndex.describe` output;
    ``results`` optionally carries ``(query_label, hits)`` tuples where
    ``hits`` is the ``(key, score)`` list a query returned.
    """
    lines = [
        f"Column index at {info['directory']}",
        (
            f"  {info['rows']} rows x {info['dim']} dims in "
            f"{info['shards']} shard(s), generation {info['generation']}"
        ),
        (
            f"  partitions: {info['partitions'] or 'unbuilt'} "
            f"(budget {info['partition_budget']}); "
            f"prune modes: {', '.join(info['prune_modes'])}"
        ),
        (
            f"  guarantees: prune=off is bit-identical to brute force; "
            f"probe recall floor {info['probe_recall_floor']}"
        ),
    ]
    if info.get("dropped_shards") or info.get("swept_files"):
        lines.append(
            f"  recovery: dropped {info['dropped_shards']} corrupt shard(s), "
            f"swept {info['swept_files']} stale file(s)"
        )
    if cache_stats is not None:
        lines.append(
            f"  embedding cache: {cache_stats.hits} hits / "
            f"{cache_stats.hits + cache_stats.misses} requests"
        )
    for label, hits in results or ():
        lines.append(f"  query {label}:")
        for key, score in hits:
            lines.append(f"    {score:+.6f}  {key}")
    return "\n".join(lines)


def render_service(stats: Dict[str, object]) -> str:
    """Plain-text rendering of a service stats snapshot for CLI/CI logs.

    ``stats`` is :meth:`repro.service.CharacterizationService.stats_snapshot`
    output (also what ``GET /v1/stats`` serves).
    """
    jobs = dict(stats.get("jobs") or {})
    cache = dict(stats.get("cache") or {})
    index = dict(stats.get("index") or {})
    lines = [
        "Characterization service",
        (
            f"  jobs: {jobs.get('done', 0)} done, "
            f"{jobs.get('failed', 0)} failed, "
            f"{jobs.get('running', 0)} running, "
            f"{jobs.get('queued', 0)} queued "
            f"(queue {stats.get('queue_depth', 0)}/"
            f"{stats.get('queue_limit', 0)}"
            f"{', held' if stats.get('held') else ''})"
        ),
        (
            f"  result cache: {cache.get('hits', 0)} hits, "
            f"{cache.get('entries', 0)}/{cache.get('limit', 0)} entries; "
            f"{stats.get('deduplicated', 0)} deduplicated, "
            f"{stats.get('rejected', 0)} rejected (429)"
        ),
        (
            f"  planes: {stats.get('encode_requests', 0)} encode request(s), "
            f"{stats.get('tables', 0)} uploaded table(s), "
            f"{index.get('open_handles', 0)} index handle(s) "
            f"({index.get('reopens', 0)} generation reopen(s))"
        ),
        f"  backend: {stats.get('backend', '?')}",
    ]
    if stats.get("replayed_requests"):
        lines.append(
            f"  replayed {stats['replayed_requests']} journaled request(s) "
            f"from a prior run"
        )
    if stats.get("state_dir"):
        lines.append(f"  state dir: {stats['state_dir']}")
    return "\n".join(lines)
