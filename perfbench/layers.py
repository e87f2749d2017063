"""Per-layer metrics of a traced run, and the trace's self-checks.

Inputs are the spans every program process wrote (``tracer.dump``), the
program's own counters (``CacheStats``, ``PipelineStats``, the sweep
records, ``/v1/stats`` and ``/v1/index/info``) and the generator's
client-side totals.  Self time is computed per process, so spans of
different processes never nest.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

import stats

# (name, unit, better) of every per-layer metric, in report order.
METRICS = [
    ("data.generate_s", "s", "lower"),
    ("serialize.calls", "count", "lower"),
    ("serialize.tokens", "count", "lower"),
    ("serialize.probes_per_call", "ratio", "lower"),
    ("serialize.self_s", "s", "lower"),
    ("encoder.sequences", "count", "lower"),
    ("encoder.tokens", "count", "lower"),
    ("encoder.attn_elems", "count", "lower"),
    ("encoder.flops", "count", "lower"),
    ("encoder.seqs_per_forward", "ratio", "higher"),
    ("encoder.encode.self_s", "s", "lower"),
    ("encoder.forward_batch.self_s", "s", "lower"),
    ("encoder.embed_tokens.self_s", "s", "lower"),
    ("encoder.attention_mask.self_s", "s", "lower"),
    ("backend.calls", "count", "lower"),
    ("backend.single_share", "ratio", "lower"),
    ("backend.long_share", "ratio", "lower"),
    ("backend.self_s", "s", "lower"),
    ("aggregate.calls", "count", "lower"),
    ("aggregate.self_s", "s", "lower"),
    ("planner.tables_requested", "count", "lower"),
    ("planner.dedup_ratio", "ratio", "higher"),
    ("planner.self_s", "s", "lower"),
    ("pipeline.wait_s", "s", "lower"),
    ("pipeline.overlap_ratio", "ratio", "higher"),
    ("fingerprint.calls", "count", "lower"),
    ("fingerprint.self_s", "s", "lower"),
    ("cache.gets", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.get_s", "s", "lower"),
    ("cache.put_s", "s", "lower"),
    ("cache.evictions", "count", "lower"),
    ("disk.gets", "count", "lower"),
    ("disk.hit_ratio", "ratio", "higher"),
    ("disk.get_s", "s", "lower"),
    ("disk.puts", "count", "lower"),
    ("disk.put_s", "s", "lower"),
    ("disk.index_bytes", "bytes", "lower"),
    ("measures.calls", "count", "lower"),
    ("measures.self_s", "s", "lower"),
    ("property.self_s", "s", "lower"),
    ("sweep.cells", "count", "higher"),
    ("sweep.cell_p50_s", "s", "lower"),
    ("sweep.cell_max_s", "s", "lower"),
    ("sweep.idle_s", "s", "lower"),
    ("journal.appends", "count", "lower"),
    ("journal.append_s", "s", "lower"),
    ("http.requests", "count", "higher"),
    ("http.dispatch_s", "s", "lower"),
    ("http.wire_s", "s", "lower"),
    ("http.resp_bytes", "bytes", "lower"),
    ("svc.queue_wait_p50_ms", "ms", "lower"),
    ("svc.queue_wait_p90_ms", "ms", "lower"),
    ("svc.result_hit_ratio", "ratio", "higher"),
    ("svc.dedup", "count", "higher"),
    ("svc.rejected", "count", "lower"),
    ("svc.jobs_retained", "count", "lower"),
    ("svc.tables_retained", "count", "lower"),
    ("index.queries", "count", "higher"),
    ("index.query_off_s", "s", "lower"),
    ("index.query_probe_s", "s", "lower"),
    ("index.appends", "count", "higher"),
    ("index.append_s", "s", "lower"),
    ("index.plan_builds", "count", "lower"),
    ("index.plan_build_s", "s", "lower"),
    ("index.reopens", "count", "lower"),
]

# Self-time slack, against wall times taken outside the span code: each
# thread's self times fit its lifetime (``Thread.run``, or process start
# to exit for the main thread), and the main thread's self times inside
# each phase worker.py timed sum to that phase, within this share of the
# length plus SLACK_S.
SLACK_SHARE = 0.005
SLACK_S = 0.002


def _spans(dump: dict) -> List[dict]:
    keys = ("id", "parent", "name", "thread", "start", "end", "ctx", "extra")
    return [dict(zip(keys, row)) for row in dump["spans"]]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(dumps: Sequence[dict], sweep_pass: dict, counters: Dict[str, object],
           client: Dict[str, float]) -> Dict[str, object]:
    """Per-layer metrics plus the self-check verdicts.

    ``sweep_pass`` is the featured cold pass record (its ``records`` and
    ``workers``); ``counters`` holds the program's own counters gathered
    by the run; ``client`` the generator's request count, round-trip
    seconds and response bytes.
    """
    spans: List[dict] = []
    self_of: Dict[object, float] = {}
    thread_checks, phase_checks = [], []
    counts: Dict[str, int] = {}
    for dump in dumps:
        these = _spans(dump)
        for span in these:
            span["id"] = (dump["pid"], span["id"])
            span["parent"] = (dump["pid"], span["parent"]) if span["parent"] else None
            span["thread"] = (dump["pid"], span["thread"])
        selfs = stats.self_times(these)
        self_of.update(selfs)
        spans.extend(these)
        for name, value in dump["counts"].items():
            counts[name] = counts.get(name, 0) + value
        by_thread: Dict[object, List[dict]] = {}
        for span in these:
            by_thread.setdefault(span["thread"], []).append(span)
        lifetimes = {(dump["pid"], int(k)): v for k, v in dump["threads"].items()}
        for thread, group in by_thread.items():
            life = lifetimes.get(thread)
            thread_checks.append(
                life is not None
                and stats.fits_lifetime(group, selfs, life, SLACK_SHARE, SLACK_S)
            )
        main = by_thread.get((dump["pid"], dump["main_thread"]), [])
        for phase in dump["phases"].values():
            phase_checks.append(stats.covers_phase(main, selfs, phase, SLACK_SHARE, SLACK_S))

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def self_s(*names):
        return sum(self_of[s["id"]] for s in named(*names))

    def total_s(spans_):
        return sum(s["end"] - s["start"] for s in spans_)

    m: Dict[str, float] = {}
    m["data.generate_s"] = self_s("data.generate")

    serialize = named("serialize")
    m["serialize.calls"] = len(serialize)
    m["serialize.tokens"] = sum(s["extra"] or 0 for s in serialize)
    m["serialize.probes_per_call"] = _ratio(len(named("serialize.rows")), len(serialize))
    m["serialize.self_s"] = self_s("serialize", "serialize.rows")

    encodes = named("encoder.encode")
    forwards = named("encoder.forward_batch")
    seq, tokens, attn, flops = 0, 0, 0, 0
    for span in encodes + forwards:
        lengths, dim, layers, heads, ffn = span["extra"]
        for length in lengths:
            seq += 1
            tokens += length
            attn += layers * heads * length * length
            # Q/K/V/output projections, scores and mixing, FFN (2 per MAC).
            flops += layers * (2 * 4 * length * dim * dim
                               + 2 * 2 * length * length * dim
                               + 2 * 2 * length * dim * ffn)
    m["encoder.sequences"] = seq
    m["encoder.tokens"] = tokens
    m["encoder.attn_elems"] = attn
    m["encoder.flops"] = flops
    m["encoder.seqs_per_forward"] = _ratio(seq, len(encodes) + len(forwards))
    m["encoder.encode.self_s"] = self_s("encoder.encode")
    m["encoder.forward_batch.self_s"] = self_s("encoder.forward_batch")
    m["encoder.embed_tokens.self_s"] = self_s("encoder.embed_tokens")
    m["encoder.attention_mask.self_s"] = self_s("encoder.attention_mask")

    backends = named("backend")
    backend_ids = {s["id"] for s in backends}
    backend_seqs = sum(s["extra"][0] for s in backends)
    singles = sum(1 for s in encodes if s["parent"] in backend_ids)
    m["backend.calls"] = len(backends)
    m["backend.single_share"] = _ratio(singles, backend_seqs)
    m["backend.long_share"] = _ratio(sum(s["extra"][1] for s in backends), backend_seqs)
    m["backend.self_s"] = self_s("backend")

    m["aggregate.calls"] = len(named("aggregate"))
    m["aggregate.self_s"] = self_s("aggregate")

    planner = [s for s in named("planner") if s["extra"]]
    requested = sum(s["extra"][0] for s in planner)
    m["planner.tables_requested"] = requested
    m["planner.dedup_ratio"] = _ratio(requested - sum(s["extra"][1] for s in planner), requested)
    m["planner.self_s"] = self_s("planner")
    pipeline = counters.get("pipeline") or {}
    m["pipeline.wait_s"] = float(pipeline.get("wait_seconds", 0.0))
    m["pipeline.overlap_ratio"] = float(pipeline.get("overlap_ratio", 0.0))

    m["fingerprint.calls"] = len(named("fingerprint"))
    m["fingerprint.self_s"] = self_s("fingerprint")

    gets = named("cache.get")
    cache = counters.get("cache") or {}
    m["cache.gets"] = len(gets)
    m["cache.hit_ratio"] = _ratio(sum(1 for s in gets if s["extra"]), len(gets))
    m["cache.get_s"] = self_s("cache.get")
    m["cache.put_s"] = self_s("cache.put")
    m["cache.evictions"] = int(cache.get("evictions", 0))

    disk_gets = named("disk.get")
    m["disk.gets"] = len(disk_gets)
    m["disk.hit_ratio"] = _ratio(sum(1 for s in disk_gets if s["extra"][0]), len(disk_gets))
    m["disk.get_s"] = total_s(disk_gets)
    m["disk.puts"] = len(named("disk.put"))
    m["disk.put_s"] = total_s(named("disk.put"))
    m["disk.index_bytes"] = (
        statistics.mean(s["extra"][1] for s in disk_gets) if disk_gets else 0.0
    )

    m["measures.calls"] = len(named("measures"))
    m["measures.self_s"] = self_s("measures")
    m["property.self_s"] = self_s("property")

    records = sweep_pass["records"]
    cell_seconds = [r["seconds"] for r in records]
    m["sweep.cells"] = len(records)
    m["sweep.cell_p50_s"] = statistics.median(cell_seconds) if cell_seconds else 0.0
    m["sweep.cell_max_s"] = max(cell_seconds, default=0.0)
    m["sweep.idle_s"] = sweep_pass["workers"] * sweep_pass["seconds"] - sum(cell_seconds)

    m["journal.appends"] = len(named("journal.append"))
    m["journal.append_s"] = total_s(named("journal.append"))

    dispatch = named("http.dispatch")
    m["http.requests"] = len(dispatch)
    m["http.dispatch_s"] = total_s(dispatch)
    m["http.wire_s"] = client.get("round_trip_s", 0.0) - m["http.dispatch_s"] if dispatch else 0.0
    m["http.resp_bytes"] = client.get("resp_bytes", 0)

    # Admission wait: from the submit handler's entry to the start of the
    # job's sweep on a runner, pairing each sweep with the latest
    # submission of its job that came before it (evicted jobs rerun).
    accepted: Dict[str, List[float]] = {}
    for span in named("svc.submit"):
        job_id, status, _hit = span["extra"]
        if status == "queued":
            accepted.setdefault(job_id, []).append(span["start"])
    waits = []
    for span in named("sweep"):
        ctx = span["ctx"] or ""
        earlier = [t for t in accepted.get(ctx[4:], ()) if t <= span["start"]]
        if ctx.startswith("job:") and earlier:
            waits.append((span["start"] - max(earlier)) * 1000.0)
    m["svc.queue_wait_p50_ms"] = stats.percentile(waits, 50) if waits else 0.0
    m["svc.queue_wait_p90_ms"] = stats.percentile(waits, 90) if waits else 0.0
    service = counters.get("service") or {}
    submits = len(named("svc.submit"))
    m["svc.result_hit_ratio"] = _ratio(service.get("cache", {}).get("hits", 0), submits)
    m["svc.dedup"] = service.get("deduplicated", 0)
    m["svc.rejected"] = service.get("rejected", 0)
    m["svc.jobs_retained"] = sum(service.get("jobs", {}).values())
    m["svc.tables_retained"] = service.get("tables", 0)

    queries = named("index.query")
    m["index.queries"] = len(queries)
    m["index.query_off_s"] = total_s(s for s in queries if s["extra"] == "off")
    m["index.query_probe_s"] = total_s(s for s in queries if s["extra"] == "probe")
    m["index.appends"] = len(named("index.append"))
    m["index.append_s"] = total_s(named("index.append"))
    m["index.plan_builds"] = len(named("index.plan_build"))
    m["index.plan_build_s"] = total_s(named("index.plan_build"))
    info = counters.get("index_info") or {}
    m["index.reopens"] = int(info.get("handle_reopens", 0))

    checks = {
        "cache_gets_match": len(gets) == cache.get("hits", 0) + cache.get("misses", 0),
        "streamed_sequences_match": counts.get("encoder.streamed_sequences", 0)
        == pipeline.get("sequences", 0),
        "thread_self_time_fits_lifetime": all(thread_checks),
        "main_self_time_covers_phases": bool(phase_checks) and all(phase_checks),
        "threads_checked": len(thread_checks),
        "phases_checked": len(phase_checks),
    }
    if service:
        checks["client_hits_match"] = client.get("hits", 0) == service["cache"]["hits"]
        opens = len(named("index.open"))
        checks["index_reopens_match"] = opens == 1 + m["index.reopens"]
    return {"metrics": m, "checks": checks}
