"""Spans around the program's public entry points, for the traced run only.

``install()`` wraps each hooked function where its callers bind it: a
method on its class, a module function on the module that calls it (so
``from x import f`` names are patched in the importing module).  Every
call records a span: name, start, end, thread, parent span, and the cell
``(model, property)`` or service job that caused it.  Work the program
hands to another thread starts a new root span there.  Spans stay in
memory until ``dump()`` writes them once, at the end of the run.

Threads are named by their native id, which the kernel does not reuse
within a run, and each thread's lifetime is recorded by a wrapper around
``threading.Thread.run``, outside the span code, so the self-checks can
hold the spans of a thread against a clock the spans did not set.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import os
import threading
import time
from typing import Callable, Dict, List

_ids = itertools.count(1)
_local = threading.local()
SPANS: List[list] = []  # [id, parent, name, thread, start, end, ctx, extra]
COUNTS: Dict[str, int] = {}
THREADS: Dict[int, list] = {}  # native id -> [start, end] of Thread.run


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def span_call(name: str, fn: Callable, args, kwargs, *, ctx=None, extra=None):
    """Run ``fn`` inside a span; ``ctx`` sets the cell/job for nested spans."""
    stack = _stack()
    parent = stack[-1] if stack else None
    sid = next(_ids)
    context = ctx if ctx is not None else (parent[1] if parent else None)
    stack.append((sid, context))
    start = time.perf_counter()
    result = None
    try:
        result = fn(*args, **kwargs)
        return result
    finally:
        end = time.perf_counter()
        stack.pop()
        info = extra(args, kwargs, result) if extra is not None else None
        SPANS.append(
            [sid, parent[0] if parent else None, name, threading.get_native_id(),
             start, end, context, info]
        )


def _wrap(name, fn, ctx_of=None, extra=None):
    def wrapper(*args, **kwargs):
        ctx = ctx_of(args, kwargs) if ctx_of is not None else None
        return span_call(name, fn, args, kwargs, ctx=ctx, extra=extra)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def patch(owner, attr: str, name: str, *, ctx_of=None, extra=None) -> None:
    """Replace ``owner.attr`` with a spanned wrapper (keeps method kinds)."""
    static = inspect.getattr_static(owner, attr)
    if isinstance(static, classmethod):
        wrapped = classmethod(_wrap(name, static.__func__, ctx_of, extra))
    elif isinstance(static, staticmethod):
        wrapped = staticmethod(_wrap(name, static.__func__, ctx_of, extra))
    else:
        wrapped = _wrap(name, static, ctx_of, extra)
    setattr(owner, attr, wrapped)


def count_async(owner, attr: str, counter: str, amount: Callable) -> None:
    """Count calls of an ``async def`` method without a span.

    Coroutines interleave on the event loop's thread, which would break
    the per-thread span nesting; the counts still check the program's own
    counters.
    """
    original = getattr(owner, attr)

    async def wrapper(*args, **kwargs):
        COUNTS[counter] = COUNTS.get(counter, 0) + amount(args, kwargs)
        return await original(*args, **kwargs)

    setattr(owner, attr, wrapper)


# -- span extras -------------------------------------------------------------


def _length(args, kwargs, result):
    return len(result) if result is not None else 0


def _encoder_shape(encoder, lengths):
    cfg = encoder.config
    ffn = encoder.weights.layers[0].w1.shape[1] if encoder.weights.layers else 0
    return [lengths, cfg.dim, cfg.n_layers, cfg.n_heads, ffn]


def _encode_extra(args, kwargs, result):
    return _encoder_shape(args[0], [len(args[1])])


def _forward_extra(args, kwargs, result):
    return _encoder_shape(args[0], [len(t) for t in args[1]])


def _backend_extra(args, kwargs, result):
    backend, token_lists = args[0], args[2]
    long = sum(1 for t in token_lists if len(t) > backend.max_batch_length)
    return [len(token_lists), long]


def _planner_levels_extra(args, kwargs, result):
    from repro.runtime.fingerprint import table_fingerprint

    tables = args[1]
    return [len(tables), len({table_fingerprint(t) for t in tables})]


def _planner_columns_extra(args, kwargs, result):
    from repro.runtime.fingerprint import value_column_fingerprint

    requests = args[1]
    return [len(requests), len({value_column_fingerprint(h, v) for h, v in requests})]


def _hit_extra(args, kwargs, result):
    return result is not None


def _disk_get_extra(args, kwargs, result):
    try:
        size = os.path.getsize(args[0].index_path)
    except OSError:
        size = 0
    return [result is not None, size]


def _query_extra(args, kwargs, result):
    return kwargs.get("prune", "off")


def _submit_extra(args, kwargs, result):
    payload = getattr(result, "payload", None) or {}
    return [payload.get("job_id"), payload.get("status"), bool(payload.get("cache_hit"))]


def _cell_ctx(args, kwargs):
    return f"{args[1]}/{args[2]}"


def _job_ctx(args, kwargs):
    journal_dir = kwargs.get("journal_dir")
    return f"job:{os.path.basename(journal_dir)}" if journal_dir else None


# -- installation ------------------------------------------------------------


def _track_threads() -> None:
    original = threading.Thread.run

    def run(self):
        life = THREADS[threading.get_native_id()] = [time.perf_counter(), None]
        try:
            original(self)
        finally:
            life[1] = time.perf_counter()

    threading.Thread.run = run


MEASURES = ("cosine_similarity", "spearman", "albert_zhang_mcv", "average_overlap_at_k")


def install() -> None:
    """Wrap every hooked entry point (call before building the program)."""
    _track_threads()
    mod = importlib.import_module
    framework = mod("repro.core.framework")
    obs = framework.Observatory
    for attr in ("wikitables", "spider_sets", "join_pairs", "perturbation_suite",
                 "sotab", "entity_catalog"):
        patch(obs, attr, "data.generate")
    patch(obs, "characterize", "cell", ctx_of=_cell_ctx)
    patch(obs, "sweep", "sweep", ctx_of=_job_ctx)

    serializers = mod("repro.models.serializers")
    for cls in (serializers.RowWiseSerializer, serializers.ColumnWiseSerializer):
        patch(cls, "serialize", "serialize", extra=_length)
        patch(cls, "serialize_rows", "serialize.rows")
    patch(serializers.RowTemplateSerializer, "serialize_row", "serialize", extra=_length)

    encoder = mod("repro.models.encoder").Encoder
    patch(encoder, "encode", "encoder.encode", extra=_encode_extra)
    patch(encoder, "forward_batch", "encoder.forward_batch", extra=_forward_extra)
    patch(encoder, "forward_padded", "encoder.forward_batch", extra=_forward_extra)
    patch(encoder, "embed_tokens", "encoder.embed_tokens")
    patch(encoder, "attention_mask", "encoder.attention_mask")
    count_async(encoder, "aencode_batch", "encoder.streamed_sequences",
                lambda args, kwargs: len(args[1]))
    patch(mod("repro.models.backends.local").LocalBackend, "encode_batch",
          "backend", extra=_backend_extra)

    aggregate = mod("repro.models.aggregate")
    for attr in ("column_embeddings", "row_embeddings", "table_embedding",
                 "cell_embeddings", "entity_embedding"):
        patch(aggregate, attr, "aggregate")

    planner = mod("repro.runtime.planner")
    executor = planner.EmbeddingExecutor
    patch(executor, "embed_levels_many", "planner", extra=_planner_levels_extra)
    patch(executor, "embed_value_columns", "planner", extra=_planner_columns_extra)
    patch(executor, "embed_cells", "planner")
    patch(executor, "embed_entities", "planner")
    for attr in ("table_fingerprint", "value_column_fingerprint", "coords_fingerprint"):
        patch(planner, attr, "fingerprint")
    cache = mod("repro.runtime.cache")
    patch(cache, "cache_entry_digest", "fingerprint")
    patch(cache.EmbeddingCache, "get", "cache.get", extra=_hit_extra)
    patch(cache.EmbeddingCache, "put", "cache.put")
    disk = mod("repro.runtime.disk").DiskTier
    patch(disk, "get", "disk.get", extra=_disk_get_extra)
    patch(disk, "put", "disk.put")

    registry = mod("repro.core.registry")
    seen = set()
    for name in registry.available_properties():
        for klass in type(registry.load_property(name)).__mro__:
            if "run" in klass.__dict__ and klass not in seen and klass.__name__ != "PropertyRunner":
                seen.add(klass)
                patch(klass, "run", "property")
                break
    for module_name in ("base", "p1_row_order", "p2_column_order", "p3_join_relationship",
                        "p4_functional_dependencies", "p5_sample_fidelity",
                        "p6_entity_stability", "p7_perturbation_robustness",
                        "p8_heterogeneous_context"):
        module = mod(f"repro.core.properties.{module_name}")
        for attr in MEASURES:
            if attr in vars(module):
                patch(module, attr, "measures")
    patch(mod("repro.core.results"), "summarize", "measures")

    journal = mod("repro.runtime.journal").SweepJournal
    patch(journal, "start", "journal.append")
    for attr in ("record_planned", "record_cell", "record_failure"):
        patch(journal, attr, "journal.append")
    request_journal = mod("repro.service.journal").RequestJournal
    for attr in ("record_request", "record_done"):
        patch(request_journal, attr, "journal.append")

    patch(mod("repro.service.http").HttpPlane, "dispatch", "http.dispatch")
    patch(mod("repro.service.app").CharacterizationService, "_handle_submit",
          "svc.submit", extra=_submit_extra)

    column_index = mod("repro.index.column_index")
    patch(column_index.ColumnIndex, "query", "index.query", extra=_query_extra)
    patch(column_index.ColumnIndex, "append_many", "index.append")
    patch(column_index.ColumnIndex, "open", "index.open")
    patch(column_index, "build_plan", "index.plan_build")


def root(name: str, fn: Callable, *args, **kwargs):
    """Run ``fn`` under a root span on this thread (the traced phase)."""
    return span_call(name, fn, args, kwargs)


def dump(path: str, process: str, started: float, phases: Dict[str, list]) -> None:
    """Write every span, count and thread lifetime of this process, once.

    ``started`` is the process's start on the span clock; ``phases`` maps
    a phase name to the ``[start, end]`` its caller timed around it.
    """
    now = time.perf_counter()
    threads = {ident: [start, end if end is not None else now]
               for ident, (start, end) in THREADS.items()}
    threads[threading.main_thread().native_id] = [started, now]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"process": process, "pid": os.getpid(), "spans": SPANS,
                   "counts": COUNTS, "threads": threads,
                   "main_thread": threading.main_thread().native_id,
                   "phases": phases}, handle)
