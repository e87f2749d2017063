"""Command-line interface.

Exposes the framework without writing Python::

    python -m repro list-models
    python -m repro list-properties
    python -m repro characterize --model bert --property row_order_insignificance
    python -m repro characterize --model bert --property entity_stability --partner t5
    python -m repro report --models bert,t5,doduo
    python -m repro sweep --models bert,t5 --workers 2
    python -m repro index build --dir idx --model t5 --disk-cache cache
    python -m repro index query --dir idx --model t5 --k 5 --prune probe
    python -m repro index info --dir idx

``sweep`` runs the matrix through the batched/cached runtime and reports
skipped cells, cache effectiveness, the encoder backend, and the slowest
cells; ``--execution process`` runs the process scheduler across
spawned worker processes (sharing the ``--disk-cache`` tier, bounded by
``--cache-max-bytes``; the report gains per-worker busy/idle
utilization lines), ``--backend remote
--remote-url http://host:port`` farms encoder forward passes to an HTTP
encoding fleet (repeat ``--remote-url`` per replica;
``--remote-timeout``/``--remote-retries`` bound the transport,
``--remote-compression gzip`` shrinks wire bytes, ``--remote-state-dtype
float32`` halves state bytes within tolerance, the one opt-in tolerance
tier; every other setting is bit-exact), ``--no-async`` disables
the streaming encode pipeline, and ``--no-cache`` falls back to the
legacy one-call-at-a-time execution for comparison.  ``--journal DIR``
write-ahead-journals every completed cell so a killed sweep resumes with
``--resume`` (replaying finished cells, dispatching only the remainder);
``--on-error degrade`` records failing cells as named failures instead
of aborting; ``--deadline SECONDS`` bounds the sweep's wall clock.
SIGINT/SIGTERM seal the journal and exit 130 with a resume hint.  Output
is plain text suited to terminals and CI logs.

``serve`` runs the always-on characterization service
(:mod:`repro.service`): a keep-alive HTTP server that accepts table
uploads and characterization requests, multiplexes concurrent clients
over one shared Observatory behind a bounded admission queue (typed 429
+ ``Retry-After`` past ``--queue-limit``), answers repeat queries from
the result cache, streams per-cell progress, serves the column index
(``/v1/index/*``), doubles as an encoder-fleet replica (``/encode``),
and — given ``--state-dir`` — journals accepted requests so a killed
service replays them on restart.

``index`` manages the persistent columnar joinability-search index
(:mod:`repro.index`): ``build`` embeds a NextiaJD candidate-column corpus
through the fingerprint-keyed embedding cache (share ``--disk-cache``
with a sweep to reuse its embeddings) and appends it to a crash-safe
on-disk index; ``query`` retrieves top-k joinable columns under a chosen
pruning mode; ``info`` prints the persisted state and its guarantees.
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import List, Optional

from repro.analysis.report import (
    full_characterization,
    render_index,
    render_markdown,
    render_sweep,
)
from repro.core.framework import DatasetSizes, Observatory
from repro.core.registry import available_properties
from repro.errors import ObservatoryError
from repro.models.registry import available_models
from repro.runtime import FaultPolicy, RuntimeConfig, TransportConfig


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Observatory: characterize embeddings of relational tables",
    )
    parser.add_argument("--seed", type=int, default=0, help="global seed (default 0)")
    parser.add_argument(
        "--tables", type=int, default=12, help="corpus size for table-based properties"
    )
    parser.add_argument(
        "--permutations", type=int, default=8, help="shuffles per table for P1/P2"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list-models", help="list registered models")
    commands.add_parser("list-properties", help="list registered properties")

    characterize = commands.add_parser(
        "characterize", help="run one property against one model"
    )
    characterize.add_argument("--model", required=True, choices=available_models())
    characterize.add_argument(
        "--property", required=True, dest="property_name", choices=available_properties()
    )
    characterize.add_argument(
        "--partner", default=None, help="second model (entity_stability only)"
    )

    report = commands.add_parser(
        "report", help="full characterization matrix over several models"
    )
    report.add_argument(
        "--models",
        default=",".join(available_models()),
        help="comma-separated model names (default: all)",
    )

    sweep = commands.add_parser(
        "sweep", help="run a (model x property) matrix through the runtime"
    )
    sweep.add_argument(
        "--models",
        default=",".join(available_models()),
        help="comma-separated model names (default: all)",
    )
    sweep.add_argument(
        "--properties",
        default=None,
        help="comma-separated property names (default: all registered)",
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker-pool size (default: $REPRO_SWEEP_WORKERS or auto)",
    )
    sweep.add_argument(
        "--execution",
        choices=["thread", "process"],
        default=None,
        help=(
            "sweep engine: 'thread' shares one in-process cache, 'process' "
            "dispatches work groups to spawned workers, each group once, "
            "sharing only the disk cache "
            "(default: $REPRO_SWEEP_EXECUTION or thread)"
        ),
    )
    sweep.add_argument(
        "--batch-size", type=int, default=8, help="encoder batch size (default 8)"
    )
    sweep.add_argument(
        "--backend",
        choices=["local", "remote"],
        default=None,
        help=(
            "encoder backend: 'local' batches same-length sequences only "
            "(bit-exact), 'remote' ships batches over HTTP to an encoding "
            "service (--remote-url; bit-exact unless --remote-state-dtype "
            "float32) (default: local)"
        ),
    )
    sweep.add_argument(
        "--remote-url",
        action="append",
        default=None,
        metavar="URL",
        help=(
            "replica URL of the remote encoding fleet for --backend remote; "
            "repeat the flag for multiple replicas (latency-weighted "
            "routing, health tracking) (default: $REPRO_REMOTE_URL, "
            "comma-separated for a fleet)"
        ),
    )
    sweep.add_argument(
        "--remote-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request deadline of the remote transport (default 10)",
    )
    sweep.add_argument(
        "--remote-retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "retries after a transient transport fault (timeout/5xx/torn "
            "payload) before the sweep fails (default 3)"
        ),
    )
    sweep.add_argument(
        "--remote-compression",
        choices=["none", "gzip"],
        default="none",
        help=(
            "content encoding of remote request/response bodies "
            "(gzip trades CPU for wire bytes; default none)"
        ),
    )
    sweep.add_argument(
        "--remote-state-dtype",
        choices=["float64", "float32"],
        default="float64",
        help=(
            "floating-point tier hidden states ride the wire in: float64 "
            "is bit-exact, float32 halves state bytes within the documented "
            "tolerance (default float64)"
        ),
    )
    sweep.add_argument(
        "--no-async",
        action="store_true",
        help=(
            "disable the streaming encode pipeline (encode synchronously "
            "instead of overlapping serialization with forward passes)"
        ),
    )
    sweep.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the runtime (legacy one-call-at-a-time execution)",
    )
    sweep.add_argument(
        "--disk-cache",
        default=None,
        metavar="DIR",
        help="persist the embedding cache under DIR across runs",
    )
    sweep.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="byte budget of the disk cache; LRU-evicted past it (default: unbounded)",
    )
    sweep.add_argument(
        "--journal",
        default=None,
        metavar="DIR",
        help=(
            "write-ahead sweep journal directory: every completed cell is "
            "durably recorded before the sweep proceeds, so a killed run "
            "can continue with --resume instead of starting over"
        ),
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help=(
            "replay completed cells from the --journal directory and "
            "dispatch only the remainder (refuses a journal whose plan "
            "fingerprint does not match this invocation)"
        ),
    )
    sweep.add_argument(
        "--on-error",
        choices=["abort", "degrade"],
        default=None,
        help=(
            "cell-failure policy: 'abort' (default) stops the sweep on the "
            "first failing cell, 'degrade' records it as a named failure "
            "on the result and keeps going"
        ),
    )
    sweep.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "wall-clock budget of the whole sweep; when it expires, "
            "remote retries, disk-lock waits, and unfinished cells are "
            "cut short (combine with --journal to resume the remainder)"
        ),
    )

    index = commands.add_parser(
        "index", help="persistent columnar joinability-search index"
    )
    index_actions = index.add_subparsers(dest="index_action", required=True)

    def add_corpus_args(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--dir", required=True, help="index directory")
        sub.add_argument(
            "--model", default="t5", choices=available_models(),
            help="embedding model for column encoding (default t5)",
        )
        sub.add_argument(
            "--pairs", type=int, default=24,
            help="NextiaJD join pairs forming the column corpus (default 24)",
        )
        sub.add_argument(
            "--testbed", default="xs", choices=["xs", "s", "m", "l"],
            help="NextiaJD size testbed (default xs)",
        )
        sub.add_argument(
            "--disk-cache", default=None, metavar="DIR",
            help="persist the embedding cache under DIR across runs",
        )

    index_build = index_actions.add_parser(
        "build",
        help="embed candidate columns (through the cache) and index them",
    )
    add_corpus_args(index_build)

    index_query = index_actions.add_parser(
        "query", help="run query columns against a built index"
    )
    add_corpus_args(index_query)
    index_query.add_argument(
        "--k", type=int, default=5, help="neighbours per query (default 5)"
    )
    index_query.add_argument(
        "--prune", default="off", choices=["off", "probe"],
        help=(
            "candidate pruning: 'off' is provably identical to brute "
            "force, 'probe' scans only the best coarse partitions "
            "(approximate, documented recall floor) (default off)"
        ),
    )
    index_query.add_argument(
        "--queries", type=int, default=None,
        help="limit the number of query columns (default: all pairs)",
    )

    index_info = index_actions.add_parser(
        "info", help="describe an existing index directory"
    )
    index_info.add_argument("--dir", required=True, help="index directory")

    serve = commands.add_parser(
        "serve", help="run the always-on characterization service"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=0, help="bind port (0 picks a free port)"
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=8,
        help=(
            "admission-queue bound: submissions past it receive a typed "
            "429 with Retry-After instead of queueing unboundedly "
            "(default 8)"
        ),
    )
    serve.add_argument(
        "--runners",
        type=int,
        default=2,
        help="job-runner threads draining the admission queue (default 2)",
    )
    serve.add_argument(
        "--sweep-workers",
        type=int,
        default=None,
        help="worker-pool size of each served sweep (default: runtime auto)",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=32,
        help="finished results kept for repeat queries, LRU (default 32)",
    )
    serve.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help=(
            "durability root: accepted requests are write-ahead journaled "
            "under DIR and replayed when a killed service restarts over "
            "the same DIR (default: a fresh temporary directory)"
        ),
    )
    serve.add_argument(
        "--request-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock bound of each served characterization (default: none)",
    )
    serve.add_argument(
        "--retry-after",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="Retry-After advertised on 429 responses (default 0.5)",
    )
    serve.add_argument(
        "--disk-cache",
        default=None,
        metavar="DIR",
        help="persist the embedding cache under DIR across restarts",
    )
    return parser


def _make_observatory(
    args: argparse.Namespace, runtime: Optional[RuntimeConfig] = None
) -> Observatory:
    return Observatory(
        seed=args.seed,
        sizes=DatasetSizes(
            wikitables_tables=args.tables,
            sotab_tables=max(8, args.tables),
            n_permutations=args.permutations,
        ),
        runtime=runtime,
    )


def _run_characterize(args: argparse.Namespace) -> int:
    observatory = _make_observatory(args)
    result = observatory.characterize(
        args.model, args.property_name, partner_model=args.partner
    )
    print(f"property: {result.property_name}")
    print(f"model:    {result.model_name}")
    for key, value in sorted(result.metadata.items()):
        print(f"  {key}: {value}")
    if result.distributions:
        print("distributions:")
        for key in sorted(result.distributions):
            print(f"  {key:32s} {result.distributions[key]}")
    if result.scalars:
        print("scalars:")
        for key in sorted(result.scalars):
            print(f"  {key:32s} {result.scalars[key]:.4f}")
    return 0


def _run_report(args: argparse.Namespace) -> int:
    models = _parse_models(args.models)
    observatory = _make_observatory(args)
    matrix = full_characterization(observatory, models=models)
    print(render_markdown(matrix))
    return 0


def _parse_models(spec: str) -> List[str]:
    models = [name.strip() for name in spec.split(",") if name.strip()]
    unknown = set(models) - set(available_models())
    if unknown:
        raise ObservatoryError(f"unknown models: {sorted(unknown)}")
    return models


def _transport_from_args(args: argparse.Namespace) -> Optional[TransportConfig]:
    """The sweep's TransportConfig, or None when no remote flag was used.

    ``--remote-url`` is repeatable (one flag per fleet replica); without
    it, ``$REPRO_REMOTE_URL`` (comma-separated for a fleet) supplies the
    URLs whenever any other remote flag needs a config built.
    """
    from repro.models.backends.remote import REMOTE_URL_ENV, env_urls

    tuned = (
        args.remote_url is not None
        or args.remote_timeout is not None
        or args.remote_retries is not None
        or args.remote_compression != "none"
        or args.remote_state_dtype != "float64"
    )
    if not tuned:
        return None
    urls = tuple(args.remote_url or ()) or env_urls()
    if not urls:
        raise ValueError(
            "remote transport flags need replica URLs: pass --remote-url "
            f"(repeatable) or set ${REMOTE_URL_ENV}"
        )
    kwargs = {}
    if args.remote_timeout is not None:
        kwargs["timeout"] = args.remote_timeout
    if args.remote_retries is not None:
        kwargs["retries"] = args.remote_retries
    return TransportConfig(
        urls=urls,
        compression=args.remote_compression,
        state_dtype=args.remote_state_dtype,
        **kwargs,
    )


def _run_sweep(args: argparse.Namespace) -> int:
    models = _parse_models(args.models)
    properties = None
    if args.properties:
        properties = [p.strip() for p in args.properties.split(",") if p.strip()]
        unknown = set(properties) - set(available_properties())
        if unknown:
            raise ObservatoryError(f"unknown properties: {sorted(unknown)}")
    try:
        transport = _transport_from_args(args)
        runtime = RuntimeConfig(
            enabled=not args.no_cache,
            batch_size=args.batch_size,
            disk_cache_dir=args.disk_cache,
            cache_max_bytes=args.cache_max_bytes,
            max_workers=args.workers,
            execution=args.execution,
            backend=args.backend,
            async_encode=not args.no_async,
            transport=transport,
        )
        fault_policy = FaultPolicy(deadline=args.deadline)
    except ValueError as error:
        raise ObservatoryError(str(error)) from None
    if args.resume and not args.journal:
        raise ObservatoryError("--resume requires --journal DIR")
    observatory = _make_observatory(args, runtime=runtime)

    # SIGINT/SIGTERM: unwind through run_sweep's ``finally`` so the
    # write-ahead journal seals its segment (every completed cell was
    # already fsync'd at record time) and worker pools shut down, then
    # exit 130 with a resume hint instead of a traceback.
    caught: dict = {}

    def _interrupt(signum, frame):
        caught["signum"] = signum
        raise KeyboardInterrupt

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _interrupt)
        except ValueError:  # non-main thread (embedding callers)
            break
    try:
        sweep = observatory.sweep(
            models,
            properties,
            on_error=args.on_error,
            journal_dir=args.journal,
            resume=args.resume,
            fault_policy=fault_policy,
        )
    except KeyboardInterrupt:
        name = signal.Signals(caught.get("signum", signal.SIGINT)).name
        print(f"\nsweep interrupted by {name}.", file=sys.stderr)
        if args.journal:
            print(
                f"journal flushed to {args.journal}; completed cells are "
                f"durable — resume with --resume",
                file=sys.stderr,
            )
        else:
            print(
                "no journal was active; rerun with --journal DIR to make "
                "sweeps crash-resumable",
                file=sys.stderr,
            )
        return 130
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    print(render_sweep(sweep))
    return 0


def _index_corpus(args: argparse.Namespace):
    """The (pairs, executor) for an index command's column corpus."""
    from repro.data.nextiajd import NextiaJDGenerator, Testbed

    pairs = NextiaJDGenerator(args.seed).generate_pairs(
        args.pairs, Testbed(args.testbed)
    )
    runtime = (
        RuntimeConfig(disk_cache_dir=args.disk_cache) if args.disk_cache else None
    )
    observatory = _make_observatory(args, runtime=runtime)
    return pairs, observatory.executor(args.model)


def _run_index(args: argparse.Namespace) -> int:
    from repro.index import ColumnIndex

    if args.index_action == "info":
        index = ColumnIndex.open(args.dir)
        print(render_index(index.describe()))
        return 0

    pairs, executor = _index_corpus(args)
    if args.index_action == "build":
        index = ColumnIndex(args.dir, dim=executor.dim, create=True)
        known = set(index.keys()) if len(index) else set()
        embeddings = executor.embed_value_columns(
            [(pair.candidate_header, list(pair.candidate_values)) for pair in pairs]
        )
        added = index.append_many(
            (f"cand::{pair.pair_id}", emb)
            for pair, emb in zip(pairs, embeddings)
            if f"cand::{pair.pair_id}" not in known
        )
        print(f"Indexed {added} candidate column(s).")
        print(render_index(index.describe(), cache_stats=executor.cache_stats))
        return 0

    # query
    index = ColumnIndex.open(args.dir)
    selected = pairs if args.queries is None else pairs[: args.queries]
    embeddings = executor.embed_value_columns(
        [(pair.query_header, list(pair.query_values)) for pair in selected]
    )
    results = [
        (f"query::{pair.pair_id}", index.query(emb, args.k, prune=args.prune))
        for pair, emb in zip(selected, embeddings)
    ]
    print(
        render_index(
            index.describe(), cache_stats=executor.cache_stats, results=results
        )
    )
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    import threading

    from repro.analysis.report import render_service
    from repro.service import CharacterizationService, ServiceConfig

    runtime = (
        RuntimeConfig(disk_cache_dir=args.disk_cache) if args.disk_cache else None
    )
    observatory = _make_observatory(args, runtime=runtime)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        runners=args.runners,
        sweep_workers=args.sweep_workers,
        cache_size=args.cache_size,
        state_dir=args.state_dir,
        request_deadline=args.request_deadline,
        retry_after=args.retry_after,
    )
    stop = threading.Event()

    def _interrupt(signum, frame):
        stop.set()

    # The handlers go in before the announcement: a caller may signal as
    # soon as it reads "listening on", and that must still close cleanly.
    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _interrupt)
        except ValueError:  # non-main thread (embedding callers)
            break
    try:
        service = CharacterizationService(observatory, config=config).start()
        try:
            print(f"characterization service listening on {service.url}", flush=True)
            print(f"state dir: {service.state_dir}", flush=True)
            while not stop.wait(0.2):
                pass
        finally:
            service.close()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    print(render_service(service.stats_snapshot()), file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list-models":
            print("\n".join(available_models()))
            return 0
        if args.command == "list-properties":
            print("\n".join(available_properties()))
            return 0
        if args.command == "characterize":
            return _run_characterize(args)
        if args.command == "report":
            return _run_report(args)
        if args.command == "sweep":
            return _run_sweep(args)
        if args.command == "index":
            return _run_index(args)
        if args.command == "serve":
            return _run_serve(args)
    except ObservatoryError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 1


if __name__ == "__main__":
    sys.exit(main())
