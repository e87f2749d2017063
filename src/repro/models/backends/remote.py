"""Remote encoding over HTTP: a fleet client for the TokenArray wire format.

:class:`RemoteBackend` completes the backend seam PR 3 opened: instead of
running forward passes in-process, it ships serialized sequences — the
JSON form of :meth:`TokenArray.to_wire` payloads, piece strings plus
base64 provenance arrays — to one or more encoding replicas and decodes
the returned hidden states.  The shape follows "BERT Meets Relational DB"
(arXiv:2104.14914): the client serializes and aggregates (pure Python,
cheap) while GPU hosts run the contextual encoder (the expensive part),
and Observatory's 8-properties × many-models sweep matrix is exactly the
workload that wants that split.

Everything about the transport is configured through one typed object,
:class:`~repro.models.backends.transport.TransportConfig`:

- **Replicas** (``urls``): each URL is an independent encoding service.
  The client tracks per-replica health (consecutive failures) and latency
  (per-sequence round-trip EWMA + minimum observed RTT), splits each
  encode chunk into per-replica shards weighted by measured speed, and
  **quarantines** a replica after repeated transport failures — probing
  it again once the quarantine lapses, so a recovered host rejoins the
  rotation without operator action.
- **Keep-alive pooling** (``pool_size``): requests ride HTTP/1.1
  keep-alive connections drawn from a bounded per-replica pool, retiring
  the one-``Connection: close``-socket-per-chunk design; chunked
  transfer-encoded responses are decoded, so real servers (nginx,
  uvicorn) work unmodified.
- **Compression** (``compression="gzip"``): request and response bodies
  are gzip-encoded end to end (the response side is negotiated via
  ``Accept-Encoding``, so it is strictly opt-in).  Base64 float64 states
  inflate raw bytes by ~33%; gzip claws that back and more.
- **State tier** (``state_dtype="float32"``): hidden states ride the
  wire as little-endian float32, halving state bytes within the
  documented :data:`FLOAT32_TOLERANCE` — the same opt-in tolerance-tier
  contract :data:`~repro.models.backends.padded.PADDED_TOLERANCE`
  established.  Requires ``exact=False``; exactness is a promise.
- **Hedged requests** (``hedge_after``): when a chunk has been in flight
  longer than the configured percentile of observed round trips, a
  speculative copy is sent to a different replica.  The first valid
  digest-echoed response wins; the loser is cancelled and its result is
  **never** double-counted (exactly one decoded response is consumed per
  chunk).  This bounds the tail a single slow host can impose on a sweep
  ("The Tail at Scale" discipline).

Protocol (one ``POST {url}/encode`` per shard)::

    request:  {"protocol": 2,
               "model": ModelConfig.to_jsonable(),
               "mode": "exact" | "padded",
               "padding_tier": int,
               "batch_size": int,
               "state_dtype": "float64" | "float32",
               "sequences": [wire_to_jsonable(ta.to_wire()), ...]}
    response: {"states": [{"digest": <echo of the input sequence digest>,
                           "shape": [L, D],
                           "dtype": "float64" | "float32",
                           "data": base64(little-endian state bytes),
                           "data_digest": sha256(raw bytes)}, ...]}

Failure semantics, by class:

- **Transient transport faults** — connection errors, request deadlines
  (``timeout`` per request, enforced with ``asyncio.wait_for``), HTTP
  5xx, torn/undecodable bodies — are retried up to ``retries`` times
  with exponential backoff and jitter, rerouting away from the replica
  that just failed when an alternative exists.
- **Out-of-order responses** are not faults at all: every state echoes
  its input sequence's digest, and the client reassembles by digest, so
  a service is free to return states in any order.
- **Integrity failures** — a state whose bytes do not hash to its
  ``data_digest``, a wrong shape or dtype, or an echo set that does not
  cover the request — are *rejected immediately*
  (:class:`RemoteEncodeError`): corrupted science must never be retried
  into acceptance.
- HTTP 4xx is a client bug and raises immediately with the service's
  message.

Numerics: the service runs the same deterministic surrogate encoder
(rebuilt from the shipped :class:`ModelConfig`), so ``mode="exact"``
float64 results are **bit-identical** to :class:`LocalBackend`,
``mode="padded"`` stays within :data:`PADDED_TOLERANCE`, and the float32
tier within :data:`FLOAT32_TOLERANCE` — the loopback double
(:mod:`repro.testing.encoder_service`) locks all three in.

The backend also measures per-replica round-trip times and exposes
:meth:`suggest_pipeline_chunk`, which the streaming executor consults so
its chunk size adapts to the *fastest currently-healthy replica's*
latency (amortizing per-request fixed cost on slow links) instead of
assuming local BLAS costs.  All transport accounting lands in a
:class:`TransportStats` — including a per-replica breakdown — that the
sweep report surfaces.
"""

from __future__ import annotations

import asyncio
import base64
import dataclasses
import gzip
import hashlib
import json
import os
import random
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

import numpy as np

from repro.errors import DeadlineExceededError, ModelError, RemoteEncodeError
from repro.models.backends.base import EncoderBackend
from repro.models.backends.padded import DEFAULT_TIER_WIDTH, PADDED_TOLERANCE
from repro.models.backends.transport import TransportConfig
from repro.models.token_array import TokenArray, TokenSequence, wire_to_jsonable

#: Environment fallback for the replica URLs (CLI/RuntimeConfig take
#: priority); comma-separated values configure a fleet.
REMOTE_URL_ENV = "REPRO_REMOTE_URL"

#: Wire protocol version.  2 added ``state_dtype`` (and the ``dtype``
#: echo on response states); services refuse any other version.
PROTOCOL_VERSION = 2

#: Per-element relative tolerance of the float32 state tier: float64
#: states rounded to float32 on the wire carry at most ~6e-8 relative
#: rounding error per element; 1e-6 leaves margin for accumulation in
#: downstream pooling.  Same opt-in contract as ``PADDED_TOLERANCE``.
FLOAT32_TOLERANCE = 1e-6

DEFAULT_TIMEOUT = 10.0
DEFAULT_RETRIES = 3
#: First backoff delay; doubles per retry up to the cap, ±50% jitter.
DEFAULT_BACKOFF = 0.05
BACKOFF_CAP = 2.0

#: Chunk sizing: aim for chunks worth ~this much service time, stretched
#: to at least LATENCY_AMORTIZATION round-trips' worth of work so fixed
#: network latency never dominates a chunk.
TARGET_CHUNK_SECONDS = 0.25
LATENCY_AMORTIZATION = 4.0
MAX_PIPELINE_CHUNK = 256

#: Transport failures in a row before a replica is quarantined, and how
#: long the quarantine lasts before the replica is probed again.
QUARANTINE_AFTER = 3
QUARANTINE_SECONDS = 5.0

#: Fleet sharding never splits below this many sequences per shard — a
#: shard must carry enough work to amortize its own round trip.
MIN_SHARD_SEQUENCES = 8

#: Hedging engages only after this many measured round trips (a
#: percentile over fewer samples is noise), and never fires earlier than
#: the floor (avoids hedging storms on sub-millisecond loopback links).
MIN_HEDGE_SAMPLES = 4
HEDGE_DELAY_FLOOR = 0.002
RTT_WINDOW = 64


class _TransientError(RemoteEncodeError):
    """Internal marker: a fault the retry loop may re-attempt."""


@dataclasses.dataclass
class ReplicaStats:
    """Per-replica transport accounting (keyed by URL on the parent).

    ``requests`` counts attempts routed to the replica (including retried
    and hedged ones); ``chunks`` only the round trips whose response was
    actually consumed — a hedge loser's completed response increments
    neither ``chunks`` nor the result set.
    """

    requests: int = 0
    chunks: int = 0
    errors: int = 0
    hedges_won: int = 0
    quarantines: int = 0
    round_trip_seconds: float = 0.0

    @property
    def mean_round_trip(self) -> float:
        return self.round_trip_seconds / self.chunks if self.chunks else 0.0

    def to_dict(self) -> Dict[str, float]:
        out = dataclasses.asdict(self)
        out["mean_round_trip"] = self.mean_round_trip
        return out

    def add(self, other: "ReplicaStats") -> None:
        for field in dataclasses.fields(ReplicaStats):
            setattr(
                self, field.name, getattr(self, field.name) + getattr(other, field.name)
            )

    def since(self, baseline: "ReplicaStats") -> "ReplicaStats":
        out = ReplicaStats()
        for field in dataclasses.fields(ReplicaStats):
            setattr(
                out,
                field.name,
                getattr(self, field.name) - getattr(baseline, field.name),
            )
        return out


@dataclasses.dataclass
class TransportStats:
    """Cumulative remote-transport accounting (thread-safe via the backend).

    ``requests`` counts every attempt (including retried and hedged
    ones); ``chunks`` only the round trips whose response was consumed.
    ``round_trip_seconds`` sums consumed round trips, so
    ``mean_round_trip`` is the per-chunk latency the report shows.
    ``bytes_sent``/``bytes_received`` measure **bytes on the wire**
    (after compression), for every attempt that transferred them —
    hedged duplicates really cross the network, so they count here even
    though their responses never reach the results.  ``replicas`` breaks
    routing down per replica URL.
    """

    requests: int = 0
    chunks: int = 0
    retries: int = 0
    timeouts: int = 0
    http_errors: int = 0
    sequences: int = 0
    round_trip_seconds: float = 0.0
    bytes_sent: int = 0
    bytes_received: int = 0
    connections_opened: int = 0
    connections_reused: int = 0
    hedges: int = 0
    hedges_won: int = 0
    hedges_cancelled: int = 0
    quarantines: int = 0
    replicas: Dict[str, ReplicaStats] = dataclasses.field(default_factory=dict)

    _NUMERIC = (
        "requests", "chunks", "retries", "timeouts", "http_errors",
        "sequences", "round_trip_seconds", "bytes_sent", "bytes_received",
        "connections_opened", "connections_reused", "hedges", "hedges_won",
        "hedges_cancelled", "quarantines",
    )

    @property
    def mean_round_trip(self) -> float:
        """Mean seconds per consumed chunk round trip."""
        return self.round_trip_seconds / self.chunks if self.chunks else 0.0

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {name: getattr(self, name) for name in self._NUMERIC}
        out["mean_round_trip"] = self.mean_round_trip
        out["replicas"] = {url: rs.to_dict() for url, rs in sorted(self.replicas.items())}
        return out

    def copy(self) -> "TransportStats":
        """Deep-enough copy: per-replica entries are duplicated too."""
        out = dataclasses.replace(
            self, replicas={u: dataclasses.replace(r) for u, r in self.replicas.items()}
        )
        return out

    @classmethod
    def merged(cls, many: Sequence["TransportStats"]) -> "TransportStats":
        out = cls()
        for stats in many:
            for name in cls._NUMERIC:
                setattr(out, name, getattr(out, name) + getattr(stats, name))
            for url, rs in stats.replicas.items():
                out.replicas.setdefault(url, ReplicaStats()).add(rs)
        return out

    def since(self, baseline: "TransportStats") -> "TransportStats":
        """Counters accumulated after ``baseline`` was snapshotted."""
        out = TransportStats()
        for name in self._NUMERIC:
            setattr(out, name, getattr(self, name) - getattr(baseline, name))
        for url, rs in self.replicas.items():
            base = baseline.replicas.get(url)
            delta = rs.since(base) if base is not None else dataclasses.replace(rs)
            if any(
                getattr(delta, f.name) for f in dataclasses.fields(ReplicaStats)
            ):
                out.replicas[url] = delta
        return out


class _Connection:
    """One keep-alive socket, pinned to the event loop that opened it."""

    __slots__ = ("loop", "reader", "writer")

    def __init__(self, loop, reader, writer):
        self.loop = loop
        self.reader = reader
        self.writer = writer

    def abort(self) -> None:
        """Tear the socket down without awaiting (safe cross-loop)."""
        try:
            self.writer.transport.abort()
        except Exception:
            pass  # already broken / loop gone — nothing left to release


class _Replica:
    """One encoding replica: address, connection pool, health, latency.

    Connections are pinned to the asyncio loop that opened them (asyncio
    transports cannot migrate loops), so the pool tracks per-loop open
    counts and :meth:`acquire` only hands out idle connections belonging
    to the *running* loop.  The bound is ``pool_size`` open connections
    per loop — the streaming executor drives everything through one
    persistent :func:`~repro.runtime.pipeline.encode_loop`, so in
    practice that is the per-replica fleet-wide bound.
    """

    def __init__(self, url: str, index: int, pool_size: int):
        split = urlsplit(url)
        self.url = url
        self.index = index
        self.host = split.hostname
        self.port = split.port or 80
        self.path = (split.path.rstrip("/") or "") + "/encode"
        self.pool_size = pool_size
        self.lock = threading.Lock()
        self._idle: List[_Connection] = []
        self._open_counts: Dict[int, int] = {}
        self._loops: Dict[int, object] = {}
        # Health / latency model (guarded by ``lock``).
        self.in_flight = 0
        self.consecutive_failures = 0
        self.quarantined_until = 0.0  # time.monotonic deadline; 0 = healthy
        self.per_seq_ewma: Optional[float] = None
        self.min_rtt: Optional[float] = None

    # -- connection pool ----------------------------------------------

    async def acquire(self, timeout: float) -> Tuple[_Connection, bool]:
        """An idle pooled connection, or a new one within the bound.

        Returns ``(connection, reused)``.  Waits (bounded by ``timeout``)
        when the replica already has ``pool_size`` connections open on
        this loop.
        """
        loop = asyncio.get_running_loop()
        deadline = time.monotonic() + timeout
        while True:
            with self.lock:
                self._purge_dead_loops_locked()
                for i, conn in enumerate(self._idle):
                    if conn.loop is loop:
                        self._idle.pop(i)
                        return conn, True
                key = id(loop)
                count = self._open_counts.get(key, 0)
                if count < self.pool_size:
                    self._open_counts[key] = count + 1
                    self._loops[key] = loop
                    break
            if time.monotonic() >= deadline:
                raise _TransientError(
                    f"connection pool to {self.url} exhausted "
                    f"({self.pool_size} connection(s) busy)"
                )
            await asyncio.sleep(0.002)
        try:
            reader, writer = await asyncio.open_connection(self.host, self.port)
        except BaseException:
            with self.lock:
                self._open_counts[id(loop)] -= 1
            raise
        return _Connection(loop, reader, writer), False

    def release(self, conn: _Connection) -> None:
        """Return a healthy keep-alive connection to the pool."""
        with self.lock:
            self._idle.append(conn)

    def discard(self, conn: _Connection) -> None:
        """Close a connection that must not be reused (error, no keep-alive)."""
        conn.abort()
        with self.lock:
            key = id(conn.loop)
            if key in self._open_counts:
                self._open_counts[key] = max(0, self._open_counts[key] - 1)

    def drop_loop(self, loop) -> None:
        """Abort idle connections bound to ``loop`` (it is about to close)."""
        with self.lock:
            keep: List[_Connection] = []
            for conn in self._idle:
                if conn.loop is loop:
                    conn.abort()
                    key = id(loop)
                    self._open_counts[key] = max(0, self._open_counts.get(key, 1) - 1)
                else:
                    keep.append(conn)
            self._idle = keep

    def close_all(self) -> None:
        """Abort every idle connection (backend shutdown)."""
        with self.lock:
            for conn in self._idle:
                conn.abort()
                key = id(conn.loop)
                self._open_counts[key] = max(0, self._open_counts.get(key, 1) - 1)
            self._idle = []

    def _purge_dead_loops_locked(self) -> None:
        alive: List[_Connection] = []
        for conn in self._idle:
            if conn.loop.is_closed():
                conn.abort()
                key = id(conn.loop)
                self._open_counts[key] = max(0, self._open_counts.get(key, 1) - 1)
            else:
                alive.append(conn)
        self._idle = alive
        for key, loop in list(self._loops.items()):
            if getattr(loop, "is_closed", lambda: False)() and not self._open_counts.get(key):
                self._open_counts.pop(key, None)
                self._loops.pop(key, None)

    # -- health / latency ---------------------------------------------

    def available(self, now: Optional[float] = None) -> bool:
        """Not currently quarantined (a lapsed quarantine means: probe me)."""
        now = time.monotonic() if now is None else now
        with self.lock:
            return now >= self.quarantined_until

    def note_ok(self) -> None:
        """A successful attempt: clear the failure streak / quarantine."""
        with self.lock:
            self.consecutive_failures = 0
            self.quarantined_until = 0.0

    def note_failure(self, quarantine_after: int, quarantine_seconds: float) -> bool:
        """Record a transport failure; True when it tripped a quarantine."""
        with self.lock:
            self.consecutive_failures += 1
            now = time.monotonic()
            if (
                self.consecutive_failures >= quarantine_after
                and now >= self.quarantined_until
            ):
                self.quarantined_until = now + quarantine_seconds
                return True
        return False

    def note_rtt(self, rtt: float, n_sequences: int) -> None:
        """Fold a consumed round trip into this replica's latency model."""
        with self.lock:
            per_seq = rtt / max(1, n_sequences)
            if self.per_seq_ewma is None:
                self.per_seq_ewma = per_seq
            else:
                self.per_seq_ewma = 0.7 * self.per_seq_ewma + 0.3 * per_seq
            self.min_rtt = rtt if self.min_rtt is None else min(self.min_rtt, rtt)


class RemoteBackend(EncoderBackend):
    """Ship token sequences to a fleet of HTTP encoding replicas.

    All transport behavior lives on a
    :class:`~repro.models.backends.transport.TransportConfig`; the flat
    ``url``/``timeout``/``retries``/... keyword arguments remain as a
    convenience that builds a single-replica config (so
    ``RemoteBackend("http://host:8077")`` keeps working).

    Args:
        url: a service base URL (``http://host:port``), or a full
            :class:`TransportConfig`; falls back to the
            ``REPRO_REMOTE_URL`` environment variable (comma-separated
            URLs configure a fleet).
        config: explicit :class:`TransportConfig`; mutually exclusive
            with ``url`` and the flat transport kwargs.
        timeout / retries / compression / state_dtype / hedge_after /
            pool_size: single-replica conveniences mapped onto a
            :class:`TransportConfig` (``None`` = that field's default).
        exact: request bit-exact same-length batching on the service
            (``mode="exact"``); ``False`` requests padded tolerance
            tiers.  The backend's *overall* exactness contract also
            requires ``state_dtype="float64"``.
        padding_tier: tier width the service pads within when non-exact.
        backoff_base / backoff_cap: exponential-backoff envelope.
        quarantine_after / quarantine_seconds: failure streak that
            quarantines a replica, and for how long.
        rng: jitter source (tests inject a seeded one).
    """

    name = "remote"

    def __init__(
        self,
        url: Optional[object] = None,
        *,
        config: Optional[TransportConfig] = None,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        compression: Optional[str] = None,
        state_dtype: Optional[str] = None,
        hedge_after: Optional[float] = None,
        pool_size: Optional[int] = None,
        exact: bool = True,
        padding_tier: int = DEFAULT_TIER_WIDTH,
        backoff_base: float = DEFAULT_BACKOFF,
        backoff_cap: float = BACKOFF_CAP,
        target_chunk_seconds: float = TARGET_CHUNK_SECONDS,
        quarantine_after: int = QUARANTINE_AFTER,
        quarantine_seconds: float = QUARANTINE_SECONDS,
        rng: Optional[random.Random] = None,
    ):
        if isinstance(url, TransportConfig):
            if config is not None:
                raise ModelError("pass one TransportConfig, not two")
            config, url = url, None
        if config is not None:
            flat = (url, timeout, retries, compression, state_dtype, hedge_after, pool_size)
            if any(v is not None for v in flat):
                raise ModelError(
                    "transport options belong on the TransportConfig; do not "
                    "pass url/timeout/retries/... alongside config="
                )
        else:
            urls: Tuple[str, ...]
            if url:
                urls = (str(url),)
            else:
                env = os.environ.get(REMOTE_URL_ENV, "")
                urls = tuple(u.strip() for u in env.split(",") if u.strip())
            if not urls:
                raise ModelError(
                    "remote backend needs a service URL: pass url= or a "
                    "TransportConfig, use RuntimeConfig(transport=...), or "
                    f"set ${REMOTE_URL_ENV}"
                )
            try:
                config = TransportConfig(
                    urls=urls,
                    timeout=DEFAULT_TIMEOUT if timeout is None else timeout,
                    retries=DEFAULT_RETRIES if retries is None else retries,
                    compression=compression or "none",
                    state_dtype=state_dtype or "float64",
                    hedge_after=hedge_after,
                    pool_size=pool_size or 4,
                )
            except ValueError as error:
                raise ModelError(str(error)) from None
        self.config = config
        self.url = config.urls[0]  # compat: the (first) replica URL
        self.timeout = config.timeout
        self.retries = config.retries
        #: Batching mode requested of the service ("exact" = same-length
        #: batching, bit-identical on the service side).
        self.exact_mode = bool(exact)
        #: The backend-contract exactness: bit-identical end to end needs
        #: exact batching *and* float64 states on the wire.
        self.exact = self.exact_mode and config.state_dtype == "float64"
        tolerance = 0.0
        if not self.exact_mode:
            tolerance += PADDED_TOLERANCE
        if config.state_dtype == "float32":
            tolerance += FLOAT32_TOLERANCE
        self.tolerance = tolerance if tolerance else None
        self.padding_tier = padding_tier
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.target_chunk_seconds = target_chunk_seconds
        self.quarantine_after = quarantine_after
        self.quarantine_seconds = quarantine_seconds
        self._rng = rng or random.Random()
        self._deadline = None  # optional live sweep budget; see set_deadline
        self.stats = TransportStats()
        self._stats_lock = threading.Lock()
        self._replicas = [
            _Replica(u, i, config.pool_size) for i, u in enumerate(config.urls)
        ]
        # Fleet-wide window of consumed round trips — the hedge delay is
        # a percentile over it.
        self._rtt_samples: Deque[float] = deque(maxlen=RTT_WINDOW)

    # -- description / policy -----------------------------------------

    def set_deadline(self, deadline) -> None:
        """Bound retries, backoff sleeps, and per-attempt timeouts by a
        live sweep budget (:class:`~repro.runtime.faults.Deadline`).

        With the budget spent, the retry loop raises
        :class:`~repro.errors.DeadlineExceededError` instead of burning
        more attempts — the sweep's one deadline reaches the transport.
        """
        self._deadline = deadline

    def _request_timeout(self) -> float:
        """The per-attempt timeout, capped by any live deadline."""
        if self._deadline is None:
            return self.timeout
        return max(0.001, self._deadline.bound(self.timeout))

    @property
    def cache_namespace(self) -> str:
        """Remote results always live in their own cache key space.

        Exact-mode float64 responses are bit-identical to local by
        contract, but the producer is a network service outside this
        process's trust boundary — the same isolation rule PR 3 applied
        to tolerance tiers keeps a misbehaving service from poisoning the
        local/exact namespace through a shared or persistent cache.  The
        float32 tier gets its own suffix for the same reason tiers do.
        """
        space = "remote" if self.exact_mode else "remote+padded"
        if self.config.state_dtype == "float32":
            space += "+f32"
        return space

    def describe(self) -> str:
        mode = (
            "exact"
            if self.exact_mode
            else f"padded tier={self.padding_tier} tol={PADDED_TOLERANCE:g}"
        )
        detail = self.config.describe()
        target = self.url if len(self.config.urls) == 1 else "fleet"
        return f"{self.name} ({mode}, {detail}, {target})"

    def stats_snapshot(self) -> TransportStats:
        """Consistent copy of the cumulative transport counters."""
        with self._stats_lock:
            return self.stats.copy()

    def close(self) -> None:
        """Drop every idle pooled connection (the backend stays usable)."""
        for replica in self._replicas:
            replica.close_all()

    # -- latency-aware chunk sizing ------------------------------------

    def suggest_pipeline_chunk(self, default: int) -> int:
        """Sequences per streaming-executor chunk, from measured RTTs.

        Each chunk is one HTTP round trip (possibly sharded across
        replicas), so the right size balances two pressures: chunks must
        be *long* enough that fixed network latency is amortized (>=
        ``LATENCY_AMORTIZATION`` × the observed RTT floor of useful work)
        and *short* enough that the pipeline still overlaps serialization
        with in-flight encodes.  The estimate follows the **fastest
        currently-healthy replica** — the one routing favors — rather
        than a fleet-global EWMA a straggler would poison.  Until a round
        trip has been measured the executor's own default stands.
        """
        now = time.monotonic()
        best: Optional[Tuple[float, Optional[float]]] = None
        fallback: Optional[Tuple[float, Optional[float]]] = None
        for replica in self._replicas:
            with replica.lock:
                ewma, min_rtt = replica.per_seq_ewma, replica.min_rtt
                quarantined = now < replica.quarantined_until
            if ewma is None or ewma <= 0:
                continue
            candidate = (ewma, min_rtt)
            if fallback is None or ewma < fallback[0]:
                fallback = candidate
            if not quarantined and (best is None or ewma < best[0]):
                best = candidate
        chosen = best or fallback
        if chosen is None:
            return default
        per_seq, min_rtt = chosen
        target = max(
            self.target_chunk_seconds, LATENCY_AMORTIZATION * (min_rtt or 0.0)
        )
        return max(1, min(MAX_PIPELINE_CHUNK, int(target / per_seq)))

    # -- encoding ------------------------------------------------------

    def encode_batch(
        self, encoder, token_lists: Sequence[TokenSequence], batch_size: int = 8
    ) -> List[np.ndarray]:
        """Synchronous facade over :meth:`aencode_batch`.

        ``asyncio.run`` builds a fresh event loop per call, so pooled
        connections opened here are released before the loop closes —
        keep-alive reuse materializes *within* one call (retries, hedges,
        shards) and, in production, across the streaming executor's
        persistent encode loop.
        """

        async def run() -> List[np.ndarray]:
            try:
                return await self.aencode_batch(
                    encoder, token_lists, batch_size=batch_size
                )
            finally:
                loop = asyncio.get_running_loop()
                for replica in self._replicas:
                    replica.drop_loop(loop)

        return asyncio.run(run())

    async def aencode_batch(
        self, encoder, token_lists: Sequence[TokenSequence], batch_size: int = 8
    ) -> List[np.ndarray]:
        """Encode one chunk over the fleet; results in input order.

        Empty sequences are answered locally (their embedding is the
        empty ``[0, dim]`` array by definition — no forward pass exists
        to farm out); everything else is split into per-replica shards
        weighted by measured speed and shipped concurrently.
        """
        dim = encoder.config.dim
        results: List[Optional[np.ndarray]] = [None] * len(token_lists)
        pending: List[Tuple[int, TokenArray]] = []
        for i, tokens in enumerate(token_lists):
            ta = TokenArray.coerce(tokens)
            if len(ta):
                pending.append((i, ta))
            else:
                results[i] = np.zeros((0, dim), dtype=np.float64)
        if not pending:
            return results
        shards = self._plan_shards(pending)
        if len(shards) == 1:
            replica, shard = shards[0]
            await self._encode_shard(encoder, replica, shard, batch_size, results, dim)
            return results
        outcomes = await asyncio.gather(
            *(
                self._encode_shard(encoder, replica, shard, batch_size, results, dim)
                for replica, shard in shards
            ),
            return_exceptions=True,
        )
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome
        return results

    async def _encode_shard(
        self,
        encoder,
        replica: _Replica,
        shard: List[Tuple[int, TokenArray]],
        batch_size: int,
        results: List[Optional[np.ndarray]],
        dim: int,
    ) -> None:
        """Ship one shard (preferring ``replica``) and scatter its states."""
        wires = [ta.to_wire() for _, ta in shard]
        digests = [str(w["digest"]) for w in wires]
        body = json.dumps(
            {
                "protocol": PROTOCOL_VERSION,
                "model": encoder.config.to_jsonable(),
                "mode": "exact" if self.exact_mode else "padded",
                "padding_tier": self.padding_tier,
                "batch_size": batch_size,
                "state_dtype": self.config.state_dtype,
                "sequences": [wire_to_jsonable(w) for w in wires],
            }
        ).encode("utf-8")
        if self.config.compression == "gzip":
            body = gzip.compress(body, compresslevel=6)
        response = await self._send_shard(body, len(shard), replica)
        lengths = [len(ta) for _, ta in shard]
        states = _reassemble_states(
            response, digests, lengths, dim, self.config.state_dtype
        )
        for (i, _), state in zip(shard, states):
            results[i] = state

    # -- routing -------------------------------------------------------

    def _pick_replica(self, exclude: Sequence[_Replica] = ()) -> _Replica:
        """The replica routing favors right now.

        Deterministic greedy choice: unexplored replicas (no latency
        sample yet) first, then the lowest in-flight-adjusted per-sequence
        EWMA.  Quarantined replicas are skipped unless *everything* is
        quarantined, in which case the one due back soonest is probed —
        chunks must go somewhere.
        """
        now = time.monotonic()
        candidates = [r for r in self._replicas if r not in exclude]
        if not candidates:
            candidates = list(self._replicas)
        healthy = [r for r in candidates if r.available(now)]
        if not healthy:
            return min(candidates, key=lambda r: (r.quarantined_until, r.index))

        def score(replica: _Replica):
            with replica.lock:
                ewma, in_flight = replica.per_seq_ewma, replica.in_flight
            if ewma is None:
                return (0, in_flight, replica.index)
            return (1, ewma * (1 + in_flight), replica.index)

        return min(healthy, key=score)

    def _plan_shards(
        self, pending: List[Tuple[int, TokenArray]]
    ) -> List[Tuple[_Replica, List[Tuple[int, TokenArray]]]]:
        """Split a chunk into per-replica shards weighted by speed.

        Fast replicas take proportionally more sequences (weight =
        1 / per-sequence EWMA; unmeasured replicas borrow the fastest
        known weight so they get explored).  Shards never shrink below
        :data:`MIN_SHARD_SEQUENCES`, and a single replica — or a chunk
        too small to split — degrades to the single-request path.
        """
        n = len(pending)
        now = time.monotonic()
        healthy = [r for r in self._replicas if r.available(now)]
        if not healthy:
            healthy = [self._pick_replica()]
        max_shards = min(len(healthy), max(1, n // MIN_SHARD_SEQUENCES))
        if max_shards <= 1:
            return [(self._pick_replica(), pending)]
        ewmas = []
        for replica in healthy:
            with replica.lock:
                ewmas.append(replica.per_seq_ewma)
        known = [e for e in ewmas if e]
        fastest = min(known) if known else 1.0
        weights = [1.0 / (e if e else fastest) for e in ewmas]
        ranked = sorted(range(len(healthy)), key=lambda i: (-weights[i], i))
        chosen = ranked[:max_shards]
        sizes = _proportional_sizes(
            n, [weights[i] for i in chosen], MIN_SHARD_SEQUENCES
        )
        shards: List[Tuple[_Replica, List[Tuple[int, TokenArray]]]] = []
        start = 0
        for rank, size in zip(chosen, sizes):
            if size <= 0:
                continue
            shards.append((healthy[rank], pending[start : start + size]))
            start += size
        return shards

    # -- transport -----------------------------------------------------

    async def _send_shard(
        self, body: bytes, n_sequences: int, preferred: _Replica
    ) -> Dict[str, object]:
        """One shard's request with retry, rerouting, and hedging."""
        last_error: Optional[Exception] = None
        failed: Optional[_Replica] = None
        for attempt in range(self.retries + 1):
            if attempt:
                if self._deadline is not None and self._deadline.expired():
                    # The sweep's budget outranks the retry budget: stop
                    # re-attempting and surface the typed deadline error.
                    raise DeadlineExceededError(
                        "fault-policy deadline exceeded after "
                        f"{attempt} remote attempt(s); last error: {last_error}"
                    ) from last_error
                with self._stats_lock:
                    self.stats.retries += 1
                delay = min(
                    self.backoff_cap, self.backoff_base * (2 ** (attempt - 1))
                )
                # Full jitter in [0.5, 1.5) x delay decorrelates clients
                # hammering a recovering service in lockstep.
                delay *= 0.5 + self._rng.random()
                if self._deadline is not None:
                    delay = self._deadline.bound(delay)
                await asyncio.sleep(delay)
            if attempt == 0:
                replica = preferred
            else:
                # Reroute the retry away from the replica that just
                # failed when an alternative exists.
                replica = self._pick_replica(
                    exclude=(failed,) if failed is not None else ()
                )
            try:
                decoded, rtt, winner = await self._hedged_attempt(replica, body)
            except _TransientError as error:
                last_error = error
                failed = replica
                continue
            self._record_chunk(winner, rtt, n_sequences)
            return decoded
        raise RemoteEncodeError(
            f"remote encode failed after {self.retries + 1} attempt(s) "
            f"across {len(self._replicas)} replica(s): {last_error}"
        ) from last_error

    async def _hedged_attempt(
        self, primary: _Replica, body: bytes
    ) -> Tuple[Dict[str, object], float, _Replica]:
        """One attempt, speculatively duplicated when the primary lags.

        The hedge fires after the configured latency percentile of
        observed round trips; the first task to return an HTTP-200,
        JSON-decodable response wins and the loser is cancelled, so
        exactly one response is ever consumed and hedge results cannot
        be double-counted.  Payload *integrity* (digest echo, state
        shape) is verified only later, on the winner, in
        ``_reassemble_states`` — a decodable-but-corrupt winner fails
        the chunk even if the cancelled loser held a valid payload, and
        a fatal error on the losing attempt is not surfaced when the
        other attempt succeeds.
        """
        delay = self._hedge_delay()
        primary_task = asyncio.ensure_future(self._attempt_on(primary, body))
        if delay is None:
            decoded, rtt = await primary_task
            return decoded, rtt, primary
        done, _ = await asyncio.wait({primary_task}, timeout=delay)
        if primary_task in done:
            decoded, rtt = primary_task.result()
            return decoded, rtt, primary
        alternate = self._pick_replica(exclude=(primary,))
        if alternate is primary:
            decoded, rtt = await primary_task
            return decoded, rtt, primary
        with self._stats_lock:
            self.stats.hedges += 1
        hedge_task = asyncio.ensure_future(self._attempt_on(alternate, body))
        owners = {primary_task: primary, hedge_task: alternate}
        winner, cancelled = await _race(list(owners))
        with self._stats_lock:
            self.stats.hedges_cancelled += cancelled
            if winner is hedge_task:
                self.stats.hedges_won += 1
                self._replica_stats_locked(alternate).hedges_won += 1
        decoded, rtt = winner.result()
        return decoded, rtt, owners[winner]

    async def _attempt_on(
        self, replica: _Replica, body: bytes
    ) -> Tuple[Dict[str, object], float]:
        """One HTTP round trip against one replica, over its pool.

        Raises :class:`_TransientError` for faults the retry loop may
        re-attempt, plain :class:`RemoteEncodeError` for fatal ones.
        Cancellation (a lost hedge race) tears the in-flight connection
        down — a half-read socket must never return to the pool.
        """
        with self._stats_lock:
            self.stats.requests += 1
            self._replica_stats_locked(replica).requests += 1
        with replica.lock:
            replica.in_flight += 1
        conn: Optional[_Connection] = None
        attempt_timeout = self._request_timeout()
        try:
            try:
                conn, reused = await replica.acquire(attempt_timeout)
            except OSError as error:
                # Refused/unroutable before a single byte moved.
                self._note_failure(replica)
                raise _TransientError(f"{replica.url}: {error}") from error
            with self._stats_lock:
                if reused:
                    self.stats.connections_reused += 1
                else:
                    self.stats.connections_opened += 1
            started = time.perf_counter()
            try:
                status, payload, sent, received, keep_alive = await asyncio.wait_for(
                    self._roundtrip(replica, conn, body), timeout=attempt_timeout
                )
            except asyncio.TimeoutError:
                self._note_failure(replica, timeout=True)
                raise _TransientError(
                    f"request deadline ({attempt_timeout:g}s) exceeded at {replica.url}"
                ) from None
            except (OSError, EOFError, ValueError) as error:
                # Connection refused/reset, stale keep-alive EOF, torn
                # reads, unparsable framing — all transient faults.
                self._note_failure(replica)
                raise _TransientError(f"{replica.url}: {error}") from error
            rtt = time.perf_counter() - started
            with self._stats_lock:
                self.stats.bytes_sent += sent
                self.stats.bytes_received += received
            if status >= 500:
                self._note_failure(replica, http_error=True)
                self._finish_conn(replica, conn, keep_alive)
                conn = None
                raise _TransientError(
                    f"{replica.url} answered HTTP {status}: {payload[:200]!r}"
                )
            if status != 200:
                self._finish_conn(replica, conn, keep_alive)
                conn = None
                raise RemoteEncodeError(
                    f"service rejected request (HTTP {status}): {payload[:500]!r}"
                )
            try:
                decoded = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as error:
                self._note_failure(replica)
                raise _TransientError(f"torn response body: {error}") from error
            replica.note_ok()
            self._finish_conn(replica, conn, keep_alive)
            conn = None
            return decoded, rtt
        finally:
            if conn is not None:
                replica.discard(conn)
            with replica.lock:
                replica.in_flight -= 1

    async def _roundtrip(
        self, replica: _Replica, conn: _Connection, body: bytes
    ) -> Tuple[int, bytes, int, int, bool]:
        """Write one request, read one response, on a pooled connection.

        Returns ``(status, payload, wire_bytes_sent, wire_bytes_received,
        keep_alive)``.  The request is HTTP/1.1 with keep-alive; both
        Content-Length-delimited and chunked transfer-encoded responses
        are decoded (EOF-delimited bodies work too but mark the
        connection non-reusable).  Gzip response bodies are transparently
        decompressed; byte counts are *wire* bytes in both directions —
        headers, chunk framing, and (compressed) bodies.
        """
        lines = [
            f"POST {replica.path} HTTP/1.1",
            f"Host: {replica.host}:{replica.port}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: keep-alive",
        ]
        if self.config.compression == "gzip":
            lines.append("Content-Encoding: gzip")
            lines.append("Accept-Encoding: gzip")
        else:
            lines.append("Accept-Encoding: identity")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
        conn.writer.write(head + body)
        await conn.writer.drain()
        reader = conn.reader
        status_line = await reader.readline()
        if not status_line:
            raise EOFError("connection closed before status line")
        wire_in = len(status_line)
        parts = status_line.split(None, 2)
        if len(parts) < 2:
            raise ValueError(f"malformed HTTP status line {status_line!r}")
        version = parts[0].decode("latin-1", "replace").upper()
        status = int(parts[1])
        content_length: Optional[int] = None
        chunked = False
        content_encoding = ""
        connection_header = ""
        while True:
            line = await reader.readline()
            wire_in += len(line)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            value = value.strip()
            if name == "content-length":
                content_length = int(value)
            elif name == "transfer-encoding" and "chunked" in value.lower():
                chunked = True
            elif name == "content-encoding":
                content_encoding = value.lower()
            elif name == "connection":
                connection_header = value.lower()
        if chunked:
            raw, body_wire = await _read_chunked(reader)
        elif content_length is not None:
            # readexactly raises IncompleteReadError (EOFError) when the
            # body is torn short of the advertised length.
            raw = await reader.readexactly(content_length)
            body_wire = len(raw)
        else:
            raw = await reader.read()
            body_wire = len(raw)
        wire_in += body_wire
        framed = chunked or content_length is not None
        keep_alive = (
            framed
            and "close" not in connection_header
            and (version.endswith("/1.1") or "keep-alive" in connection_header)
        )
        if content_encoding == "gzip":
            try:
                payload = gzip.decompress(raw)
            except Exception as error:
                raise ValueError(f"undecodable gzip response body: {error}") from error
        else:
            payload = raw
        return status, payload, len(head) + len(body), wire_in, keep_alive

    # -- accounting ----------------------------------------------------

    def _replica_stats_locked(self, replica: _Replica) -> ReplicaStats:
        """Per-replica counters; caller holds ``_stats_lock``."""
        return self.stats.replicas.setdefault(replica.url, ReplicaStats())

    def _finish_conn(
        self, replica: _Replica, conn: _Connection, keep_alive: bool
    ) -> None:
        if keep_alive:
            replica.release(conn)
        else:
            replica.discard(conn)

    def _note_failure(
        self, replica: _Replica, *, timeout: bool = False, http_error: bool = False
    ) -> None:
        tripped = replica.note_failure(self.quarantine_after, self.quarantine_seconds)
        with self._stats_lock:
            if timeout:
                self.stats.timeouts += 1
            if http_error:
                self.stats.http_errors += 1
            rs = self._replica_stats_locked(replica)
            rs.errors += 1
            if tripped:
                self.stats.quarantines += 1
                rs.quarantines += 1

    def _record_chunk(self, replica: _Replica, rtt: float, n_sequences: int) -> None:
        """Fold one *consumed* round trip into stats and latency models."""
        with self._stats_lock:
            self.stats.chunks += 1
            self.stats.sequences += n_sequences
            self.stats.round_trip_seconds += rtt
            rs = self._replica_stats_locked(replica)
            rs.chunks += 1
            rs.round_trip_seconds += rtt
            self._rtt_samples.append(rtt)
        replica.note_rtt(rtt, n_sequences)

    def _hedge_delay(self) -> Optional[float]:
        """Seconds before a hedge fires, or ``None`` when hedging is off.

        The delay is the configured percentile of the recent consumed
        round trips, floored so sub-millisecond loopback links do not
        hedge every request.  Hedging needs at least two replicas and
        :data:`MIN_HEDGE_SAMPLES` measurements to engage.
        """
        if self.config.hedge_after is None or len(self._replicas) < 2:
            return None
        with self._stats_lock:
            samples = sorted(self._rtt_samples)
        if len(samples) < MIN_HEDGE_SAMPLES:
            return None
        k = min(len(samples) - 1, int(self.config.hedge_after * len(samples)))
        return max(HEDGE_DELAY_FLOOR, samples[k])


async def _race(tasks: List["asyncio.Task"]) -> Tuple["asyncio.Task", int]:
    """First task to *succeed* wins; losers are cancelled and reaped.

    Returns ``(winner, n_cancelled)``.  When every task fails, the first
    failure is re-raised (hedging must not mask the primary's error
    class).  Losers are awaited after cancellation so their cleanup —
    tearing down half-read connections — finishes before the caller
    proceeds.
    """
    pending = set(tasks)
    winner: Optional[asyncio.Task] = None
    first_error: Optional[BaseException] = None
    while pending and winner is None:
        done, pending = await asyncio.wait(
            pending, return_when=asyncio.FIRST_COMPLETED
        )
        for task in done:
            if task.cancelled():
                continue
            if task.exception() is None:
                winner = task
                break
            if first_error is None:
                first_error = task.exception()
    if winner is None:
        assert first_error is not None
        raise first_error
    cancelled = 0
    losers = [t for t in tasks if t is not winner]
    for loser in losers:
        if not loser.done():
            loser.cancel()
            cancelled += 1
    if losers:
        await asyncio.gather(*losers, return_exceptions=True)
    return winner, cancelled


async def _read_chunked(reader: "asyncio.StreamReader") -> Tuple[bytes, int]:
    """Decode a chunked transfer-encoded body (trailers discarded).

    Returns ``(body, wire_bytes)`` where ``wire_bytes`` includes the
    chunk-size lines, chunk terminators, and trailers — the bytes the
    body actually occupied on the wire.
    """
    parts: List[bytes] = []
    wire = 0
    while True:
        size_line = await reader.readline()
        if not size_line:
            raise EOFError("connection closed inside chunked body")
        wire += len(size_line)
        try:
            size = int(size_line.split(b";", 1)[0].strip(), 16)
        except ValueError:
            raise ValueError(f"malformed chunk size line {size_line!r}") from None
        if size == 0:
            while True:  # trailers, then the final blank line
                line = await reader.readline()
                wire += len(line)
                if line in (b"\r\n", b"\n", b""):
                    break
            return b"".join(parts), wire
        parts.append(await reader.readexactly(size))
        await reader.readexactly(2)  # chunk-terminating CRLF
        wire += size + 2


def _proportional_sizes(n: int, weights: List[float], min_size: int) -> List[int]:
    """Split ``n`` items proportionally to ``weights`` with a floor.

    The caller guarantees ``len(weights) * min_size <= n``, so drift from
    rounding can always be settled against shares above the floor.
    """
    total = sum(weights) or float(len(weights))
    sizes = [max(min_size, int(round(n * w / total))) for w in weights]
    drift = n - sum(sizes)
    order = sorted(range(len(sizes)), key=lambda j: -sizes[j])
    i = 0
    while drift != 0:
        j = order[i % len(order)]
        step = 1 if drift > 0 else -1
        if sizes[j] + step >= min_size:
            sizes[j] += step
            drift -= step
        i += 1
    return sizes


def _reassemble_states(
    response: Dict[str, object],
    digests: List[str],
    lengths: List[int],
    dim: int,
    state_dtype: str = "float64",
) -> List[np.ndarray]:
    """Decode and order response states by their echoed input digests.

    Matching by digest makes response order irrelevant (duplicate inputs
    have identical digests *and* identical states, so any assignment among
    them is correct).  Integrity failures raise :class:`RemoteEncodeError`
    immediately — they are never retried (see module docstring).
    """
    entries = response.get("states")
    if not isinstance(entries, list) or len(entries) != len(digests):
        got = len(entries) if isinstance(entries, list) else type(entries).__name__
        raise RemoteEncodeError(
            f"response covers {got} state(s) for {len(digests)} sequence(s)"
        )
    by_digest: Dict[str, List[Dict[str, object]]] = {}
    for entry in entries:
        if not isinstance(entry, dict) or "digest" not in entry:
            raise RemoteEncodeError("response state entry carries no digest echo")
        by_digest.setdefault(str(entry["digest"]), []).append(entry)
    states: List[np.ndarray] = []
    for digest, length in zip(digests, lengths):
        bucket = by_digest.get(digest)
        if not bucket:
            raise RemoteEncodeError(
                f"response does not cover requested sequence {digest[:12]}…"
            )
        states.append(_decode_state(bucket.pop(), length, dim, state_dtype))
    return states


def _decode_state(
    entry: Dict[str, object], length: int, dim: int, state_dtype: str
) -> np.ndarray:
    try:
        raw = base64.b64decode(str(entry["data"]).encode("ascii"), validate=True)
    except Exception as error:
        raise RemoteEncodeError(f"undecodable state payload: {error}") from error
    expected = entry.get("data_digest")
    if expected is None:
        raise RemoteEncodeError("response state carries no data digest")
    if hashlib.sha256(raw).hexdigest() != expected:
        raise RemoteEncodeError(
            "response state failed its digest check (tampered or torn payload)"
        )
    dtype = str(entry.get("dtype", "float64"))
    if dtype != state_dtype:
        raise RemoteEncodeError(
            f"response state dtype {dtype!r} does not match the requested "
            f"{state_dtype!r} tier (service too old for float32?)"
        )
    shape = entry.get("shape")
    if shape != [length, dim]:
        raise RemoteEncodeError(
            f"response state shape {shape} does not match expected [{length}, {dim}]"
        )
    itemsize = 4 if state_dtype == "float32" else 8
    if len(raw) != length * dim * itemsize:
        raise RemoteEncodeError(
            f"response state carries {len(raw)} bytes for shape "
            f"[{length}, {dim}] {state_dtype}"
        )
    wire_dtype = "<f4" if state_dtype == "float32" else "<f8"
    return (
        np.frombuffer(raw, dtype=wire_dtype).astype(np.float64, copy=True)
        .reshape(length, dim)
    )
