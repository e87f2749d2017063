"""Remote encoding over HTTP: a fleet client for the TokenArray wire format.

:class:`RemoteBackend` is the network side of the encoder-backend seam:
instead of running forward passes in-process, it ships serialized
sequences — the JSON form of :meth:`TokenArray.to_wire` payloads, piece
strings plus base64 provenance arrays — to one or more encoding replicas
and decodes the returned hidden states.  The shape follows "BERT Meets
Relational DB" (arXiv:2104.14914): the client serializes and aggregates
(pure Python, cheap) while GPU hosts run the contextual encoder (the
expensive part), and Observatory's 8-properties × many-models sweep
matrix is exactly the workload that wants that split.

Everything about the transport is configured through one typed object,
:class:`~repro.models.backends.transport.TransportConfig`:

- **Replicas** (``urls``): each URL is an independent encoding service.
  Each encode chunk goes whole, in one request, to the replica routing
  favors: unexplored replicas first, then the lowest per-sequence
  round-trip EWMA.  The client tracks per-replica health (consecutive
  failures) and **quarantines** a replica after repeated transport
  failures — probing it again once the quarantine lapses, so a recovered
  host rejoins the rotation without operator action.
- **Keep-alive**: requests ride HTTP/1.1 keep-alive connections
  (stdlib :mod:`http.client`, the idiom
  :class:`~repro.service.client.ServiceClient` uses).  Each replica
  keeps one lock-guarded list of idle connections shared by every
  thread and call; a connection returns to it only after a keep-alive
  response was read in full, so the list never holds more sockets than
  there were concurrent requests.  Idle sockets close on
  :meth:`RemoteBackend.close` or when the backend is collected.  A
  replica may close an idle socket at any time: a reused connection
  that fails before its status line arrives is replaced once by a fresh
  one, which is neither a retry nor a replica error.
- **Compression** (``compression="gzip"``): request and response bodies
  are gzip-encoded end to end (the response side is negotiated via
  ``Accept-Encoding``, so it is strictly opt-in).  Base64 float64 states
  inflate raw bytes by ~33%; gzip claws that back and more.
- **State tier** (``state_dtype="float32"``): hidden states ride the
  wire as little-endian float32, halving state bytes within the
  documented :data:`FLOAT32_TOLERANCE`.  The tree's one tolerance tier:
  setting it alone makes the backend non-exact.

Protocol (one ``POST {url}/encode`` per chunk)::

    request:  {"protocol": 2,
               "model": ModelConfig.to_jsonable(),
               "batch_size": int,
               "state_dtype": "float64" | "float32",
               "sequences": [wire_to_jsonable(ta.to_wire()), ...]}
    response: {"states": [{"digest": <echo of the input sequence digest>,
                           "shape": [L, D],
                           "dtype": "float64" | "float32",
                           "data": base64(little-endian state bytes),
                           "data_digest": sha256(raw bytes)}, ...]}

Failure semantics, by class:

- **Transient transport faults** — connection errors, request deadlines,
  HTTP 5xx, torn/undecodable bodies — are retried up to ``retries``
  times with exponential backoff and jitter, rerouting away from the
  replica that just failed when an alternative exists.  ``timeout``
  bounds a whole attempt: the socket timeout is re-armed with what is
  left of it before connect, send, the status line and each body read,
  so a replica that drips its body cannot stretch an attempt.
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
(rebuilt from the shipped :class:`ModelConfig`) with exact same-length
batching, so float64 results are **bit-identical** to
:class:`LocalBackend` and the float32 tier stays within
:data:`FLOAT32_TOLERANCE` — the loopback double
(:mod:`repro.testing.encoder_service`) locks both in.  Requests name no
batching mode.  Older clients send ``"mode": "exact"``, which a service
still accepts; it refuses any other mode with a 400.

All transport accounting lands in a :class:`TransportStats` — including
a per-replica breakdown — that the sweep report surfaces.
"""

from __future__ import annotations

import base64
import dataclasses
import gzip
import hashlib
import http.client
import json
import os
import random
import socket
import threading
import time
import weakref
import zlib
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

import numpy as np

from repro.errors import DeadlineExceededError, ModelError, RemoteEncodeError
from repro.models.backends.base import EncoderBackend
from repro.models.backends.transport import TransportConfig
from repro.models.token_array import TokenArray, wire_to_jsonable
from repro.telemetry import Counters

#: Environment fallback for the replica URLs when no TransportConfig is
#: given; comma-separated values configure a fleet.
REMOTE_URL_ENV = "REPRO_REMOTE_URL"

#: Wire protocol version.  2 added ``state_dtype`` (and the ``dtype``
#: echo on response states); services refuse any other version.
PROTOCOL_VERSION = 2

#: Per-element relative tolerance of the float32 state tier: float64
#: states rounded to float32 on the wire carry at most ~6e-8 relative
#: rounding error per element; 1e-6 leaves margin for accumulation in
#: downstream pooling.  Checked with :func:`max_relative_error`.
FLOAT32_TOLERANCE = 1e-6


def max_relative_error(actual: np.ndarray, expected: np.ndarray) -> float:
    """Per-element error of ``actual`` relative to ``expected``'s magnitude.

    The float32 tier's contract is
    ``max_relative_error(float32_states, exact_states) <= FLOAT32_TOLERANCE``.
    Magnitude is the max absolute value of the exact output (floored at
    1.0), so the bound is meaningful for both normalized and anisotropic
    output scales.
    """
    if actual.size == 0:
        return 0.0
    scale = max(1.0, float(np.abs(expected).max()))
    return float(np.abs(actual - expected).max()) / scale


#: First backoff delay; doubles per retry up to the cap, ±50% jitter.
DEFAULT_BACKOFF = 0.05
BACKOFF_CAP = 2.0

#: Transport failures in a row before a replica is quarantined, and how
#: long the quarantine lasts before the replica is probed again.
QUARANTINE_AFTER = 3
QUARANTINE_SECONDS = 5.0

#: Most bytes one body read asks the socket for.
READ_SIZE = 1 << 16


def env_urls() -> Tuple[str, ...]:
    """Replica URLs from ``$REPRO_REMOTE_URL`` (empty when unset)."""
    env = os.environ.get(REMOTE_URL_ENV, "")
    return tuple(u.strip() for u in env.split(",") if u.strip())


class _TransientError(RemoteEncodeError):
    """Internal marker: a fault the retry loop may re-attempt."""


class _StaleConnection(Exception):
    """Internal marker: a reused idle connection the replica had closed."""


@dataclasses.dataclass
class ReplicaStats(Counters):
    """Per-replica transport accounting (keyed by URL on the parent).

    ``requests`` counts attempts routed to the replica (including retried
    ones); ``chunks`` only the round trips whose response was consumed.
    """

    derived = ("mean_round_trip",)

    requests: int = 0
    chunks: int = 0
    errors: int = 0
    quarantines: int = 0
    round_trip_seconds: float = 0.0

    @property
    def mean_round_trip(self) -> float:
        return self.round_trip_seconds / self.chunks if self.chunks else 0.0


@dataclasses.dataclass
class TransportStats(Counters):
    """Cumulative remote-transport accounting (thread-safe via the backend).

    ``requests`` counts every attempt (including retried ones); ``chunks``
    only the round trips whose response was consumed.
    ``round_trip_seconds`` sums consumed round trips, so
    ``mean_round_trip`` is the per-chunk latency the report shows.
    ``bytes_sent``/``bytes_received`` count request and response
    **bodies** as they cross the wire (after compression; headers are
    excluded because :mod:`http.client` does not expose them), for every
    attempt whose response was read in full — a 5xx's bytes count here
    even though its response never reaches the results.
    ``connections_opened``/``connections_reused`` count the keep-alive
    connections attempts opened or took from a replica's idle list.
    ``replicas`` breaks routing down per replica URL.
    """

    derived = ("mean_round_trip",)

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
    quarantines: int = 0
    replicas: Dict[str, ReplicaStats] = dataclasses.field(default_factory=dict)

    @property
    def mean_round_trip(self) -> float:
        """Mean seconds per consumed chunk round trip."""
        return self.round_trip_seconds / self.chunks if self.chunks else 0.0


class _Replica:
    """One encoding replica: address, idle connections, health, latency.

    ``idle`` holds keep-alive connections whose last response was read
    in full; any thread may take one (:meth:`take_idle`), so it never
    holds more sockets than there were concurrent requests.
    """

    def __init__(self, url: str, index: int):
        split = urlsplit(url)
        self.url = url
        self.index = index
        self.host = split.hostname
        self.port = split.port or 80
        self.path = (split.path.rstrip("/") or "") + "/encode"
        self.lock = threading.Lock()
        self.idle: List[http.client.HTTPConnection] = []
        # Health / latency model (guarded by ``lock``).
        self.in_flight = 0
        self.consecutive_failures = 0
        self.quarantined_until = 0.0  # time.monotonic deadline; 0 = healthy
        self.per_seq_ewma: Optional[float] = None

    # -- keep-alive connections ---------------------------------------

    def take_idle(self) -> Optional[http.client.HTTPConnection]:
        """The most recently used idle connection, or ``None``."""
        with self.lock:
            return self.idle.pop() if self.idle else None

    def put_idle(self, conn: http.client.HTTPConnection) -> None:
        with self.lock:
            self.idle.append(conn)

    def close_idle(self) -> None:
        with self.lock:
            idle, self.idle = self.idle, []
        for conn in idle:
            conn.close()

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

    def note_failure(self, quarantine_seconds: float) -> bool:
        """Record a transport failure; True when it tripped a quarantine."""
        with self.lock:
            self.consecutive_failures += 1
            now = time.monotonic()
            if (
                self.consecutive_failures >= QUARANTINE_AFTER
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


class RemoteBackend(EncoderBackend):
    """Ship token sequences to a fleet of HTTP encoding replicas.

    All transport behavior lives on a
    :class:`~repro.models.backends.transport.TransportConfig`.

    Args:
        config: the fleet's :class:`TransportConfig`; ``None`` reads the
            replica URLs from the ``REPRO_REMOTE_URL`` environment
            variable (comma-separated URLs configure a fleet) and keeps
            every other transport default.  Its ``state_dtype`` decides
            exactness: ``"float64"`` is bit-identical to local,
            ``"float32"`` is within :data:`FLOAT32_TOLERANCE`.
        backoff_base: first retry's backoff delay (tests shrink it).
        quarantine_seconds: how long a replica stays quarantined after
            :data:`QUARANTINE_AFTER` failures in a row (tests shrink it).
        rng: jitter source (tests inject a seeded one).
    """

    name = "remote"
    counters_kind = "transport"

    def __init__(
        self,
        config: Optional[TransportConfig] = None,
        *,
        backoff_base: float = DEFAULT_BACKOFF,
        quarantine_seconds: float = QUARANTINE_SECONDS,
        rng: Optional[random.Random] = None,
    ):
        if config is None:
            urls = env_urls()
            if not urls:
                raise ModelError(
                    "remote backend needs a service URL: pass a "
                    "TransportConfig, use RuntimeConfig(transport=...), or "
                    f"set ${REMOTE_URL_ENV}"
                )
            try:
                config = TransportConfig(urls=urls)
            except ValueError as error:
                raise ModelError(str(error)) from None
        elif not isinstance(config, TransportConfig):
            raise ModelError(
                f"config must be a TransportConfig, got {type(config).__name__}"
            )
        self.config = config
        #: The service batches exactly, so float64 states are bit-identical
        #: end to end; the float32 tier is the one tolerance.
        self.exact = config.state_dtype == "float64"
        self.tolerance = None if self.exact else FLOAT32_TOLERANCE
        self.backoff_base = backoff_base
        self.quarantine_seconds = quarantine_seconds
        self._rng = rng or random.Random()
        self._deadline = None  # optional live sweep budget; see set_deadline
        self.stats = TransportStats()
        self._stats_lock = threading.Lock()
        self._replicas = [_Replica(u, i) for i, u in enumerate(config.urls)]
        # Idle sockets must not outlive a backend nobody closed.
        weakref.finalize(self, _close_idle, self._replicas)

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
            return self.config.timeout
        return max(0.001, self._deadline.bound(self.config.timeout))

    @property
    def cache_namespace(self) -> str:
        """Remote results always live in their own cache key space.

        Float64 responses are bit-identical to local by contract, but
        the producer is a network service outside this process's trust
        boundary, so isolating it keeps a misbehaving service from
        poisoning the local/exact namespace through a shared or
        persistent cache.  The float32 tier gets its own suffix so
        tolerance-tier states never cross into an exact run.
        """
        return "remote" if self.exact else "remote+f32"

    def describe(self) -> str:
        mode = "exact" if self.exact else f"tol={self.tolerance:g}"
        detail = self.config.describe()
        target = self.config.urls[0] if len(self.config.urls) == 1 else "fleet"
        return f"{self.name} ({mode}, {detail}, {target})"

    def stats_snapshot(self) -> TransportStats:
        """Consistent copy of the cumulative transport counters."""
        with self._stats_lock:
            return self.stats.copy()

    def close(self) -> None:
        """Close every idle keep-alive connection (the backend stays usable)."""
        _close_idle(self._replicas)

    # -- encoding ------------------------------------------------------

    def encode_batch(
        self, encoder, token_lists: Sequence[TokenArray], batch_size: int = 8
    ) -> List[np.ndarray]:
        """Encode one chunk on one replica; results in input order.

        Empty sequences are answered locally (their embedding is the
        empty ``[0, dim]`` array by definition — no forward pass exists
        to farm out); everything else ships whole, in one request, to the
        replica :meth:`_pick_replica` favors.
        """
        dim = encoder.config.dim
        results: List[Optional[np.ndarray]] = [None] * len(token_lists)
        pending: List[Tuple[int, TokenArray]] = []
        for i, ta in enumerate(token_lists):
            if len(ta):
                pending.append((i, ta))
            else:
                results[i] = np.zeros((0, dim), dtype=np.float64)
        if not pending:
            return results
        wires = [ta.to_wire() for _, ta in pending]
        digests = [str(w["digest"]) for w in wires]
        body = json.dumps(
            {
                "protocol": PROTOCOL_VERSION,
                "model": encoder.config.to_jsonable(),
                "batch_size": batch_size,
                "state_dtype": self.config.state_dtype,
                "sequences": [wire_to_jsonable(w) for w in wires],
            }
        ).encode("utf-8")
        if self.config.compression == "gzip":
            body = gzip.compress(body, compresslevel=6)
        response = self._send_chunk(body, len(pending))
        lengths = [len(ta) for _, ta in pending]
        states = _reassemble_states(
            response, digests, lengths, dim, self.config.state_dtype
        )
        for (i, _), state in zip(pending, states):
            results[i] = state
        return results

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

    # -- transport -----------------------------------------------------

    def _send_chunk(self, body: bytes, n_sequences: int) -> Dict[str, object]:
        """One chunk's request with retry and rerouting."""
        last_error: Optional[Exception] = None
        failed: Optional[_Replica] = None
        retries = self.config.retries
        for attempt in range(retries + 1):
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
                delay = min(BACKOFF_CAP, self.backoff_base * (2 ** (attempt - 1)))
                # Full jitter in [0.5, 1.5) x delay decorrelates clients
                # hammering a recovering service in lockstep.
                delay *= 0.5 + self._rng.random()
                if self._deadline is not None:
                    delay = self._deadline.bound(delay)
                time.sleep(delay)
            # A retry reroutes away from the replica that just failed when
            # an alternative exists.
            replica = self._pick_replica(
                exclude=(failed,) if failed is not None else ()
            )
            try:
                decoded, rtt = self._attempt_on(replica, body)
            except _TransientError as error:
                last_error = error
                failed = replica
                continue
            self._record_chunk(replica, rtt, n_sequences)
            return decoded
        raise RemoteEncodeError(
            f"remote encode failed after {retries + 1} attempt(s) "
            f"across {len(self._replicas)} replica(s): {last_error}"
        ) from last_error

    def _attempt_on(
        self, replica: _Replica, body: bytes
    ) -> Tuple[Dict[str, object], float]:
        """One HTTP round trip against one replica.

        Raises :class:`_TransientError` for faults the retry loop may
        re-attempt, plain :class:`RemoteEncodeError` for fatal ones.
        """
        with self._stats_lock:
            self.stats.requests += 1
            self._replica_stats_locked(replica).requests += 1
        with replica.lock:
            replica.in_flight += 1
        attempt_timeout = self._request_timeout()
        deadline = time.monotonic() + attempt_timeout
        try:
            started = time.perf_counter()
            try:
                status, payload = self._round_trip(replica, body, deadline)
            except TimeoutError:
                self._note_failure(replica, timeout=True)
                raise _TransientError(
                    f"request deadline ({attempt_timeout:g}s) exceeded at {replica.url}"
                ) from None
            except (OSError, ValueError, http.client.HTTPException) as error:
                # Refused/reset connections, torn reads, malformed framing
                # or gzip — all transient faults.
                self._note_failure(replica)
                raise _TransientError(f"{replica.url}: {error}") from error
            rtt = time.perf_counter() - started
            if status >= 500:
                self._note_failure(replica, http_error=True)
                raise _TransientError(
                    f"{replica.url} answered HTTP {status}: {payload[:200]!r}"
                )
            if status != 200:
                raise RemoteEncodeError(
                    f"service rejected request (HTTP {status}): {payload[:500]!r}"
                )
            try:
                decoded = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as error:
                self._note_failure(replica)
                raise _TransientError(f"torn response body: {error}") from error
            replica.note_ok()
            return decoded, rtt
        finally:
            with replica.lock:
                replica.in_flight -= 1

    def _round_trip(
        self, replica: _Replica, body: bytes, deadline: float
    ) -> Tuple[int, bytes]:
        """One exchange on the replica's last idle connection or a new one."""
        conn = replica.take_idle()
        if conn is not None:
            try:
                return self._exchange(replica, conn, body, deadline, reused=True)
            except _StaleConnection:
                pass  # closed by the replica while idle: one fresh connection
        conn = http.client.HTTPConnection(
            replica.host, replica.port, timeout=_remaining(deadline)
        )
        conn.connect()
        return self._exchange(replica, conn, body, deadline, reused=False)

    def _exchange(
        self,
        replica: _Replica,
        conn: http.client.HTTPConnection,
        body: bytes,
        deadline: float,
        *,
        reused: bool,
    ) -> Tuple[int, bytes]:
        """Send one request and read its response in full on ``conn``.

        Returns ``(status, payload)`` with gzip bodies decompressed.  The
        connection goes back to the replica's idle list only after a
        keep-alive response was read in full; on any error it is closed.
        Raises :class:`_StaleConnection` when a *reused* connection fails
        before the status line arrives — the replica closed it idle.
        """
        with self._stats_lock:
            if reused:
                self.stats.connections_reused += 1
            else:
                self.stats.connections_opened += 1
        headers = {"Content-Type": "application/json"}
        if self.config.compression == "gzip":
            headers["Content-Encoding"] = "gzip"
            headers["Accept-Encoding"] = "gzip"
        # Our own reference: http.client drops ``conn.sock`` when the
        # response says it will close, but the body still reads from it.
        sock = conn.sock
        response = None
        try:
            try:
                sock.settimeout(_remaining(deadline))
                conn.request("POST", replica.path, body=body, headers=headers)
                sock.settimeout(_remaining(deadline))
                response = conn.getresponse()
            except (ConnectionResetError, BrokenPipeError) as error:
                if reused:  # RemoteDisconnected is a ConnectionResetError
                    raise _StaleConnection() from error
                raise
            raw = _read_body(response, sock, deadline)
        except BaseException:
            if response is not None:
                response.close()
            conn.close()
            raise
        response.close()
        if response.will_close:
            conn.close()
        else:
            replica.put_idle(conn)
        with self._stats_lock:
            self.stats.bytes_sent += len(body)
            self.stats.bytes_received += len(raw)
        if response.getheader("Content-Encoding", "").lower() == "gzip":
            try:
                raw = gzip.decompress(raw)
            except (OSError, EOFError, zlib.error) as error:
                raise ValueError(f"undecodable gzip response body: {error}") from error
        return response.status, raw

    # -- accounting ----------------------------------------------------

    def _replica_stats_locked(self, replica: _Replica) -> ReplicaStats:
        """Per-replica counters; caller holds ``_stats_lock``."""
        return self.stats.replicas.setdefault(replica.url, ReplicaStats())

    def _note_failure(
        self, replica: _Replica, *, timeout: bool = False, http_error: bool = False
    ) -> None:
        tripped = replica.note_failure(self.quarantine_seconds)
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
        replica.note_rtt(rtt, n_sequences)


def _close_idle(replicas: Sequence[_Replica]) -> None:
    for replica in replicas:
        replica.close_idle()


def _remaining(deadline: float) -> float:
    """Seconds left before ``deadline``; a spent budget is a timeout."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("timed out")
    return left


def _read_body(
    response: http.client.HTTPResponse, sock: socket.socket, deadline: float
) -> bytes:
    """The whole response body, one socket read at a time.

    The socket timeout is re-armed with the remaining budget before each
    read, so a body that drips in never outlasts the attempt.  A
    Content-Length body torn short raises ``IncompleteRead``; a torn
    chunked body raises it from :mod:`http.client`.
    """
    parts: List[bytes] = []
    while response.length != 0:  # None: chunked, or delimited by EOF
        sock.settimeout(_remaining(deadline))
        part = response.read1(READ_SIZE)
        if not part:
            break
        parts.append(part)
    if response.length:
        raise http.client.IncompleteRead(b"".join(parts), response.length)
    return b"".join(parts)


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
