"""Remote encoder backend against the loopback service double.

Locks in the transport's four contracts:

1. **Numerics across the wire** — for every model family, loopback-remote
   float64 results are *bit-identical* to the in-process local backend,
   and the float32 tier stays within :data:`FLOAT32_TOLERANCE`.  The
   service rebuilds its encoder, interner, and weights from the shipped
   config, so this is a genuine two-process determinism claim.
2. **Fault tolerance** — injected timeouts, 5xx, and torn payloads are
   retried (with backoff accounted in :class:`TransportStats`) and still
   produce bit-identical results; out-of-order responses are reassembled
   by digest echo; *tampered* payloads are rejected, never retried into
   acceptance.
3. **Wiring** — registry/RuntimeConfig/executor integration: the remote
   backend registers as ``"remote"``, demands a URL at configuration
   time, and isolates its embedding-cache namespace.
4. **Fleet** — each chunk goes whole to the replica latency routing
   favors, and a failing replica is quarantined after a bounded number of
   retries.
5. **Keep-alive** — synchronous calls reuse idle connections, a
   connection the replica closed while idle is replaced without a retry,
   and a body that drips in cannot stretch an attempt past its timeout.

Plus a Hypothesis round trip of the JSON wire encoding (unicode pieces,
empty sequences, single-token arrays).
"""

import asyncio
import json
import pickle
import random
import re
import socket
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import urlsplit

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.framework import DatasetSizes, Observatory
from repro.errors import ModelError, RemoteEncodeError
from repro.models.backends import (
    FLOAT32_TOLERANCE,
    LocalBackend,
    RemoteBackend,
    ReplicaStats,
    TransportConfig,
    TransportStats,
    available_backends,
    max_relative_error,
)
from repro.models.backends.remote import QUARANTINE_AFTER
from repro.models.config import Serialization
from repro.models.registry import load_model
from repro.models.token_array import (
    Token,
    TokenArray,
    TokenRole,
    wire_from_jsonable,
    wire_to_jsonable,
)
from repro.relational.table import Table
from repro.runtime.planner import EmbeddingExecutor, RuntimeConfig
from repro.testing.encoder_service import FleetHarness, LoopbackEncoderService
from tests.conftest import cached_model

WORDS = ("alpha", "bravo", "delta", "echo", "golf", "hotel", "india", "kilo")


@pytest.fixture(scope="module")
def service():
    with LoopbackEncoderService() as svc:
        yield svc


def fast_remote(svc, *, timeout=10.0, retries=2, **kwargs) -> RemoteBackend:
    """A remote backend tuned for tests: tiny backoff, seeded jitter."""
    kwargs.setdefault("backoff_base", 0.01)
    kwargs.setdefault("rng", random.Random(7))
    config = TransportConfig(urls=(svc.url,), timeout=timeout, retries=retries)
    return RemoteBackend(config, **kwargs)


def small_tables(n=4):
    tables = []
    for i in range(n):
        columns = [
            (
                WORDS[(i + c) % len(WORDS)],
                [
                    " ".join(WORDS[(i + c + r + w) % len(WORDS)] for w in range(1 + r % 2))
                    for r in range(2 + i % 3)
                ],
            )
            for c in range(1 + i % 2)
        ]
        tables.append(Table.from_columns(columns, table_id=f"remote-{i}"))
    return tables


def token_lists_for(model, tables):
    """Every family's own serialization — ROW_TEMPLATE flattens per-row."""
    if model.config.serialization == Serialization.ROW_TEMPLATE:
        return [ta for t in tables for ta in model._serializer.serialize(t)]
    return [model._serializer.serialize(model._effective_table(t)) for t in tables]


class TestLoopbackNumerics:
    def test_exact_bit_identical_for_every_model_family(self, service, all_model_names):
        tables = small_tables()
        for name in all_model_names:
            model = cached_model(name)
            if not hasattr(model, "encoder"):
                continue
            token_lists = token_lists_for(model, tables)
            local = LocalBackend().encode_batch(model.encoder, token_lists, 4)
            remote = fast_remote(service).encode_batch(model.encoder, token_lists, 4)
            for local_arr, remote_arr in zip(local, remote):
                assert np.array_equal(local_arr, remote_arr), name

    def test_empty_sequences_answered_locally(self, service):
        model = cached_model("bert")
        token_lists = [TokenArray.empty(), model._serializer.serialize(small_tables(1)[0])]
        states = fast_remote(service).encode_batch(model.encoder, token_lists, 4)
        assert states[0].shape == (0, model.dim)
        assert states[1].shape[0] == len(token_lists[1])

    def test_async_entry_point_matches_sync(self, service):
        model = cached_model("bert")
        token_lists = token_lists_for(model, small_tables())
        backend = fast_remote(service)
        sync = backend.encode_batch(model.encoder, token_lists, 4)
        afresh = asyncio.run(backend.aencode_batch(model.encoder, token_lists, 4))
        backend.close()
        for a, b in zip(sync, afresh):
            assert np.array_equal(a, b)


class TestFaultInjection:
    @pytest.fixture()
    def bert_lists(self):
        model = cached_model("bert")
        return model, token_lists_for(model, small_tables())

    def baseline(self, model, token_lists):
        return LocalBackend().encode_batch(model.encoder, token_lists, 4)

    def test_timeout_mid_batch_retries_to_identical(self, service, bert_lists):
        model, token_lists = bert_lists
        backend = fast_remote(service, timeout=0.3)
        service.inject("timeout", seconds=1.0)
        states = backend.encode_batch(model.encoder, token_lists, 4)
        for a, b in zip(self.baseline(model, token_lists), states):
            assert np.array_equal(a, b)
        stats = backend.stats_snapshot()
        assert stats.timeouts >= 1 and stats.retries >= 1 and stats.chunks == 1

    def test_5xx_then_success_exercises_backoff(self, service, bert_lists):
        model, token_lists = bert_lists
        backend = fast_remote(service)
        service.inject("http_500")
        states = backend.encode_batch(model.encoder, token_lists, 4)
        for a, b in zip(self.baseline(model, token_lists), states):
            assert np.array_equal(a, b)
        stats = backend.stats_snapshot()
        assert stats.http_errors >= 1 and stats.retries >= 1

    def test_torn_payload_retries_to_identical(self, service, bert_lists):
        model, token_lists = bert_lists
        backend = fast_remote(service)
        service.inject("torn")
        states = backend.encode_batch(model.encoder, token_lists, 4)
        for a, b in zip(self.baseline(model, token_lists), states):
            assert np.array_equal(a, b)
        assert backend.stats_snapshot().retries >= 1

    def test_out_of_order_response_reassembled_bit_identical(self, service, bert_lists):
        model, token_lists = bert_lists
        backend = fast_remote(service)
        service.inject("shuffle")
        states = backend.encode_batch(model.encoder, token_lists, 4)
        for a, b in zip(self.baseline(model, token_lists), states):
            assert np.array_equal(a, b)
        # Reassembly is by digest echo, not a retry.
        assert backend.stats_snapshot().retries == 0

    def test_digest_tampered_response_rejected(self, service, bert_lists):
        model, token_lists = bert_lists
        backend = fast_remote(service)
        service.inject("tamper")
        with pytest.raises(RemoteEncodeError, match="digest"):
            backend.encode_batch(model.encoder, token_lists, 4)

    def test_retries_exhausted_raises(self, service, bert_lists):
        model, token_lists = bert_lists
        backend = fast_remote(service, retries=0)
        service.inject("http_500")
        with pytest.raises(RemoteEncodeError, match="after 1 attempt"):
            backend.encode_batch(model.encoder, token_lists, 4)

    def test_unreachable_service_raises_after_retries(self):
        model = cached_model("bert")
        token_lists = token_lists_for(model, small_tables(1))
        backend = RemoteBackend(
            TransportConfig(urls="http://127.0.0.1:9", timeout=0.5, retries=1),
            backoff_base=0.001,
        )
        with pytest.raises(RemoteEncodeError):
            backend.encode_batch(model.encoder, token_lists, 4)
        assert backend.stats_snapshot().requests == 2


unicode_pieces = st.text(max_size=8)  # arbitrary unicode, empty included

token_strategy = st.builds(
    Token,
    piece=unicode_pieces,
    role=st.sampled_from(list(TokenRole)),
    row=st.integers(min_value=-1, max_value=40),
    col=st.integers(min_value=-1, max_value=40),
)


class TestJsonWireRoundTrip:
    @given(tokens=st.lists(token_strategy, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_through_json(self, tokens):
        ta = TokenArray.from_tokens(tokens)
        payload = json.loads(json.dumps(wire_to_jsonable(ta.to_wire())))
        rebuilt = TokenArray.from_wire(wire_from_jsonable(payload))
        assert rebuilt == ta

    @pytest.mark.parametrize(
        "tokens",
        [
            [],  # empty sequence
            [Token("τимур 🎉", TokenRole.VALUE, row=0, col=0)],  # single, unicode
            [Token("", TokenRole.SPECIAL)],  # empty piece string
        ],
    )
    def test_edge_sequences(self, tokens):
        ta = TokenArray.from_tokens(tokens)
        payload = json.loads(json.dumps(wire_to_jsonable(ta.to_wire())))
        assert TokenArray.from_wire(wire_from_jsonable(payload)) == ta

    def test_torn_jsonable_rejected(self):
        ta = TokenArray.from_tokens([Token("a", TokenRole.VALUE, row=0, col=0)])
        payload = wire_to_jsonable(ta.to_wire())
        torn = {**payload, "rows": payload["rows"][:2]}  # not a whole element
        with pytest.raises(ValueError, match="torn|base64"):
            wire_from_jsonable(torn)

    def test_missing_key_rejected(self):
        ta = TokenArray.from_tokens([Token("a", TokenRole.VALUE)])
        payload = wire_to_jsonable(ta.to_wire())
        del payload["digest"]
        with pytest.raises(ValueError, match="missing"):
            wire_from_jsonable(payload)


SIZES = DatasetSizes(
    wikitables_tables=3, sotab_tables=4, n_permutations=4, min_rows=4, max_rows=6
)
SWEEP_PROPS = ["row_order_insignificance", "sample_fidelity"]


class TestSweepThroughRemote:
    def remote_runtime(self, service, **kwargs):
        return RuntimeConfig(
            backend="remote",
            transport=TransportConfig(
                urls=(service.url,),
                timeout=kwargs.pop("remote_timeout", 30.0),
                retries=4,
            ),
            **kwargs,
        )

    def test_remote_sweep_bit_identical_to_local(self, service):
        local = Observatory(seed=0, sizes=SIZES).sweep(["bert"], SWEEP_PROPS)
        remote = Observatory(
            seed=0, sizes=SIZES, runtime=self.remote_runtime(service)
        ).sweep(["bert"], SWEEP_PROPS)
        assert "remote" in remote.backend
        for cell_l, cell_r in zip(local.cells, remote.cells):
            assert cell_l.result.to_dict() == cell_r.result.to_dict()
        assert remote.transport is not None and remote.transport.chunks > 0
        assert remote.transport.sequences > 0

    def test_remote_sweep_identical_under_faults(self, service):
        local = Observatory(seed=0, sizes=SIZES).sweep(["bert"], SWEEP_PROPS)
        service.inject("http_500")
        service.inject("torn")
        service.inject("shuffle")
        remote = Observatory(
            seed=0, sizes=SIZES, runtime=self.remote_runtime(service)
        ).sweep(["bert"], SWEEP_PROPS)
        for cell_l, cell_r in zip(local.cells, remote.cells):
            assert cell_l.result.to_dict() == cell_r.result.to_dict()
        assert remote.transport.retries >= 2  # 500 + torn each cost one

    def test_transport_surfaces_in_rendered_report(self, service):
        from repro.analysis.report import render_sweep

        remote = Observatory(
            seed=0, sizes=SIZES, runtime=self.remote_runtime(service)
        ).sweep(["bert"], ["row_order_insignificance"])
        text = render_sweep(remote)
        assert "Remote transport:" in text
        assert remote.to_dict()["transport"]["chunks"] > 0

    def test_failed_traffic_is_reported(self, service):
        # Both attempts of the only chunk get a 5xx: nothing crosses the
        # wire successfully, the cell degrades, and the report still
        # shows the requests that failed.
        from repro.analysis.report import render_sweep

        service.inject("http_500")
        service.inject("http_500")
        runtime = RuntimeConfig(
            backend="remote",
            transport=TransportConfig(urls=(service.url,), retries=1),
        )
        sweep = Observatory(seed=0, sizes=SIZES, runtime=runtime).sweep(
            ["bert"], ["row_order_insignificance"], on_error="degrade"
        )
        assert not sweep.cells and len(sweep.failures) == 1
        assert sweep.transport.http_errors == 2
        assert sweep.transport.chunks == 0
        assert "Remote transport:" in render_sweep(sweep)


class TestConfigWiring:
    def test_registered_backend(self):
        assert "remote" in available_backends()

    def test_runtime_config_requires_url(self, monkeypatch):
        monkeypatch.delenv("REPRO_REMOTE_URL", raising=False)
        with pytest.raises(ValueError, match="URL"):
            RuntimeConfig(backend="remote")

    def test_env_fallback(self, monkeypatch, service):
        monkeypatch.setenv("REPRO_REMOTE_URL", service.url)
        backend = RuntimeConfig(backend="remote").build_backend()
        assert isinstance(backend, RemoteBackend)
        assert backend.config.urls == (service.url,)

    def test_transport_knob_validation(self, service):
        with pytest.raises(ValueError):
            TransportConfig(urls=(service.url,), retries=-1)
        with pytest.raises(ValueError):
            TransportConfig(urls=(service.url,), timeout=0.0)
        with pytest.raises(ValueError):
            TransportConfig(urls=(service.url, service.url))  # duplicates
        with pytest.raises(ValueError):
            TransportConfig(urls=())

    def test_float32_tier_needs_only_state_dtype(self, service):
        f32 = TransportConfig(urls=(service.url,), state_dtype="float32")
        backend = RuntimeConfig(backend="remote", transport=f32).build_backend()
        assert backend.exact is False
        assert backend.tolerance == FLOAT32_TOLERANCE
        model = load_model("bert", backend=backend)
        assert EmbeddingExecutor(model)._cache_space == "bert|remote+f32"

    def test_malformed_model_payload_raises_model_error(self):
        from repro.models.config import ModelConfig

        with pytest.raises(ModelError, match="malformed"):
            ModelConfig.from_jsonable({"name": "x", "dim": "64"})  # wrong type
        with pytest.raises(ModelError, match="malformed"):
            ModelConfig.from_jsonable({})  # missing required field
        with pytest.raises(ModelError, match="unknown"):
            ModelConfig.from_jsonable({"name": "x", "nope": 1})

    def test_service_answers_400_on_junk_model_not_torn_socket(self, service):
        # A malformed model payload is a client bug: the service must send
        # a real HTTP 400 (which the client raises immediately), not crash
        # the handler into a torn read that burns retries.
        model = cached_model("bert")
        token_lists = token_lists_for(model, small_tables(1))

        class BadConfig:
            dim = model.config.dim

            @staticmethod
            def to_jsonable():
                return {"name": "x", "dim": "sixty-four"}

        class BadEncoder:
            config = BadConfig()

        backend = fast_remote(service)
        with pytest.raises(RemoteEncodeError, match="HTTP 400"):
            backend.encode_batch(BadEncoder(), token_lists, 4)
        assert backend.stats_snapshot().retries == 0

    def test_encode_refuses_padded_mode_with_400(self, service):
        # Only exact batching is served; a request naming another mode
        # is a client error, whatever else it carries.
        model = cached_model("bert")
        (tokens,) = token_lists_for(model, small_tables(1))
        request = {
            "protocol": 2,
            "model": model.encoder.config.to_jsonable(),
            "mode": "padded",
            "sequences": [wire_to_jsonable(tokens.to_wire())],
        }
        post = urllib.request.Request(
            f"{service.url}/encode",
            data=json.dumps(request).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(post, timeout=10)
        with err.value as response:
            assert response.code == 400
            assert "mode" in json.loads(response.read())["error"]

    def test_protocol_1_requests_refused(self):
        from repro.service.encode import ACCEPTED_PROTOCOLS, EncoderPool

        assert ACCEPTED_PROTOCOLS == (2,)
        with pytest.raises(ValueError, match="protocol mismatch"):
            EncoderPool().encode_request({"protocol": 1, "sequences": []})

    def test_bad_urls_rejected(self, monkeypatch):
        for bad in (
            "https://secure.example",  # only http is spoken
            "not a url",
            "http://a:x",  # the port must be an integer in 1-65535
            "http://a:99999",
            "http://a:0",
        ):
            monkeypatch.setenv("REPRO_REMOTE_URL", bad)
            with pytest.raises(ModelError):
                RemoteBackend()
        with pytest.raises(ModelError, match="TransportConfig"):
            RemoteBackend("http://a:1")  # URLs travel on a TransportConfig

    def test_cache_namespace_isolated(self, service):
        model = load_model("bert")
        model.set_backend(fast_remote(service))
        assert EmbeddingExecutor(model)._cache_space == "bert|remote"
        f32 = TransportConfig(urls=(service.url,), state_dtype="float32")
        model.set_backend(RemoteBackend(f32))
        assert EmbeddingExecutor(model)._cache_space == "bert|remote+f32"
        model.set_backend(LocalBackend())
        assert EmbeddingExecutor(model)._cache_space == "bert"


class TestTransportStats:
    def test_merged_and_since(self):
        a = TransportStats(requests=3, chunks=2, retries=1, sequences=10,
                           round_trip_seconds=1.0, bytes_sent=100, bytes_received=200)
        b = TransportStats(requests=1, chunks=1, sequences=5,
                           round_trip_seconds=0.5, bytes_sent=50, bytes_received=80)
        merged = TransportStats.merged([a, b])
        assert merged.requests == 4 and merged.chunks == 3 and merged.sequences == 15
        assert merged.mean_round_trip == pytest.approx(0.5)
        delta = merged.since(a)
        assert delta.requests == 1 and delta.chunks == 1 and delta.bytes_sent == 50

    def test_to_dict_carries_mean(self):
        stats = TransportStats(chunks=2, round_trip_seconds=1.0)
        assert stats.to_dict()["mean_round_trip"] == pytest.approx(0.5)

    def test_replica_breakdown_merges_and_subtracts(self):
        a = TransportStats(
            chunks=2,
            retries=1,
            replicas={"http://a:1": ReplicaStats(requests=2, chunks=2,
                                                 round_trip_seconds=1.0)},
        )
        b = TransportStats(
            chunks=1,
            quarantines=1,
            replicas={
                "http://a:1": ReplicaStats(requests=1, errors=1, quarantines=1),
                "http://b:2": ReplicaStats(requests=1, chunks=1,
                                           round_trip_seconds=0.25),
            },
        )
        merged = TransportStats.merged([a, b])
        assert merged.chunks == 3 and merged.retries == 1 and merged.quarantines == 1
        assert merged.replicas["http://a:1"].requests == 3
        assert merged.replicas["http://a:1"].errors == 1
        assert merged.replicas["http://b:2"].mean_round_trip == pytest.approx(0.25)
        delta = merged.since(a)
        assert delta.replicas["http://a:1"].requests == 1
        assert delta.replicas["http://b:2"].chunks == 1
        rendered = merged.to_dict()
        assert rendered["replicas"]["http://a:1"]["requests"] == 3


url_strategy = st.builds(
    lambda host, port: f"http://{host}:{port}",
    host=st.from_regex(r"[a-z][a-z0-9-]{0,10}", fullmatch=True),
    port=st.integers(min_value=1, max_value=65535),
)

transport_strategy = st.builds(
    TransportConfig,
    urls=st.lists(url_strategy, min_size=1, max_size=4, unique=True).map(tuple),
    timeout=st.floats(min_value=0.001, max_value=600.0, allow_nan=False),
    retries=st.integers(min_value=0, max_value=10),
    compression=st.sampled_from(["none", "gzip"]),
    state_dtype=st.sampled_from(["float64", "float32"]),
)


class TestTransportConfig:
    @given(config=transport_strategy)
    @settings(max_examples=80, deadline=None)
    def test_pickle_round_trip(self, config):
        # The process engine ships RuntimeConfig to its workers by pickle.
        runtime = pickle.loads(pickle.dumps(RuntimeConfig(transport=config)))
        assert runtime.transport == config

    def test_url_normalization(self):
        single = TransportConfig(urls="http://a:1")
        assert single.urls == ("http://a:1",)
        as_list = TransportConfig(urls=["http://a:1", "http://b:2"])
        assert as_list.urls == ("http://a:1", "http://b:2")
        with pytest.raises(ValueError, match="URL"):
            TransportConfig(urls=("https://secure.example",))

    def test_runtime_config_refuses_a_dict_transport(self, service):
        with pytest.raises(ValueError, match="TransportConfig"):
            RuntimeConfig(transport={"urls": [service.url]})


def read_message(sock: socket.socket) -> bytes:
    """One HTTP message with a Content-Length body, read whole."""
    data = b""
    while b"\r\n\r\n" not in data:
        part = sock.recv(65536)
        if not part:
            raise ConnectionError("peer closed mid-message")
        data += part
    head, _, body = data.partition(b"\r\n\r\n")
    length = int(re.search(rb"(?i)content-length:\s*(\d+)", head).group(1))
    while len(body) < length:
        part = sock.recv(65536)
        if not part:
            raise ConnectionError("peer closed mid-body")
        body += part
    return head + b"\r\n\r\n" + body


class RawReplica:
    """A loopback listener that hands each connection to :meth:`handle`."""

    def __init__(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.05)
        self.url = f"http://127.0.0.1:{self.listener.getsockname()[1]}"
        self.connections = 0
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while not self.stop.is_set():
            try:
                conn, _ = self.listener.accept()
            except TimeoutError:
                continue
            self.connections += 1
            with conn:
                conn.settimeout(10)
                try:
                    self.handle(conn)
                except OSError:
                    pass  # the client gave up; wait for the next one

    def handle(self, conn: socket.socket) -> None:
        raise NotImplementedError

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop.set()
        self.thread.join(10)
        self.listener.close()


class HangUpProxy(RawReplica):
    """Relays one request per connection to ``upstream``, then hangs up."""

    def __init__(self, upstream: str):
        split = urlsplit(upstream)
        self.upstream = (split.hostname, split.port)
        super().__init__()

    def handle(self, conn):
        request = read_message(conn)
        with socket.create_connection(self.upstream, timeout=10) as upstream:
            upstream.sendall(request)
            conn.sendall(read_message(upstream))


class DripReplica(RawReplica):
    """Sends a 200's headers at once, then its body a byte per ``interval``."""

    def __init__(self, interval: float, length: int = 100):
        self.interval, self.length = interval, length
        super().__init__()

    def handle(self, conn):
        read_message(conn)
        conn.sendall(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % self.length
        )
        for _ in range(self.length):
            if self.stop.wait(self.interval):
                return
            conn.sendall(b" ")


class TestFleet:
    def fleet_backend(self, urls, **kwargs):
        kwargs.setdefault("backoff_base", 0.01)
        kwargs.setdefault("rng", random.Random(7))
        config_kwargs = {
            k: kwargs.pop(k)
            for k in ("timeout", "retries", "compression", "state_dtype")
            if k in kwargs
        }
        config_kwargs.setdefault("timeout", 10.0)
        config_kwargs.setdefault("retries", 3)
        return RemoteBackend(
            config=TransportConfig(urls=tuple(urls), **config_kwargs), **kwargs
        )

    @pytest.fixture()
    def bert_lists(self):
        model = cached_model("bert")
        return model, token_lists_for(model, small_tables(6))

    def test_keep_alive_connections_reused(self, service, bert_lists):
        # Two synchronous calls: the second takes the first's idle
        # connection instead of opening its own.
        model, token_lists = bert_lists
        backend = fast_remote(service)
        backend.encode_batch(model.encoder, token_lists, 4)
        backend.encode_batch(model.encoder, token_lists, 4)
        backend.close()
        stats = backend.stats_snapshot()
        assert stats.connections_opened == 1
        assert stats.connections_reused >= 1

    def test_idle_connection_closed_by_replica_costs_no_retry(self, service, bert_lists):
        # The proxy hangs up after each response, without saying so in a
        # header: the second call's reused connection is dead before its
        # status line, and one fresh connection replaces it.
        model, token_lists = bert_lists
        local = LocalBackend().encode_batch(model.encoder, token_lists, 4)
        with HangUpProxy(service.url) as proxy:
            backend = self.fleet_backend([proxy.url])
            for _ in range(2):
                states = backend.encode_batch(model.encoder, token_lists, 4)
                for base, got in zip(local, states):
                    assert np.array_equal(base, got)
            backend.close()
        stats = backend.stats_snapshot()
        assert proxy.connections == 2
        assert stats.retries == 0 and stats.chunks == 2
        assert stats.replicas[proxy.url].errors == 0
        assert stats.connections_opened == 2 and stats.connections_reused == 1

    def test_dripping_body_times_out_within_the_attempt(self, bert_lists):
        # Every byte arrives well within the timeout; only the attempt's
        # whole budget, re-armed before each read, stops the drip.
        model, token_lists = bert_lists
        with DripReplica(interval=0.1) as replica:
            backend = self.fleet_backend([replica.url], timeout=0.5, retries=0)
            started = time.monotonic()
            with pytest.raises(RemoteEncodeError, match="deadline"):
                backend.encode_batch(model.encoder, token_lists, 4)
            elapsed = time.monotonic() - started
        stats = backend.stats_snapshot()
        assert stats.timeouts == 1
        assert stats.replicas[replica.url].errors == 1
        assert 0.45 <= elapsed < 1.5, elapsed

    def test_gzip_round_trip_bit_identical_and_smaller(self, bert_lists):
        model, token_lists = bert_lists
        local = LocalBackend().encode_batch(model.encoder, token_lists, 4)
        with LoopbackEncoderService() as svc:
            plain = self.fleet_backend([svc.url])
            plain_states = plain.encode_batch(model.encoder, token_lists, 4)
            gzipped = self.fleet_backend([svc.url], compression="gzip")
            gzip_states = gzipped.encode_batch(model.encoder, token_lists, 4)
            cheapest = self.fleet_backend(
                [svc.url], compression="gzip", state_dtype="float32"
            )
            cheapest.encode_batch(model.encoder, token_lists, 4)
        for base, a, b in zip(local, plain_states, gzip_states):
            assert np.array_equal(base, a)
            assert np.array_equal(base, b)  # compression is lossless
        plain, gzipped, cheapest = (
            backend.stats_snapshot() for backend in (plain, gzipped, cheapest)
        )
        assert gzipped.bytes_received < plain.bytes_received
        # The 40% floors sit where gzip can win: redundant token text on
        # the request side, and the whole opt-in tier (gzip + float32)
        # against the bit-exact default.  Random float64 mantissas barely
        # compress, so exact responses get no floor.
        assert gzipped.bytes_sent <= 0.6 * plain.bytes_sent
        assert cheapest.bytes_sent + cheapest.bytes_received <= 0.6 * (
            plain.bytes_sent + plain.bytes_received
        )

    def test_float32_tier_within_tolerance(self, service, bert_lists):
        model, token_lists = bert_lists
        local = LocalBackend().encode_batch(model.encoder, token_lists, 4)
        backend = self.fleet_backend([service.url], state_dtype="float32")
        assert backend.exact is False
        assert backend.tolerance == FLOAT32_TOLERANCE
        assert backend.cache_namespace == "remote+f32"
        states = backend.encode_batch(model.encoder, token_lists, 4)
        for base, got in zip(local, states):
            assert got.dtype == np.float64  # decoded back to float64
            assert max_relative_error(got, base) <= FLOAT32_TOLERANCE

    def test_exact_float64_still_bit_identical_alongside_f32(self, service, bert_lists):
        model, token_lists = bert_lists
        local = LocalBackend().encode_batch(model.encoder, token_lists, 4)
        exact = self.fleet_backend([service.url])
        assert exact.exact is True
        states = exact.encode_batch(model.encoder, token_lists, 4)
        for base, got in zip(local, states):
            assert np.array_equal(base, got)

    def test_sharding_routes_across_replicas(self, bert_lists):
        # A chunk is never split: it goes whole to the replica routing
        # favors, however many replicas are healthy.
        model, token_lists = bert_lists
        many = token_lists * 4
        local = LocalBackend().encode_batch(model.encoder, many, 4)
        with FleetHarness(2) as fleet:
            backend = self.fleet_backend(fleet.urls)
            states = backend.encode_batch(model.encoder, many, 4)
            stats = backend.stats_snapshot()
        for base, got in zip(local, states):
            assert np.array_equal(base, got)
        assert stats.chunks == 1 and stats.sequences == len(many) == 24
        assert sorted(rep.chunks for rep in stats.replicas.values()) == [1]
        # Latency routing: the straggler gets one chunk, its exploration
        # probe; its 0.5s delay adds to whatever the compute costs, so the
        # fast replicas win every later chunk on any host.
        local = LocalBackend().encode_batch(model.encoder, token_lists, 4)
        with FleetHarness(3, slow_index=0, slow_delay=0.5) as fleet:
            urls = fleet.urls
            backend = self.fleet_backend(urls)
            for _ in range(6):
                states = backend.encode_batch(model.encoder, token_lists, 4)
                for base, got in zip(local, states):
                    assert np.array_equal(base, got)
            stats = backend.stats_snapshot()
        chunks = [stats.replicas[url].chunks for url in urls]
        assert chunks[0] == 1 and sum(chunks[1:]) == 5, chunks
        assert stats.retries == 0

    def test_quarantine_and_recovery_after_5xx_streak(self, bert_lists):
        model, token_lists = bert_lists
        local = LocalBackend().encode_batch(model.encoder, token_lists, 4)
        with FleetHarness(2) as fleet:
            backend = self.fleet_backend(
                fleet.urls, quarantine_seconds=0.3
            )
            for _ in range(3):
                fleet.inject(0, "http_500")
            # Three chunks: each first tries replica 0 (unexplored-first
            # routing), eats a 500, and reroutes to replica 1.  The third
            # failure trips the quarantine.
            for _ in range(3):
                states = backend.encode_batch(model.encoder, token_lists, 4)
                for base, got in zip(local, states):
                    assert np.array_equal(base, got)
            stats = backend.stats_snapshot()
            assert stats.quarantines == 1
            assert stats.replicas[fleet.urls[0]].errors == 3
            assert stats.replicas[fleet.urls[0]].quarantines == 1
            assert not backend._replicas[0].available()
            # While quarantined, chunks route straight to the healthy
            # replica — no retries burned.
            before = backend.stats_snapshot().retries
            backend.encode_batch(model.encoder, token_lists, 4)
            assert backend.stats_snapshot().retries == before
            # After the quarantine lapses the replica is probed again and
            # a success clears its failure streak.
            time.sleep(0.35)
            assert backend._replicas[0].available()
            states = backend.encode_batch(model.encoder, token_lists, 4)
            for base, got in zip(local, states):
                assert np.array_equal(base, got)
            assert backend._replicas[0].consecutive_failures == 0
            assert backend.stats_snapshot().replicas[fleet.urls[0]].chunks >= 1

    def test_dead_replica_costs_a_bounded_number_of_retries(self, bert_lists):
        # A refused connection counts towards quarantine like a 5xx: the
        # dead replica costs QUARANTINE_AFTER retries, not one per chunk.
        model, token_lists = bert_lists
        local = LocalBackend().encode_batch(model.encoder, token_lists, 4)
        dead = "http://127.0.0.1:9"
        with FleetHarness(2) as fleet:
            backend = RemoteBackend(
                TransportConfig(urls=(dead, *fleet.urls)),
                quarantine_seconds=60,
                backoff_base=0.001,
            )
            for _ in range(10):
                states = backend.encode_batch(model.encoder, token_lists, 4)
                for base, got in zip(local, states):
                    assert np.array_equal(base, got)
            stats = backend.stats_snapshot()
        assert stats.retries == QUARANTINE_AFTER
        assert stats.quarantines == 1
        assert stats.chunks == 10
        assert stats.replicas[dead].chunks == 0
        assert stats.replicas[dead].errors == QUARANTINE_AFTER

    def test_fleet_harness_surface(self):
        with FleetHarness(3, slow_index=1, slow_delay=0.05) as fleet:
            assert len(set(fleet.urls)) == 3
            assert fleet.replicas[1].delay == 0.05
            assert fleet.replicas[0].delay == 0.0
            assert fleet.requests_served == 0
        with pytest.raises(ValueError):
            FleetHarness(0)
        with pytest.raises(ValueError):
            FleetHarness(2, slow_index=5)

    def test_fleet_sweep_identical_with_flaky_replica(self):
        local = Observatory(seed=0, sizes=SIZES).sweep(["bert"], SWEEP_PROPS)
        with FleetHarness(3, slow_index=2, slow_delay=0.05) as fleet:
            fleet.inject(0, "http_500")
            runtime = RuntimeConfig(
                backend="remote",
                transport=TransportConfig(urls=fleet.urls, retries=4),
            )
            remote = Observatory(seed=0, sizes=SIZES, runtime=runtime).sweep(
                ["bert"], SWEEP_PROPS
            )
        for cell_l, cell_r in zip(local.cells, remote.cells):
            assert cell_l.result.to_dict() == cell_r.result.to_dict()
        assert remote.transport is not None
        assert len(remote.transport.replicas) >= 2  # routing really spread

    def test_cli_transport_flags_build_config(self, service):
        from repro.cli import _build_parser, _transport_from_args

        args = _build_parser().parse_args(
            [
                "sweep",
                "--models", "bert",
                "--remote-url", "http://a:1",
                "--remote-url", "http://b:2",
                "--remote-compression", "gzip",
                "--remote-state-dtype", "float32",
                "--remote-timeout", "5",
            ]
        )
        config = _transport_from_args(args)
        assert config == TransportConfig(
            urls=("http://a:1", "http://b:2"),
            timeout=5.0,
            compression="gzip",
            state_dtype="float32",
        )
        plain = _build_parser().parse_args(["sweep", "--models", "bert"])
        assert _transport_from_args(plain) is None
