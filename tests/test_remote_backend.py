"""Remote encoder backend against the loopback service double.

Locks in the transport's three contracts:

1. **Numerics across the wire** — for every model family, loopback-remote
   results are *bit-identical* to the in-process local backend in exact
   mode and within :data:`PADDED_TOLERANCE` in padded mode.  The service
   rebuilds its encoder, interner, and weights from the shipped config,
   so this is a genuine two-process determinism claim.
2. **Fault tolerance** — injected timeouts, 5xx, and torn payloads are
   retried (with backoff accounted in :class:`TransportStats`) and still
   produce bit-identical results; out-of-order responses are reassembled
   by digest echo; *tampered* payloads are rejected, never retried into
   acceptance.
3. **Wiring** — registry/RuntimeConfig/executor integration: the remote
   backend registers as ``"remote"``, demands a URL at configuration
   time, isolates its embedding-cache namespace, and feeds the streaming
   executor a latency-aware chunk size.

Plus a Hypothesis round trip of the JSON wire encoding (unicode pieces,
empty sequences, single-token arrays).
"""

import json
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.framework import DatasetSizes, Observatory
from repro.errors import ModelError, RemoteEncodeError
from repro.models.backends import (
    FLOAT32_TOLERANCE,
    PADDED_TOLERANCE,
    LocalBackend,
    RemoteBackend,
    ReplicaStats,
    TransportConfig,
    TransportStats,
    available_backends,
    max_relative_error,
)
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
from repro.testing import FleetHarness, LoopbackEncoderService
from tests.conftest import cached_model

WORDS = ("alpha", "bravo", "delta", "echo", "golf", "hotel", "india", "kilo")


@pytest.fixture(scope="module")
def service():
    with LoopbackEncoderService() as svc:
        yield svc


def fast_remote(svc, **kwargs) -> RemoteBackend:
    """A remote backend tuned for tests: tiny backoff, seeded jitter."""
    kwargs.setdefault("timeout", 10.0)
    kwargs.setdefault("retries", 2)
    kwargs.setdefault("backoff_base", 0.01)
    kwargs.setdefault("rng", random.Random(7))
    return RemoteBackend(svc.url, **kwargs)


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

    def test_padded_within_tolerance_for_every_model_family(
        self, service, all_model_names
    ):
        tables = small_tables(6)
        for name in all_model_names:
            model = cached_model(name)
            if not hasattr(model, "encoder"):
                continue
            token_lists = token_lists_for(model, tables)
            singles = [model.encoder.encode(toks) for toks in token_lists]
            backend = fast_remote(service, exact=False, padding_tier=4)
            assert not backend.exact
            remote = backend.encode_batch(model.encoder, token_lists, 8)
            for single, rem in zip(singles, remote):
                assert rem.shape == single.shape
                assert max_relative_error(rem, single) <= PADDED_TOLERANCE, name

    def test_empty_sequences_answered_locally(self, service):
        model = cached_model("bert")
        token_lists = [TokenArray.empty(), model._serializer.serialize(small_tables(1)[0])]
        states = fast_remote(service).encode_batch(model.encoder, token_lists, 4)
        assert states[0].shape == (0, model.dim)
        assert states[1].shape[0] == len(token_lists[1])

    def test_async_entry_point_matches_sync(self, service):
        import asyncio

        model = cached_model("bert")
        token_lists = token_lists_for(model, small_tables())
        backend = fast_remote(service)
        sync = backend.encode_batch(model.encoder, token_lists, 4)
        afresh = asyncio.run(backend.aencode_batch(model.encoder, token_lists, 4))
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
            "http://127.0.0.1:9", timeout=0.5, retries=1, backoff_base=0.001
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
        assert backend.url == service.url

    def test_padded_mode_derives_from_exact(self, service):
        cfg = RuntimeConfig(
            backend="remote",
            transport=TransportConfig(urls=(service.url,)),
            exact=False,
        )
        backend = cfg.build_backend()
        assert not backend.exact
        assert backend.tolerance == PADDED_TOLERANCE

    def test_transport_knob_validation(self, service):
        with pytest.raises(ValueError):
            TransportConfig(urls=(service.url,), retries=-1)
        with pytest.raises(ValueError):
            TransportConfig(urls=(service.url,), timeout=0.0)
        with pytest.raises(ValueError):
            TransportConfig(urls=(service.url,), pool_size=0)
        with pytest.raises(ValueError):
            TransportConfig(urls=(service.url,), hedge_after=1.0)
        with pytest.raises(ValueError):
            TransportConfig(urls=(service.url, service.url))  # duplicates
        with pytest.raises(ValueError):
            TransportConfig(urls=())

    def test_float32_tier_requires_non_exact_runtime(self, service):
        f32 = TransportConfig(urls=(service.url,), state_dtype="float32")
        with pytest.raises(ValueError, match="not exact"):
            RuntimeConfig(backend="remote", transport=f32)  # exact=True default
        cfg = RuntimeConfig(backend="remote", transport=f32, exact=False)
        assert cfg.build_backend().exact is False

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

    def test_protocol_1_requests_refused(self):
        from repro.service.encode import ACCEPTED_PROTOCOLS, EncoderPool

        assert ACCEPTED_PROTOCOLS == (2,)
        with pytest.raises(ValueError, match="protocol mismatch"):
            EncoderPool().encode_request({"protocol": 1, "sequences": []})

    def test_bad_urls_rejected(self):
        with pytest.raises(ModelError):
            RemoteBackend("https://secure.example")  # only http is spoken
        with pytest.raises(ModelError):
            RemoteBackend("not a url")

    def test_cache_namespace_isolated(self, service):
        model = load_model("bert")
        model.set_backend(fast_remote(service))
        assert EmbeddingExecutor(model)._cache_space == "bert|remote"
        model.set_backend(fast_remote(service, exact=False))
        assert EmbeddingExecutor(model)._cache_space == "bert|remote+padded"
        model.set_backend(LocalBackend())
        assert EmbeddingExecutor(model)._cache_space == "bert"


class TestChunkSizer:
    def test_default_until_first_round_trip(self, service):
        backend = fast_remote(service)
        assert backend.suggest_pipeline_chunk(8) == 8

    def test_suggestion_bounded_after_measurements(self, service):
        model = cached_model("bert")
        token_lists = token_lists_for(model, small_tables())
        backend = fast_remote(service)
        backend.encode_batch(model.encoder, token_lists, 4)
        suggestion = backend.suggest_pipeline_chunk(8)
        assert 1 <= suggestion <= 256

    def test_slow_link_amortizes_latency(self, service):
        backend = fast_remote(service)
        # Synthetic measurements: 0.5s round trips carrying 4 sequences
        # — the sizer must stretch chunks to amortize the latency floor.
        for _ in range(3):
            backend._record_chunk(backend._replicas[0], 0.5, 4)
        assert backend.suggest_pipeline_chunk(8) > 8

    def test_sizer_follows_fastest_healthy_replica(self):
        with FleetHarness(2) as fleet:
            backend = RemoteBackend(config=TransportConfig(urls=fleet.urls))
            slow, fast = backend._replicas
            backend._record_chunk(slow, 2.0, 4)   # 0.5 s/seq straggler
            backend._record_chunk(fast, 0.04, 4)  # 10 ms/seq healthy peer
            # The suggestion must track the fast replica (the one routing
            # favors), not a fleet average the straggler poisons.
            assert backend.suggest_pipeline_chunk(8) >= 16


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
            hedges=1,
            replicas={"http://a:1": ReplicaStats(requests=2, chunks=2,
                                                 round_trip_seconds=1.0)},
        )
        b = TransportStats(
            chunks=1,
            quarantines=1,
            replicas={
                "http://a:1": ReplicaStats(requests=1, errors=1, quarantines=1),
                "http://b:2": ReplicaStats(requests=1, chunks=1, hedges_won=1,
                                           round_trip_seconds=0.25),
            },
        )
        merged = TransportStats.merged([a, b])
        assert merged.chunks == 3 and merged.hedges == 1 and merged.quarantines == 1
        assert merged.replicas["http://a:1"].requests == 3
        assert merged.replicas["http://a:1"].errors == 1
        assert merged.replicas["http://b:2"].hedges_won == 1
        assert merged.replicas["http://b:2"].mean_round_trip == pytest.approx(0.25)
        delta = merged.since(a)
        assert delta.replicas["http://a:1"].requests == 1
        assert delta.replicas["http://b:2"].chunks == 1
        rendered = merged.to_dict()
        assert rendered["replicas"]["http://a:1"]["requests"] == 3

    def test_copy_is_deep_for_replicas(self):
        stats = TransportStats(replicas={"http://a:1": ReplicaStats(requests=1)})
        snap = stats.copy()
        stats.replicas["http://a:1"].requests += 1
        assert snap.replicas["http://a:1"].requests == 1


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
    hedge_after=st.one_of(
        st.none(),
        st.floats(
            min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True,
            allow_nan=False,
        ),
    ),
    pool_size=st.integers(min_value=1, max_value=32),
)


class TestTransportConfig:
    @given(config=transport_strategy)
    @settings(max_examples=80, deadline=None)
    def test_jsonable_round_trip(self, config):
        payload = json.loads(json.dumps(config.to_jsonable()))
        assert TransportConfig.from_jsonable(payload) == config

    def test_from_jsonable_rejects_junk(self):
        with pytest.raises(ValueError, match="dict"):
            TransportConfig.from_jsonable(["http://a:1"])
        with pytest.raises(ValueError, match="unknown"):
            TransportConfig.from_jsonable({"urls": ["http://a:1"], "nope": 1})
        with pytest.raises(ValueError, match="urls"):
            TransportConfig.from_jsonable({"timeout": 1.0})

    def test_url_normalization(self):
        single = TransportConfig(urls="http://a:1")
        assert single.urls == ("http://a:1",)
        as_list = TransportConfig(urls=["http://a:1", "http://b:2"])
        assert as_list.urls == ("http://a:1", "http://b:2")
        with pytest.raises(ValueError, match="URL"):
            TransportConfig(urls=("https://secure.example",))

    def test_runtime_config_coerces_jsonable_transport(self, service):
        cfg = RuntimeConfig(transport={"urls": [service.url]})
        assert cfg.transport == TransportConfig(urls=(service.url,))


class TestFleet:
    def fleet_backend(self, urls, **kwargs):
        kwargs.setdefault("backoff_base", 0.01)
        kwargs.setdefault("rng", random.Random(7))
        config_kwargs = {
            k: kwargs.pop(k)
            for k in ("timeout", "retries", "compression", "state_dtype",
                      "hedge_after", "pool_size")
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
        model, token_lists = bert_lists
        backend = fast_remote(service)
        import asyncio

        async def run():
            await backend.aencode_batch(model.encoder, token_lists, 4)
            await backend.aencode_batch(model.encoder, token_lists, 4)

        asyncio.run(run())
        stats = backend.stats_snapshot()
        assert stats.connections_opened == 1
        assert stats.connections_reused >= 1

    def test_gzip_round_trip_bit_identical_and_smaller(self, bert_lists):
        model, token_lists = bert_lists
        local = LocalBackend().encode_batch(model.encoder, token_lists, 4)
        with LoopbackEncoderService() as svc:
            plain = self.fleet_backend([svc.url])
            plain_states = plain.encode_batch(model.encoder, token_lists, 4)
            gzipped = self.fleet_backend([svc.url], compression="gzip")
            gzip_states = gzipped.encode_batch(model.encoder, token_lists, 4)
        for base, a, b in zip(local, plain_states, gzip_states):
            assert np.array_equal(base, a)
            assert np.array_equal(base, b)  # compression is lossless
        assert gzipped.stats_snapshot().bytes_sent < plain.stats_snapshot().bytes_sent
        assert (
            gzipped.stats_snapshot().bytes_received
            < plain.stats_snapshot().bytes_received
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
        model, token_lists = bert_lists
        # 6 tables is too few to shard; replicate the workload so the
        # planner can split it (>= 2 * MIN_SHARD_SEQUENCES sequences).
        token_lists = token_lists * 4
        local = LocalBackend().encode_batch(model.encoder, token_lists, 4)
        with FleetHarness(2) as fleet:
            backend = self.fleet_backend(fleet.urls)
            states = backend.encode_batch(model.encoder, token_lists, 4)
            for base, got in zip(local, states):
                assert np.array_equal(base, got)
            stats = backend.stats_snapshot()
            assert stats.chunks == 2  # one shard per replica
            assert stats.sequences == len(token_lists)
            per_replica = [stats.replicas[url].chunks for url in fleet.urls]
            assert per_replica == [1, 1]

    def test_hedged_request_winner_loser_accounting(self, bert_lists):
        model, token_lists = bert_lists
        local = LocalBackend().encode_batch(model.encoder, token_lists, 4)
        with FleetHarness(2, slow_index=0, slow_delay=0.5) as fleet:
            urls = fleet.urls
            backend = self.fleet_backend(urls, hedge_after=0.5)
            # Prime the latency window so the hedge delay (a percentile
            # over it) is computable and small; routing still explores
            # replica 0 (the straggler) first.
            for _ in range(8):
                backend._rtt_samples.append(0.01)
            states = backend.encode_batch(model.encoder, token_lists, 4)
            stats = backend.stats_snapshot()
        # No duplicate or dropped cells: every sequence answered once,
        # bit-identical to local.
        assert len(states) == len(token_lists)
        for base, got in zip(local, states):
            assert np.array_equal(base, got)
        assert stats.hedges >= 1
        assert stats.hedges_won >= 1  # the fast replica's copy won
        assert stats.hedges_cancelled >= 1  # the straggler was cancelled
        # Winner-only chunk accounting: consumed chunks == logical chunks,
        # and every consumed sequence is counted exactly once.
        assert stats.chunks == 1
        assert stats.sequences == len(token_lists)
        assert stats.replicas[urls[1]].hedges_won >= 1
        assert stats.replicas[urls[0]].chunks == 0

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
                transport=TransportConfig(
                    urls=fleet.urls, retries=4, hedge_after=0.9
                ),
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
                "--remote-hedge-after", "0.95",
                "--remote-pool-size", "2",
                "--remote-timeout", "5",
            ]
        )
        config = _transport_from_args(args)
        assert config == TransportConfig(
            urls=("http://a:1", "http://b:2"),
            timeout=5.0,
            compression="gzip",
            state_dtype="float32",
            hedge_after=0.95,
            pool_size=2,
        )
        plain = _build_parser().parse_args(["sweep", "--models", "bert"])
        assert _transport_from_args(plain) is None
