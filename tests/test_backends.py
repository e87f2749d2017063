"""Numerics suite for the pluggable encoder backends.

Locks in the contract of the backend seam: the local backend is
**bit-identical** to encoding every sequence alone — for any batch size,
any grouping the chunked streaming executor produces, and any model
configuration.  The stacked forward it batches with takes sequences of
one length only.

Corpora are generated by Hypothesis with random row counts, word shapes,
and column counts so length collisions and the long-sequence fallback
both get exercised.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.models.backends import (
    LocalBackend,
    RemoteBackend,
    TransportConfig,
    available_backends,
    register_backend,
    resolve_backend,
)
from repro.models import reference_plane
from repro.models.config import Serialization
from repro.models.registry import load_model
from repro.models.token_array import TokenArray
from repro.relational.table import Table
from tests.conftest import (
    ATTENTION_IDS,
    ATTENTION_PAIRS,
    attention_encoder,
    cached_model,
    table_tokens,
)


def has_flat_serializer(model) -> bool:
    """ROW_TEMPLATE models serialize per-row; no single token list exists."""
    return (
        hasattr(model, "encoder")
        and model.config.serialization != Serialization.ROW_TEMPLATE
    )

WORDS = (
    "alpha", "bravo", "delta", "echo", "golf", "hotel",
    "india", "kilo", "lima", "mike", "oscar", "papa",
)


def make_table(spec, idx):
    """One table from a Hypothesis spec: (n_rows, words_per_cell, n_cols)."""
    n_rows, words_per_cell, n_cols = spec
    columns = []
    for c in range(n_cols):
        values = [
            " ".join(
                WORDS[(idx + r * (c + 1) + w) % len(WORDS)]
                for w in range(1 + (r + c + idx) % words_per_cell)
            )
            for r in range(n_rows)
        ]
        columns.append((WORDS[(idx + c) % len(WORDS)] + f" c{c}", values))
    return Table.from_columns(columns, table_id=f"hyp-{idx}")


table_specs = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=7),   # rows
        st.integers(min_value=1, max_value=3),   # max words per cell
        st.integers(min_value=1, max_value=2),   # columns
    ),
    min_size=2,
    max_size=10,
)


def serialized(model, tables):
    return [model._serializer.serialize(model._effective_table(t)) for t in tables]


class TestExactBitIdentity:
    @given(specs=table_specs, batch_size=st.sampled_from([1, 2, 3, 8, 32]))
    @settings(max_examples=25, deadline=None)
    def test_local_backend_matches_singles(self, specs, batch_size):
        model = cached_model("bert")
        token_lists = serialized(model, [make_table(s, i) for i, s in enumerate(specs)])
        singles = [model.encoder.encode(toks) for toks in token_lists]
        batched = LocalBackend().encode_batch(
            model.encoder, token_lists, batch_size=batch_size
        )
        for single, batch in zip(singles, batched):
            assert np.array_equal(single, batch)

    @given(specs=table_specs, chunk=st.sampled_from([2, 3, 5]))
    @settings(max_examples=15, deadline=None)
    def test_chunked_grouping_is_bit_identical(self, specs, chunk):
        # The streaming executor regroups pending work into chunks; any
        # chunking of an exact batch must leave outputs untouched.
        model = cached_model("bert")
        token_lists = serialized(model, [make_table(s, i) for i, s in enumerate(specs)])
        whole = model.encoder.encode_batch(token_lists, batch_size=8)
        pieces = []
        for start in range(0, len(token_lists), chunk):
            pieces.extend(
                model.encoder.encode_batch(
                    token_lists[start : start + chunk], batch_size=8
                )
            )
        for a, b in zip(whole, pieces):
            assert np.array_equal(a, b)

    def test_exact_holds_for_every_model_family(self, all_model_names):
        tables = [make_table((1 + i % 4, 1 + i % 2, 1 + i % 2), i) for i in range(6)]
        for name in all_model_names:
            model = cached_model(name)
            if not has_flat_serializer(model):
                continue
            token_lists = serialized(model, tables)
            singles = [model.encoder.encode(toks) for toks in token_lists]
            batched = model.encoder.encode_batch(token_lists, batch_size=4)
            for single, batch in zip(singles, batched):
                assert np.array_equal(single, batch)

    def test_aencode_batch_matches_sync(self, bert):
        tables = [make_table((1 + i % 5, 2, 1), i) for i in range(8)]
        token_lists = serialized(bert, tables)
        sync = bert.encoder.encode_batch(token_lists, batch_size=4)
        afresh = asyncio.run(bert.encoder.aencode_batch(token_lists, batch_size=4))
        for a, b in zip(sync, afresh):
            assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "position_kind,attention_mask",
    ATTENTION_PAIRS,
    ids=ATTENTION_IDS,
)
@settings(max_examples=6, deadline=None)
@given(
    lengths=st.lists(st.integers(min_value=1, max_value=56), min_size=2, max_size=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_folded_attention_across_forwards(position_kind, attention_mask, lengths, seed):
    """Every forward over the folded mask + bias term, for every positions x
    mask pair: ``LocalBackend`` batches, and ``forward_batch`` under both of
    its names over same-length groups, equal the reference forward bit for
    bit."""
    encoder = attention_encoder(position_kind, attention_mask)
    tokens = [table_tokens(n, seed + i) for i, n in enumerate(lengths)]
    arrays = [TokenArray.from_tokens(t) for t in tokens]
    reference = [reference_plane.encode_reference(encoder, t) for t in tokens]
    batched = LocalBackend().encode_batch(encoder, arrays, batch_size=3)
    for got, want in zip(batched, reference):
        assert np.array_equal(got, want)
    for n in set(lengths):
        same = [i for i, length in enumerate(lengths) if length == n]
        group = [arrays[i] for i in same]
        for forward in (encoder.forward_batch, encoder.forward_padded):
            for i, got in zip(same, forward(group)):
                assert np.array_equal(got, reference[i])


def test_forward_batch_refuses_mixed_lengths(bert):
    short = bert._serializer.serialize(make_table((2, 1, 1), 0))
    long = bert._serializer.serialize(make_table((7, 3, 2), 1))
    assert len(short) != len(long)
    with pytest.raises(ValueError):
        bert.encoder.forward_batch([short, long])


class TestBackendRegistry:
    def test_available_and_resolve(self):
        assert {"local", "remote"} <= set(available_backends())
        assert resolve_backend(None).name == "local"
        assert resolve_backend("local").name == "local"
        backend = LocalBackend()
        assert resolve_backend(backend) is backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ModelError):
            resolve_backend("quantum")

    def test_register_backend_roundtrip(self):
        class NullBackend(LocalBackend):
            name = "null-test"

        register_backend("null-test", NullBackend)
        try:
            assert resolve_backend("null-test").name == "null-test"
            with pytest.raises(ModelError):
                register_backend("null-test", NullBackend)
        finally:
            from repro.models import backends

            backends._FACTORIES.pop("null-test", None)

    def test_load_model_with_backend(self):
        # Building a remote backend does not connect.
        remote = RemoteBackend(TransportConfig(urls="http://127.0.0.1:9"))
        model = load_model("bert", backend=remote)
        assert model.backend is remote
        assert load_model("bert").backend.name == "local"

    def test_set_backend_chains_and_swaps(self):
        model = load_model("bert")
        remote = RemoteBackend(TransportConfig(urls="http://127.0.0.1:9"))
        assert model.set_backend(remote) is model
        assert model.encoder.backend is remote
        assert model.set_backend("local").encoder.backend.name == "local"

