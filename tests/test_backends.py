"""Numerics suite for the pluggable encoder backends.

Locks in the two contracts of the backend seam:

1. ``exact=True`` (the local backend) is **bit-identical** to encoding
   every sequence alone — for any batch size, any grouping the chunked
   streaming executor produces, and any model configuration;
2. ``exact=False`` (the padded backend) stays within the documented
   per-element tolerance (:data:`PADDED_TOLERANCE`) on randomly
   heterogeneous-length corpora, for every tier width.

Corpora are generated by Hypothesis with random row counts, word shapes,
and column counts so length collisions, tier boundaries, and the
long-sequence fallback all get exercised.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.levels import EmbeddingLevel
from repro.errors import ModelError
from repro.models.backends import (
    BATCH_MAX_LENGTH,
    PADDED_TOLERANCE,
    LocalBackend,
    PaddedBackend,
    PaddingStats,
    available_backends,
    max_relative_error,
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
    mask pair: ``LocalBackend`` batches, ``forward_batch`` and
    ``forward_padded`` over same-length groups, and a ``PaddedBackend``
    whose tiers hold one length each equal the reference forward bit for
    bit; ``forward_padded`` over mixed lengths stays within
    :data:`PADDED_TOLERANCE`."""
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
    # Same-length chunks need no padding, so the padded backend runs them
    # unpadded: bit-identical, and nothing counted as waste.
    one_length_tiers = PaddedBackend(tier_width=1)
    for got, want in zip(one_length_tiers.encode_batch(encoder, arrays), reference):
        assert np.array_equal(got, want)
    assert one_length_tiers.stats_snapshot() == PaddingStats()
    for got, want in zip(encoder.forward_padded(arrays), reference):
        assert got.shape == want.shape
        assert max_relative_error(got, want) <= PADDED_TOLERANCE


class TestPaddedTolerance:
    @given(
        specs=table_specs,
        tier_width=st.sampled_from([1, 2, 4, 8, 16]),
        batch_size=st.sampled_from([2, 4, 16]),
    )
    @settings(max_examples=25, deadline=None)
    def test_padded_within_documented_tolerance(self, specs, tier_width, batch_size):
        model = cached_model("bert")
        token_lists = serialized(model, [make_table(s, i) for i, s in enumerate(specs)])
        singles = [model.encoder.encode(toks) for toks in token_lists]
        backend = PaddedBackend(tier_width=tier_width)
        padded = backend.encode_batch(model.encoder, token_lists, batch_size=batch_size)
        for single, pad in zip(singles, padded):
            assert pad.shape == single.shape
            assert max_relative_error(pad, single) <= PADDED_TOLERANCE

    def test_padded_tolerance_across_model_families(self, all_model_names):
        tables = [make_table((1 + i % 6, 1 + i % 3, 1 + i % 2), i) for i in range(10)]
        backend = PaddedBackend(tier_width=8)
        for name in all_model_names:
            model = cached_model(name)
            if not has_flat_serializer(model):
                continue
            token_lists = serialized(model, tables)
            singles = [model.encoder.encode(toks) for toks in token_lists]
            padded = backend.encode_batch(model.encoder, token_lists, batch_size=8)
            for single, pad in zip(singles, padded):
                assert max_relative_error(pad, single) <= PADDED_TOLERANCE

    def test_forward_padded_masks_padding_completely(self, bert):
        # Growing the batch with a *longer* partner must not change a
        # sequence beyond tolerance: padding is masked out of attention.
        short = bert._serializer.serialize(make_table((2, 1, 1), 0))
        long = bert._serializer.serialize(make_table((7, 3, 2), 1))
        alone = bert.encoder.encode(short)
        padded = bert.encoder.forward_padded([short, long])[0]
        assert padded.shape == alone.shape
        assert max_relative_error(padded, alone) <= PADDED_TOLERANCE

    def test_waste_stats_accumulate(self, bert):
        backend = PaddedBackend(tier_width=8)
        tables = [make_table((1 + i % 5, 1 + i % 2, 1), i) for i in range(12)]
        token_lists = serialized(bert, tables)
        backend.encode_batch(bert.encoder, token_lists, batch_size=16)
        stats = backend.stats
        assert stats.padded_batches >= 1
        assert stats.real_tokens > 0
        assert 0.0 <= stats.waste_ratio < 1.0

    def test_padded_needs_fewer_forwards_on_all_distinct_lengths(self, bert, monkeypatch):
        # The corpus padding exists for: no two lengths match, so exact
        # grouping runs one forward per sequence while tiers still stack.
        by_length = {}
        for i in range(60):
            tokens = serialized(bert, [make_table((1 + i % 7, 1 + i % 3, 1 + i % 2), i)])[0]
            if len(tokens) <= BATCH_MAX_LENGTH:
                by_length.setdefault(len(tokens), tokens)
        token_lists = list(by_length.values())
        encoder = bert.encoder
        forwards = []  # sequences per forward
        encode, stacked = encoder.encode, encoder.forward_padded

        def counting_encode(tokens):
            forwards.append(1)
            return encode(tokens)

        def counting_stacked(batch):
            forwards.append(len(batch))
            return stacked(batch)

        monkeypatch.setattr(encoder, "encode", counting_encode)
        monkeypatch.setattr(encoder, "forward_batch", counting_stacked)
        monkeypatch.setattr(encoder, "forward_padded", counting_stacked)
        LocalBackend().encode_batch(encoder, token_lists, batch_size=16)
        assert forwards == [1] * len(token_lists)
        forwards.clear()
        PaddedBackend(tier_width=8).encode_batch(encoder, token_lists, batch_size=16)
        assert sum(forwards) == len(token_lists)
        assert len(forwards) < len(token_lists)  # 5 forwards for 22 lengths

    def test_tier_bounds_per_sequence_waste(self):
        backend = PaddedBackend(tier_width=4)
        # Lengths 5..8 share tier (5-1)//4 == (8-1)//4 == 1; 9 starts tier 2.
        assert backend._tier(5) == backend._tier(8)
        assert backend._tier(8) != backend._tier(9)

    def test_rejects_bad_tier_width(self):
        with pytest.raises(ValueError):
            PaddedBackend(tier_width=0)


class TestBackendRegistry:
    def test_available_and_resolve(self):
        assert {"local", "padded"} <= set(available_backends())
        assert resolve_backend(None).name == "local"
        assert resolve_backend("padded").name == "padded"
        backend = PaddedBackend(tier_width=3)
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
        model = load_model("bert", backend="padded")
        assert model.backend.name == "padded"
        assert load_model("bert").backend.name == "local"

    def test_set_backend_chains_and_swaps(self):
        model = load_model("bert")
        assert model.set_backend("padded") is model
        assert model.encoder.backend.name == "padded"


class TestModelLevelNumerics:
    LEVELS = (EmbeddingLevel.COLUMN, EmbeddingLevel.ROW, EmbeddingLevel.TABLE)

    def test_padded_model_levels_within_tolerance(self):
        exact = load_model("bert")
        padded = load_model("bert", backend=PaddedBackend(tier_width=8))
        tables = [make_table((1 + i % 6, 1 + i % 3, 1 + i % 2), i) for i in range(12)]
        a = exact.embed_levels_batch(tables, [self.LEVELS] * len(tables), batch_size=8)
        b = padded.embed_levels_batch(tables, [self.LEVELS] * len(tables), batch_size=8)
        for bundle_a, bundle_b in zip(a, b):
            for level in self.LEVELS:
                assert (
                    max_relative_error(bundle_b[level], bundle_a[level])
                    <= PADDED_TOLERANCE
                )
