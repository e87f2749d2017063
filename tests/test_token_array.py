"""Bit-identity and round-trip suite for the columnar token plane.

Three contracts:

1. **Round-trip** — ``List[Token] ↔ TokenArray`` is lossless for any token
   stream Hypothesis can produce, including anchor detection
   (``is_anchor``), truncation slicing, and the pickle/wire format that
   re-interns piece strings on the receiving side.
2. **Bit-identity** — every production path over ``TokenArray`` (fused
   embedding gather, attention masks, encoding through the local backend,
   all seven aggregation reductions) equals the frozen PR 3 per-token
   implementations (:mod:`repro.models.reference_plane`) to the last ulp
   for every serializer × model family.
3. **No quadratic intermediates** — aggregation never allocates the old
   dense ``(n_levels, n_tokens)`` weight matrices.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.models.token_array as token_array
from repro.models import aggregate, reference_plane
from repro.models.backends import LocalBackend
from repro.models.config import Serialization
from repro.models.registry import available_models
from repro.models.serializers import RowWiseSerializer
from repro.models.token_array import (
    INTERNER,
    ROLE_ORDER,
    ROLE_TO_ID,
    Token,
    TokenArray,
    TokenArrayBuilder,
    TokenInterner,
    TokenRole,
)
from repro.relational.table import Table
from repro.text.tokenizer import Tokenizer
from repro.text.vocab import CLS, SEP
from tests.conftest import (
    ATTENTION_IDS,
    ATTENTION_PAIRS,
    attention_encoder,
    cached_model,
    table_tokens,
)

# ----------------------------------------------------------------------
# Hypothesis round-trip: Token list <-> TokenArray
# ----------------------------------------------------------------------

_PIECES = st.sampled_from(
    [CLS, SEP, "alpha", "bravo", "##lta", "12", "value", "[ROW]", "[CELL]"]
)

_TOKENS = st.builds(
    Token,
    piece=_PIECES,
    role=st.sampled_from(list(TokenRole)),
    row=st.integers(min_value=-1, max_value=6),
    col=st.integers(min_value=-1, max_value=6),
)

_TOKEN_LISTS = st.lists(_TOKENS, min_size=0, max_size=40)


@settings(deadline=None, max_examples=60)
@given(tokens=_TOKEN_LISTS)
def test_round_trip_tokens_to_array_and_back(tokens):
    ta = TokenArray.from_tokens(tokens)
    assert len(ta) == len(tokens)
    assert ta.tokens() == tokens
    # Indexing materializes the same views iteration does.
    for i in range(len(tokens)):
        assert ta[i] == tokens[i]


@settings(deadline=None, max_examples=60)
@given(tokens=_TOKEN_LISTS, data=st.data())
def test_round_trip_truncation_slicing(tokens, data):
    ta = TokenArray.from_tokens(tokens)
    budget = data.draw(st.integers(min_value=0, max_value=len(tokens) + 3))
    sliced = ta[:budget]
    assert isinstance(sliced, TokenArray)
    assert sliced.tokens() == tokens[:budget]


@settings(deadline=None, max_examples=60)
@given(tokens=_TOKEN_LISTS)
def test_round_trip_anchor_detection(tokens):
    ta = TokenArray.from_tokens(tokens)
    mask = ta.is_anchor
    assert mask.dtype == bool and mask.shape == (len(tokens),)
    assert mask.tolist() == [t.is_anchor for t in tokens]


@settings(deadline=None, max_examples=40)
@given(tokens=_TOKEN_LISTS)
def test_round_trip_pickle_wire_format(tokens):
    ta = TokenArray.from_tokens(tokens)
    clone = pickle.loads(pickle.dumps(ta))
    assert clone.tokens() == tokens
    assert clone.digest() == ta.digest()


@settings(deadline=None, max_examples=40)
@given(tokens=_TOKEN_LISTS)
def test_wire_format_survives_a_fresh_interner(tokens):
    """Simulates crossing a process boundary: the receiving side has a
    different (fresh) interner, so local piece ids differ — the logical
    token stream and the canonical digest must not."""
    ta = TokenArray.from_tokens(tokens)
    wire = ta.to_wire()
    expected = ta.tokens()
    expected_digest = ta.digest()
    original = token_array.INTERNER
    token_array.INTERNER = TokenInterner()
    try:
        rebuilt = TokenArray.from_wire(wire)
        assert rebuilt.tokens() == expected
        assert rebuilt.digest() == expected_digest
    finally:
        token_array.INTERNER = original


def test_wire_format_canonical_across_intern_orders():
    """A receiver whose interner assigned the same pieces in a different
    relative order (any process that serialized other tables first) must
    accept the payload and agree on the digest — the canonical form sorts
    by piece *string*, never by process-local id."""
    tokens = [
        Token("zeta-order-test", TokenRole.VALUE, row=0, col=0),
        Token("alpha-order-test", TokenRole.VALUE, row=0, col=1),
        Token("zeta-order-test", TokenRole.VALUE, row=1, col=0),
    ]
    ta = TokenArray.from_tokens(tokens)  # interns zeta before alpha
    wire = ta.to_wire()
    expected_digest = ta.digest()
    original = token_array.INTERNER
    token_array.INTERNER = TokenInterner()
    try:
        # Receiver saw alpha first: relative id order is reversed.
        token_array.INTERNER.intern("alpha-order-test")
        rebuilt = TokenArray.from_wire(wire)
        assert rebuilt.tokens() == tokens
        assert rebuilt.digest() == expected_digest
    finally:
        token_array.INTERNER = original


def test_wire_format_digest_check_rejects_tampering():
    ta = TokenArray.from_tokens(
        [Token("alpha", TokenRole.VALUE, row=0, col=0), Token(SEP, TokenRole.SPECIAL)]
    )
    wire = ta.to_wire()
    wire["rows"] = np.array([1, -1], dtype=np.int32)
    with pytest.raises(ValueError, match="digest"):
        TokenArray.from_wire(wire)


def test_interner_ids_are_stable_and_shared():
    a = INTERNER.intern("stable-piece-test")
    b = INTERNER.intern("stable-piece-test")
    assert a == b
    assert INTERNER.piece(a) == "stable-piece-test"
    assert INTERNER.id_of("stable-piece-test") == a
    assert INTERNER.id_of("\x00never-interned\x00") == -1


def test_content_matrix_rows_match_legacy_content_vectors():
    """The fused gather reads the exact float64 vectors the per-piece
    cache held: token_vector + anisotropy * global direction."""
    from repro.seeding import token_vector

    dim = 16
    for piece in ("alpha", "bravo", CLS):
        pid = INTERNER.intern(piece)
        expected = token_vector(piece, dim) + token_array.CONTENT_ANISOTROPY * INTERNER.global_direction(dim)
        assert np.array_equal(INTERNER.content_matrix(dim)[pid], expected)


# ----------------------------------------------------------------------
# Serializer output (its layout is pinned by tests/test_serializer_golden.py)
# ----------------------------------------------------------------------


def test_empty_table_serializes_to_empty_value_plane():
    from repro.relational.schema import TableSchema

    empty = Table(TableSchema.from_names(["a", "b"]), [])
    ta = RowWiseSerializer(Tokenizer(), 64).serialize(empty)
    assert isinstance(ta, TokenArray)
    assert not (ta.role_ids == token_array.ROLE_VALUE).any()


# ----------------------------------------------------------------------
# Encoder bit-identity: every serializer x model family x backend
# ----------------------------------------------------------------------


def family_tables():
    return [
        Table.from_columns(
            [("name", ["Alice", "Bob", "Carol"]), ("age", [30, 41, 28])],
            caption="people",
            table_id="fam-0",
        ),
        Table.from_columns(
            [("country", ["France", "Peru"]), ("capital", ["Paris", "Lima"]),
             ("population", [67, 34])],
            table_id="fam-1",
        ),
    ]


@pytest.mark.parametrize("name", available_models())
def test_encode_bit_identical_to_reference_per_family(name):
    model = cached_model(name)
    serializer = model._serializer
    for table in family_tables():
        effective = model._effective_table(table)
        if model.config.serialization == Serialization.ROW_TEMPLATE:
            sequences = serializer.serialize(effective)
        else:
            sequences = [serializer.serialize(effective)]
        for ta in sequences:
            tokens = ta.tokens()
            assert np.array_equal(
                model.encoder.embed_tokens(ta),
                reference_plane.embed_tokens_reference(model.encoder, tokens),
            )
            assert np.array_equal(
                model.encoder.attention_mask(ta),
                reference_plane.attention_mask_reference(model.encoder, tokens),
            )
            assert np.array_equal(
                model.encoder.attention_bias(ta),
                reference_plane.attention_bias_reference(model.encoder, tokens),
            )
            assert np.array_equal(
                model.encoder.encode(ta),
                reference_plane.encode_reference(model.encoder, tokens),
            )


@pytest.mark.parametrize("name", ["bert", "tapas", "t5", "doduo"])
def test_backends_on_token_arrays(name):
    """The exact backend is bit-identical to the reference forward on
    columnar inputs end-to-end."""
    model = cached_model(name)
    if model.config.serialization == Serialization.ROW_TEMPLATE:
        pytest.skip("no flat sequence for row-template models")
    token_lists = [
        model._serializer.serialize(model._effective_table(t))
        for t in family_tables() * 2
    ]
    reference = [
        reference_plane.encode_reference(model.encoder, ta.tokens())
        for ta in token_lists
    ]
    exact = LocalBackend().encode_batch(model.encoder, token_lists, batch_size=2)
    for got, want in zip(exact, reference):
        assert np.array_equal(got, want)


def test_attention_bias_values():
    from repro.models.config import ModelConfig, PositionKind
    from repro.models.encoder import Encoder

    encoder = Encoder(
        ModelConfig(
            name="bias-test",
            dim=16,
            n_layers=1,
            n_heads=2,
            position_kind=PositionKind.RELATIVE,
            relative_tau=4.0,
        )
    )
    a = encoder.attention_bias(TokenArray.from_tokens(table_tokens(24, 0)))
    idx = np.arange(24, dtype=np.float64)
    expected = -np.abs(idx[:, None] - idx[None, :]) / encoder.config.relative_tau
    assert np.array_equal(a, expected)


@pytest.mark.parametrize(
    "position_kind,attention_mask",
    ATTENTION_PAIRS,
    ids=ATTENTION_IDS,
)
@settings(max_examples=8, deadline=None)
@given(
    lengths=st.lists(st.integers(min_value=1, max_value=72), min_size=1, max_size=3),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_folded_attention_bit_identical_for_every_configuration(
    position_kind, attention_mask, lengths, seed
):
    """The folded mask + bias term changes no bit of ``encode``, including
    RELATIVE positions under a local mask, which no zoo model exercises."""
    encoder = attention_encoder(position_kind, attention_mask)
    for i, n in enumerate(lengths):
        tokens = table_tokens(n, seed + i)
        assert np.array_equal(
            encoder.encode(TokenArray.from_tokens(tokens)),
            reference_plane.encode_reference(encoder, tokens),
        )


# ----------------------------------------------------------------------
# Aggregation bit-identity + the no-quadratic-intermediates guard
# ----------------------------------------------------------------------


def aggregation_fixture(name="tapas"):
    model = cached_model(name)
    table = family_tables()[0]
    ta = model._serializer.serialize(model._effective_table(table))
    states = np.random.default_rng(7).standard_normal((len(ta), model.dim))
    return table, ta, states


@pytest.mark.parametrize("header_weight", [0.0, 0.5, 1.0, 3.0])
def test_aggregate_columns_rows_table_bit_identical(header_weight):
    table, ta, states = aggregation_fixture()
    tokens = ta.tokens()
    assert np.array_equal(
        aggregate.column_embeddings(ta, states, table.num_columns, header_weight=header_weight),
        reference_plane.column_embeddings_reference(
            tokens, states, table.num_columns, header_weight=header_weight
        ),
    )
    assert np.array_equal(
        aggregate.row_embeddings(ta, states, table.num_rows),
        reference_plane.row_embeddings_reference(tokens, states, table.num_rows),
    )
    assert np.array_equal(
        aggregate.table_embedding(ta, states, header_weight=header_weight),
        reference_plane.table_embedding_reference(
            tokens, states, header_weight=header_weight
        ),
    )
    assert aggregate.embedded_row_count(ta) == reference_plane.embedded_row_count_reference(tokens)


def test_aggregate_anchor_and_cells_and_entities_bit_identical():
    table, ta, states = aggregation_fixture("doduo")
    tokens = ta.tokens()
    assert np.array_equal(
        aggregate.column_embeddings(ta, states, table.num_columns, use_cls_anchor=True),
        reference_plane.column_embeddings_reference(
            tokens, states, table.num_columns, use_cls_anchor=True
        ),
    )
    coords = [(0, 0), (1, 1), (2, 0), (9, 9)]
    got = aggregate.cell_embeddings(ta, states, coords)
    want = reference_plane.cell_embeddings_reference(tokens, states, coords)
    assert set(got) == set(want)
    for coord in got:
        assert np.array_equal(got[coord], want[coord])
    for row, col in [(0, 0), (2, 1), (7, 7)]:
        a = aggregate.cell_embedding(ta, states, row, col)
        b = reference_plane.cell_embedding_reference(tokens, states, row, col)
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(a, b)
        a = aggregate.entity_embedding(ta, states, row, col, metadata_weight=0.5)
        b = reference_plane.entity_embedding_reference(
            tokens, states, row, col, metadata_weight=0.5
        )
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(a, b)


@settings(deadline=None, max_examples=30)
@given(tokens=st.lists(_TOKENS, min_size=1, max_size=30), data=st.data())
def test_aggregate_bit_identical_on_hypothesis_streams(tokens, data):
    ta = TokenArray.from_tokens(tokens)
    dim = 3
    states = np.random.default_rng(len(tokens)).standard_normal((len(tokens), dim))
    n_columns = data.draw(st.integers(min_value=1, max_value=8))
    header_weight = data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    assert np.array_equal(
        aggregate.column_embeddings(ta, states, n_columns, header_weight=header_weight),
        reference_plane.column_embeddings_reference(
            tokens, states, n_columns, header_weight=header_weight
        ),
    )
    n_rows = data.draw(st.integers(min_value=1, max_value=8))
    assert np.array_equal(
        aggregate.row_embeddings(ta, states, n_rows),
        reference_plane.row_embeddings_reference(tokens, states, n_rows),
    )
    assert aggregate.embedded_row_count(ta) == reference_plane.embedded_row_count_reference(tokens)


def test_no_quadratic_weight_intermediates():
    """column_embeddings must not allocate the old (n_columns, n_tokens)
    dense weight matrix; transient memory stays linear in tokens."""
    import tracemalloc

    n_tokens, n_columns, dim = 4000, 600, 4
    tokens = TokenArray(
        np.zeros(n_tokens, dtype=np.int32),
        np.full(n_tokens, token_array.ROLE_VALUE, dtype=np.uint8),
        np.arange(n_tokens, dtype=np.int32) % 50,
        np.arange(n_tokens, dtype=np.int32) % n_columns,
    )
    states = np.ones((n_tokens, dim))
    dense_bytes = n_columns * n_tokens * 8  # what the old path allocated
    tracemalloc.start()
    aggregate.column_embeddings(tokens, states, n_columns)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < dense_bytes / 4, (
        f"aggregation peak {peak}B suggests a dense (levels x tokens) "
        f"intermediate (~{dense_bytes}B) is back"
    )


def test_role_order_covers_every_role():
    assert set(ROLE_ORDER) == set(TokenRole)
    assert [ROLE_TO_ID[r] for r in ROLE_ORDER] == [0, 1, 2, 3]


class TestWireHardening:
    """Malformed wire payloads fail loudly, never alias or wrap (PR 5)."""

    def _wire(self):
        tokens = [
            Token("alpha", TokenRole.HEADER, row=-1, col=0),
            Token("bravo", TokenRole.VALUE, row=0, col=0),
            Token("alpha", TokenRole.VALUE, row=1, col=0),
        ]
        return TokenArray.from_tokens(tokens).to_wire()

    def test_digest_is_mandatory_for_transport(self):
        wire = self._wire()
        del wire["digest"]
        with pytest.raises(ValueError, match="digest"):
            TokenArray.from_wire(wire)

    def test_missing_content_key_named(self):
        wire = self._wire()
        del wire["rows"]
        with pytest.raises(ValueError, match="rows"):
            TokenArray.from_wire(wire)

    @pytest.mark.parametrize("bad", [-1, 99])
    def test_piece_index_bounds_checked(self, bad):
        wire = self._wire()
        index = np.asarray(wire["piece_index"]).copy()
        index[0] = bad
        wire["piece_index"] = index
        with pytest.raises(ValueError, match="piece_index"):
            TokenArray.from_wire(wire)

    def test_role_ids_bounds_checked(self):
        wire = self._wire()
        roles = np.asarray(wire["role_ids"]).astype(np.int64)
        roles[0] = len(ROLE_ORDER)
        wire["role_ids"] = roles
        with pytest.raises(ValueError, match="role_ids"):
            TokenArray.from_wire(wire)

    @pytest.mark.parametrize("key", ["rows", "cols"])
    def test_provenance_floor_checked(self, key):
        wire = self._wire()
        arr = np.asarray(wire[key]).copy()
        arr[0] = -2  # only -1 means "no provenance"
        wire[key] = arr
        with pytest.raises(ValueError, match=key):
            TokenArray.from_wire(wire)

    def test_non_integer_field_rejected(self):
        wire = self._wire()
        wire["rows"] = np.asarray([0.5, 1.0, 1.5])
        with pytest.raises(ValueError, match="integers"):
            TokenArray.from_wire(wire)


class TestIndexRangeValidation:
    """Out-of-range values raise instead of wrapping (PR 5 regression)."""

    def test_role_id_256_does_not_wrap_to_role_0(self):
        with pytest.raises(ValueError, match="uint8"):
            TokenArray([0], [256], [0], [0])

    def test_piece_id_past_int32_does_not_wrap(self):
        with pytest.raises(ValueError, match="int32"):
            TokenArray([2**40], [0], [0], [0])

    def test_builder_goes_through_the_same_validation(self):
        builder = TokenArrayBuilder()
        builder.append_id(0, 300)  # role id out of uint8 range
        with pytest.raises(ValueError, match="uint8"):
            builder.build()

    def test_in_range_values_unchanged(self):
        ta = TokenArray([0, 1], [3, 0], [-1, 5], [2, -1])
        assert ta.role_ids.dtype == np.uint8
        assert ta.rows.tolist() == [-1, 5]


class TestReviewHardening:
    """PR 5 review findings: pre-intern digest check, negative-id floor."""

    def test_negative_piece_id_rejected_even_preconverted(self):
        # The int32 fast path used to skip validation entirely; -1 would
        # gather the most recently interned piece's content vector.
        with pytest.raises(ValueError, match="below 0"):
            TokenArray([-1], [0], [0], [0])
        with pytest.raises(ValueError, match="below 0"):
            TokenArray(np.array([-1], dtype=np.int32), [0], [0], [0])

    def test_rejected_payload_never_touches_the_interner(self):
        junk = ["junk-а-🎲", "junk-b-🎲", "junk-c-🎲"]
        wire = {
            "pieces": junk,
            "piece_index": np.array([0, 1, 2], dtype=np.int32),
            "role_ids": np.array([0, 0, 0], dtype=np.uint8),
            "rows": np.array([-1, -1, -1], dtype=np.int32),
            "cols": np.array([-1, -1, -1], dtype=np.int32),
            "digest": "0" * 64,
        }
        before = len(INTERNER)
        with pytest.raises(ValueError, match="digest"):
            TokenArray.from_wire(wire)
        # A rejected payload must not grow process-wide interner state
        # (a service fed junk would otherwise leak memory per request).
        assert len(INTERNER) == before
        assert all(INTERNER.id_of(piece) == -1 for piece in junk)

    def test_payload_side_digest_matches_interner_side(self):
        # from_wire now verifies the digest before interning; the two
        # canonicalizations (payload-side vs digest()) must agree even
        # when the payload's piece list is unsorted.
        tokens = [
            Token("zulu", TokenRole.VALUE, row=0, col=0),
            Token("alpha", TokenRole.VALUE, row=1, col=0),
            Token("zulu", TokenRole.HEADER, row=-1, col=0),
        ]
        ta = TokenArray.from_tokens(tokens)
        wire = ta.to_wire()
        rebuilt = TokenArray.from_wire(wire)
        assert rebuilt == ta
        assert rebuilt.digest() == wire["digest"]
