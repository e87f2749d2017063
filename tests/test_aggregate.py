"""Tests for token-to-level aggregation."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.models import Token, TokenArray, TokenRole, aggregate
from repro.text.vocab import CLS


def build_tokens():
    """2 columns x 2 rows with headers; distinct state per token."""
    tokens = TokenArray.from_tokens([
        Token(CLS, TokenRole.SPECIAL),
        Token("h0", TokenRole.HEADER, col=0),
        Token("h1", TokenRole.HEADER, col=1),
        Token("v00", TokenRole.VALUE, row=0, col=0),
        Token("v01", TokenRole.VALUE, row=0, col=1),
        Token("v10", TokenRole.VALUE, row=1, col=0),
        Token("v11", TokenRole.VALUE, row=1, col=1),
    ])
    states = np.arange(len(tokens) * 2, dtype=float).reshape(len(tokens), 2)
    return tokens, states


def test_column_embeddings_mean_pooling():
    tokens, states = build_tokens()
    cols = aggregate.column_embeddings(tokens, states, 2, header_weight=1.0)
    expected_col0 = (states[1] + states[3] + states[5]) / 3
    assert np.allclose(cols[0], expected_col0)


def test_column_embeddings_header_weight():
    tokens, states = build_tokens()
    cols = aggregate.column_embeddings(tokens, states, 2, header_weight=3.0)
    expected = (3 * states[1] + states[3] + states[5]) / 5
    assert np.allclose(cols[0], expected)


def test_column_embeddings_values_only():
    tokens, states = build_tokens()
    cols = aggregate.column_embeddings(tokens, states, 2, header_weight=0.0)
    assert np.allclose(cols[1], (states[4] + states[6]) / 2)


def test_column_embeddings_cls_anchor():
    tokens = TokenArray.from_tokens([
        Token(CLS, TokenRole.SPECIAL, col=0),
        Token("v", TokenRole.VALUE, row=0, col=0),
        Token(CLS, TokenRole.SPECIAL, col=1),
        Token("w", TokenRole.VALUE, row=0, col=1),
    ])
    states = np.array([[1.0, 0], [9, 9], [0, 2.0], [9, 9]])
    cols = aggregate.column_embeddings(tokens, states, 2, use_cls_anchor=True)
    assert np.allclose(cols[0], [1.0, 0])
    assert np.allclose(cols[1], [0, 2.0])


def test_missing_column_gets_zero_vector():
    tokens, states = build_tokens()
    cols = aggregate.column_embeddings(tokens, states, 3)
    assert np.allclose(cols[2], 0.0)


def test_row_embeddings():
    tokens, states = build_tokens()
    rows = aggregate.row_embeddings(tokens, states, 2)
    assert np.allclose(rows[0], (states[3] + states[4]) / 2)
    assert np.allclose(rows[1], (states[5] + states[6]) / 2)


def test_embedded_row_count():
    tokens, _ = build_tokens()
    assert aggregate.embedded_row_count(tokens) == 2


def test_table_embedding_weights_headers():
    tokens, states = build_tokens()
    table_emb = aggregate.table_embedding(tokens, states, header_weight=0.0)
    assert np.allclose(table_emb, states[3:].mean(axis=0))


def test_table_embedding_empty_raises():
    with pytest.raises(ModelError):
        aggregate.table_embedding(
            TokenArray.from_tokens([Token(CLS, TokenRole.SPECIAL)]), np.ones((1, 2))
        )


def test_cell_embedding():
    tokens, states = build_tokens()
    cell = aggregate.cell_embedding(tokens, states, 1, 1)
    assert np.allclose(cell, states[6])
    assert aggregate.cell_embedding(tokens, states, 5, 5) is None


def test_cell_embeddings_batch():
    tokens, states = build_tokens()
    out = aggregate.cell_embeddings(tokens, states, [(0, 0), (1, 1), (9, 9)])
    assert set(out) == {(0, 0), (1, 1)}
    assert np.allclose(out[(0, 0)], states[3])


def test_entity_embedding_includes_header_metadata():
    tokens, states = build_tokens()
    entity = aggregate.entity_embedding(tokens, states, 0, 0, metadata_weight=1.0)
    assert np.allclose(entity, (states[3] + states[1]) / 2)
    none_entity = aggregate.entity_embedding(tokens, states, 9, 9)
    assert none_entity is None
