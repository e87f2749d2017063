"""Tests for table serialization and input-limit truncation."""

import pytest

from repro.models import Token, TokenRole
from repro.models.serializers import (
    ColumnWiseSerializer,
    RowTemplateSerializer,
    RowWiseSerializer,
)
from repro.relational.table import Table
from repro.text.tokenizer import Tokenizer
from repro.text.vocab import CLS, SEP


@pytest.fixture(scope="module")
def tokenizer():
    return Tokenizer()


@pytest.fixture()
def table():
    return Table.from_columns(
        [
            ("name", ["Alice Smith", "Bob Jones", "Carol White"]),
            ("age", [30, 41, 28]),
        ],
        caption="people",
        table_id="ser-test",
    )


def test_row_wise_layout(tokenizer, table):
    serializer = RowWiseSerializer(tokenizer, 512)
    tokens = serializer.serialize(table)
    assert tokens[0].piece == CLS
    headers = [t for t in tokens if t.role == TokenRole.HEADER]
    assert {t.col for t in headers} == {0, 1}
    values = [t for t in tokens if t.role == TokenRole.VALUE]
    assert {t.row for t in values} == {0, 1, 2}
    assert {t.col for t in values} == {0, 1}


def test_row_wise_provenance_matches_cells(tokenizer, table):
    serializer = RowWiseSerializer(tokenizer, 512)
    tokens = serializer.serialize(table)
    cell_pieces = [t.piece for t in tokens if t.row == 1 and t.col == 0 and t.role == TokenRole.VALUE]
    assert cell_pieces == tokenizer.tokenize("Bob Jones")


def test_row_wise_caption(tokenizer, table):
    serializer = RowWiseSerializer(tokenizer, 512, include_caption=True)
    tokens = serializer.serialize(table)
    assert any(t.role == TokenRole.CAPTION for t in tokens)


def test_row_wise_without_header(tokenizer, table):
    serializer = RowWiseSerializer(tokenizer, 512, include_header=False)
    tokens = serializer.serialize(table)
    assert not any(t.role == TokenRole.HEADER for t in tokens)


def test_fit_rows_binary_search(tokenizer):
    long_table = Table.from_columns(
        [("text", [f"some fairly long value number {i}" for i in range(100)])]
    )
    serializer = RowWiseSerializer(tokenizer, 128)
    fit = serializer.fit_rows(long_table)
    assert 0 < fit < 100
    assert len(serializer.serialize_rows(long_table, fit)) <= 128
    assert len(serializer.serialize_rows(long_table, fit + 1)) > 128


def test_serialize_respects_budget(tokenizer):
    long_table = Table.from_columns(
        [("text", [f"value {i} with several words inside" for i in range(200)])]
    )
    serializer = RowWiseSerializer(tokenizer, 96)
    tokens = serializer.serialize(long_table)
    assert len(tokens) <= 96


def test_serialize_hard_truncation_single_huge_row(tokenizer):
    huge = Table.from_columns([("text", [" ".join(f"word{i}" for i in range(500))])])
    serializer = RowWiseSerializer(tokenizer, 64)
    tokens = serializer.serialize(huge)
    assert len(tokens) == 64


def test_empty_table_serialization(tokenizer):
    from repro.relational.schema import TableSchema
    empty = Table(TableSchema.from_names(["a"]), [])
    serializer = RowWiseSerializer(tokenizer, 64)
    tokens = serializer.serialize(empty)
    assert tokens  # header block still present
    assert not any(t.role == TokenRole.VALUE for t in tokens)


def test_column_wise_cls_anchors(tokenizer, table):
    serializer = ColumnWiseSerializer(tokenizer, 512)
    tokens = serializer.serialize(table)
    anchors = [t for t in tokens if t.is_anchor]
    assert [t.col for t in anchors] == [0, 1]
    # values-only by default (DODUO)
    assert not any(t.role == TokenRole.HEADER for t in tokens)


def test_column_wise_column_blocks_ordered(tokenizer, table):
    serializer = ColumnWiseSerializer(tokenizer, 512)
    tokens = serializer.serialize(table)
    cols = [t.col for t in tokens if t.role == TokenRole.VALUE]
    assert cols == sorted(cols)


def test_column_wise_budget(tokenizer):
    long_table = Table.from_columns(
        [("a", [f"value {i}" for i in range(200)]), ("b", list(range(200)))]
    )
    serializer = ColumnWiseSerializer(tokenizer, 100)
    assert len(serializer.serialize(long_table)) <= 100


def test_row_template_per_row(tokenizer, table):
    serializer = RowTemplateSerializer(tokenizer, 128)
    sequences = serializer.serialize(table)
    assert len(sequences) == 3
    for r, seq in enumerate(sequences):
        rows = {t.row for t in seq}
        assert rows == {r}
        assert any(t.role == TokenRole.HEADER for t in seq)
        assert any(t.role == TokenRole.VALUE for t in seq)


def test_row_template_out_of_range(tokenizer, table):
    serializer = RowTemplateSerializer(tokenizer, 128)
    from repro.errors import SerializationError
    with pytest.raises(SerializationError):
        serializer.serialize_row(table, 99)


def test_token_is_anchor_logic():
    assert Token(CLS, TokenRole.SPECIAL, col=2).is_anchor
    assert not Token(CLS, TokenRole.SPECIAL).is_anchor
    assert not Token(SEP, TokenRole.SPECIAL, col=2).is_anchor
