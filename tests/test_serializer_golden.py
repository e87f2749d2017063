"""Golden token digests: the serializers' layout, pinned on any host.

Serializers emit only integers and strings, so a hash of their output
holds on every host, whatever OpenBLAS core or ``exp`` loop produces the
encoder's floats.  There is one entry per zoo model, through the model's
own serializer and input policy, and one per ablation variant, over a
seeded corpus that covers a ``None`` cell, a caption, an empty table and
a first row that alone overflows the 512-token budget.

An entry is the first 16 hex digits of a sha256 over the
``TokenArray.digest()`` of every sequence, in corpus order (every row
sequence for row-template serializers).  When the entries were committed,
every table's digest equalled that of the ``Token``-object emitters they
replace, and the entries did not depend on ``PYTHONHASHSEED``.  A change
that moves one token of any layout turns an entry red.
"""

import hashlib
from typing import List

import pytest

from repro.data.sotab import SotabGenerator
from repro.data.wikitables import WikiTablesGenerator
from repro.models.registry import available_models
from repro.models.serializers import (
    ColumnWiseSerializer,
    RowTemplateSerializer,
    RowWiseSerializer,
)
from repro.relational.schema import TableSchema
from repro.relational.table import Table
from repro.text.tokenizer import Tokenizer
from tests.conftest import cached_model

MODEL_DIGESTS = {
    "bert": "29136073bdb201e4",
    "roberta": "c98137311c772170",
    "t5": "29136073bdb201e4",
    "turl": "99377835e594cc4a",
    "doduo": "b38b2faaebfd35db",
    "tapas": "29136073bdb201e4",
    "tabert": "23aa586d51538c03",
    "tapex": "29136073bdb201e4",
    "taptap": "1e857438224806bb",
}

VARIANTS = {
    "row-wise, caption": lambda tok: RowWiseSerializer(tok, 512, include_caption=True),
    "row-wise, no header": lambda tok: RowWiseSerializer(tok, 512, include_header=False),
    "row-wise, 48 tokens": lambda tok: RowWiseSerializer(tok, 48),
    "column-wise, header": lambda tok: ColumnWiseSerializer(tok, 512, include_header=True),
    "column-wise, 40 tokens": lambda tok: ColumnWiseSerializer(tok, 40),
    "row template, 64 tokens": lambda tok: RowTemplateSerializer(tok, 64),
}

VARIANT_DIGESTS = {
    "row-wise, caption": "99377835e594cc4a",
    "row-wise, no header": "1fc2a46948036f83",
    "row-wise, 48 tokens": "44118bc5aa8c99b5",
    "column-wise, header": "8fb1631b6fda41ff",
    "column-wise, 40 tokens": "3142ed3e5534b93e",
    "row template, 64 tokens": "c922495ae3535073",
}


@pytest.fixture(scope="module")
def corpus() -> List[Table]:
    tables = [*WikiTablesGenerator(0).generate(6), *SotabGenerator(0).generate(4)]
    tables.append(
        Table.from_columns(
            [
                ("name", ["Alice Smith", "Bob Jones", "Carol White", None]),
                ("age", [30, 41, 28, 55]),
                ("city", ["Paris", "Lima", "Oslo", "Rome"]),
            ],
            caption="people of note",
            table_id="token-array-test",
        )
    )
    tables.append(Table(TableSchema.from_names(["a", "b"]), []))
    # The first row alone overflows 512 tokens: one row, truncated hard.
    tables.append(Table.from_columns([("text", [" ".join(["word"] * 700), "short"])]))
    return tables


def golden_digest(serialize, tables: List[Table]) -> str:
    digest = hashlib.sha256()
    for table in tables:
        out = serialize(table)
        for sequence in out if isinstance(out, list) else [out]:
            digest.update(sequence.digest().encode("ascii"))
    return digest.hexdigest()[:16]


def test_every_zoo_model_has_an_entry():
    assert sorted(available_models()) == sorted(MODEL_DIGESTS)


@pytest.mark.parametrize("name", sorted(MODEL_DIGESTS))
def test_zoo_model_layout(name, corpus):
    model = cached_model(name)

    def serialize(table):
        return model._serializer.serialize(model._effective_table(table))

    assert golden_digest(serialize, corpus) == MODEL_DIGESTS[name]


@pytest.mark.parametrize("label", sorted(VARIANTS))
def test_serializer_variant_layout(label, corpus):
    serializer = VARIANTS[label](Tokenizer())
    assert golden_digest(serializer.serialize, corpus) == VARIANT_DIGESTS[label]
