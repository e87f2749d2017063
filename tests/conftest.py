"""Shared fixtures.

Models are deterministic and stateless, so they are cached per session;
tables are kept tiny to keep the suite fast.
"""

from __future__ import annotations

import itertools
from typing import List

import numpy as np
import pytest

from repro.data.wikitables import WikiTablesGenerator
from repro.models.config import AttentionMask, ModelConfig, PositionKind
from repro.models.encoder import Encoder
from repro.models.registry import available_models, load_model
from repro.models.token_array import Token, TokenRole
from repro.relational.table import Table

_MODEL_CACHE = {}

# Every attention configuration the encoder supports; the zoo covers only
# three of the twelve (no zoo model uses RELATIVE positions).
ATTENTION_PAIRS = list(itertools.product(PositionKind, AttentionMask))
ATTENTION_IDS = [f"{p.value}-{m.value}" for p, m in ATTENTION_PAIRS]
_PIECES = ("alpha", "bravo", "delta", "echo", "golf", "hotel", "india", "kilo")


def cached_model(name: str):
    """Session-cached model instance (embedding calls are pure)."""
    if name not in _MODEL_CACHE:
        _MODEL_CACHE[name] = load_model(name)
    return _MODEL_CACHE[name]


def table_tokens(n: int, seed: int) -> List[Token]:
    """A seeded table-shaped sequence of ``n`` tokens.

    A global [CLS], a caption token, then a header row and value rows over
    2-5 columns, so COLUMN_LOCAL and ROW_LOCAL masks hide most entries.
    """
    rng = np.random.default_rng(seed)
    width = int(rng.integers(2, 6))
    tokens = []
    for i in range(n):
        piece = _PIECES[int(rng.integers(len(_PIECES)))]
        if i == 0:
            tokens.append(Token("[CLS]", TokenRole.SPECIAL))
        elif i == 1:
            tokens.append(Token(piece, TokenRole.CAPTION))
        else:
            row, col = divmod(i - 2, width)
            role = TokenRole.HEADER if row == 0 else TokenRole.VALUE
            tokens.append(Token(piece, role, row=row - 1, col=col))
    return tokens


def attention_encoder(position_kind: PositionKind, attention_mask: AttentionMask) -> Encoder:
    """A small encoder for one positions x mask pair, every term non-zero."""
    key = ("attention", position_kind, attention_mask)
    if key not in _MODEL_CACHE:
        _MODEL_CACHE[key] = Encoder(
            ModelConfig(
                name=f"attn-{position_kind.value}-{attention_mask.value}",
                dim=16,
                n_layers=2,
                n_heads=2,
                position_kind=position_kind,
                attention_mask=attention_mask,
                row_position_scale=0.1,
                column_position_scale=0.1,
                relative_tau=4.0,
            )
        )
    return _MODEL_CACHE[key]


@pytest.fixture(scope="session")
def bert():
    return cached_model("bert")


@pytest.fixture(scope="session")
def doduo():
    return cached_model("doduo")


@pytest.fixture(scope="session")
def tabert():
    return cached_model("tabert")


@pytest.fixture(scope="session")
def taptap():
    return cached_model("taptap")


@pytest.fixture(scope="session")
def all_model_names():
    return available_models()


@pytest.fixture()
def tennis_table() -> Table:
    return Table.from_columns(
        [
            ("player", ["Roger Federer", "Rafael Nadal", "Novak Djokovic", "Andy Murray"]),
            ("country", ["Switzerland", "Spain", "Serbia", "United Kingdom"]),
            ("titles", [103, 92, 94, 46]),
        ],
        caption="tennis players",
        table_id="tennis-test",
    )


@pytest.fixture()
def fd_table() -> Table:
    """The paper's Figure 3 example: country -> continent holds."""
    return Table.from_columns(
        [
            ("city", ["Amsterdam", "Rotterdam", "Utrecht", "Toronto", "New York", "Chicago"]),
            ("country", ["Netherlands", "Netherlands", "Netherlands", "Canada", "USA", "USA"]),
            ("continent", ["Europe", "Europe", "Europe", "North America", "North America", "North America"]),
            ("population", [821, 623, 345, 2731, 8336, 2746]),
        ],
        table_id="fd-test",
    )


@pytest.fixture(scope="session")
def small_corpus():
    return WikiTablesGenerator(seed=3).generate(6, min_rows=5, max_rows=7)
