"""Table serialization: flattening tables into token sequences.

Transformer models consume flat token sequences, so tables must be
serialized (Section 4.3 of the paper).  Two families are implemented:

* row-wise — rows concatenated with separators (TURL, TAPAS, TaBERT, and
  the vanilla LMs applied to tables);
* column-wise — columns concatenated, each introduced by its own ``[CLS]``
  anchor that doubles as the column representation (DODUO);

plus TapTap's per-row text templates.  Serializers enforce the model input
limit the way the paper does: *keep every column, binary-search the maximum
number of rows that fits*.

Serializers emit the columnar :class:`~repro.models.token_array.TokenArray`
— piece ids are interned at append time, so no per-token object is ever
built.  The layout every serializer emits is pinned by golden token
digests over a seeded corpus (``tests/test_serializer_golden.py``);
``serialize(t).tokens()`` gives the ``Token``-object view.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import SerializationError
from repro.models.token_array import (
    INTERNER,
    ROLE_CAPTION,
    ROLE_HEADER,
    ROLE_SPECIAL,
    ROLE_VALUE,
    TokenArray,
    TokenArrayBuilder,
)
from repro.relational.table import Table
from repro.text.tokenizer import Tokenizer
from repro.text.vocab import CELL, CLS, HEADER, ROW, SEP

__all__ = [
    "TokenArray",
    "RowWiseSerializer",
    "ColumnWiseSerializer",
    "RowTemplateSerializer",
]

# Structural specials are shared by every sequence; intern them once.
_CLS_ID = INTERNER.intern(CLS)
_SEP_ID = INTERNER.intern(SEP)
_ROW_ID = INTERNER.intern(ROW)
_CELL_ID = INTERNER.intern(CELL)
_HEADER_ID = INTERNER.intern(HEADER)
_IS_ID = INTERNER.intern("is")


class _PieceIds:
    """Memoized text → interned-piece-id list (the serializer hot path).

    Tokenization is already memoized inside :class:`Tokenizer`; this second
    tier also skips the per-piece interner lookups for repeated cell
    values, which shuffle sweeps re-serialize thousands of times.
    """

    _CACHE_LIMIT = 65536

    __slots__ = ("tokenizer", "_cache")

    def __init__(self, tokenizer: Tokenizer):
        self.tokenizer = tokenizer
        self._cache: Dict[str, List[int]] = {}

    def ids(self, text: str) -> List[int]:
        cached = self._cache.get(text)
        if cached is None:
            cached = INTERNER.intern_many(self.tokenizer.tokenize(text))
            if len(self._cache) < self._CACHE_LIMIT:
                self._cache[text] = cached
        return cached


class RowWiseSerializer:
    """Row-by-row serialization with header block and row separators.

    Layout::

        [CLS] caption? [SEP] h1 h2 … [SEP] [ROW] r1c1 [CELL] r1c2 … [SEP] [ROW] …

    Cell boundaries inside a row are marked with ``[CELL]`` so that cell- and
    entity-level aggregation can recover token spans without inserting one
    special per cell (which would eat the input budget, as the paper notes).
    """

    def __init__(
        self,
        tokenizer: Tokenizer,
        max_tokens: int = 512,
        *,
        include_header: bool = True,
        include_caption: bool = False,
    ):
        self.tokenizer = tokenizer
        self.max_tokens = max_tokens
        self.include_header = include_header
        self.include_caption = include_caption
        self._ids = _PieceIds(tokenizer)

    def serialize_rows(self, table: Table, n_rows: int) -> TokenArray:
        """Serialize the first ``n_rows`` rows without enforcing the budget."""
        ids = self._ids.ids
        out = TokenArrayBuilder()
        out.append_id(_CLS_ID, ROLE_SPECIAL)
        if self.include_caption and table.caption:
            out.extend_ids(ids(table.caption), ROLE_CAPTION)
            out.append_id(_SEP_ID, ROLE_SPECIAL)
        if self.include_header:
            for c, name in enumerate(table.header):
                out.extend_ids(ids(name), ROLE_HEADER, col=c)
                out.append_id(_HEADER_ID, ROLE_SPECIAL, col=c)
            out.append_id(_SEP_ID, ROLE_SPECIAL)
        n_columns = table.num_columns
        for r in range(min(n_rows, table.num_rows)):
            out.append_id(_ROW_ID, ROLE_SPECIAL, row=r)
            for c in range(n_columns):
                value = table.cell(r, c)
                out.extend_ids(
                    ids("" if value is None else str(value)), ROLE_VALUE, row=r, col=c
                )
                if c < n_columns - 1:
                    out.append_id(_CELL_ID, ROLE_SPECIAL, row=r, col=c)
            out.append_id(_SEP_ID, ROLE_SPECIAL, row=r)
        return out.build()

    def fit_rows(self, table: Table) -> int:
        """Maximum number of rows that fits the budget (binary search).

        Mirrors the paper's protocol: all columns are always kept; at least
        one row is attempted even if it overflows (the sequence is then
        truncated hard by :meth:`serialize`).
        """
        lo, hi, best = 1, table.num_rows, 0
        while lo <= hi:
            mid = (lo + hi) // 2
            if len(self.serialize_rows(table, mid)) <= self.max_tokens:
                best = mid
                lo = mid + 1
            else:
                hi = mid - 1
        return best

    def serialize(self, table: Table, n_rows: Optional[int] = None) -> TokenArray:
        """Serialize within budget; returns at most ``max_tokens`` tokens."""
        if table.num_rows == 0:
            return self.serialize_rows(table, 0)[: self.max_tokens]
        if n_rows is None:
            n_rows = self.fit_rows(table)
        if n_rows == 0:
            # Even a single row overflows: keep one row, truncate hard.
            return self.serialize_rows(table, 1)[: self.max_tokens]
        return self.serialize_rows(table, n_rows)


class ColumnWiseSerializer:
    """Column-by-column serialization with per-column [CLS] anchors (DODUO).

    Layout::

        [CLS]₀ v(0,0) v(1,0) … [SEP] [CLS]₁ v(0,1) … [SEP] …

    DODUO feeds *values only* — headers are ignored, which is why its
    embeddings show exactly zero variance under schema perturbations (P7).
    ``include_header`` exists for ablations.
    """

    def __init__(
        self,
        tokenizer: Tokenizer,
        max_tokens: int = 512,
        *,
        include_header: bool = False,
    ):
        self.tokenizer = tokenizer
        self.max_tokens = max_tokens
        self.include_header = include_header
        self._ids = _PieceIds(tokenizer)

    def serialize_rows(self, table: Table, n_rows: int) -> TokenArray:
        ids = self._ids.ids
        out = TokenArrayBuilder()
        for c in range(table.num_columns):
            out.append_id(_CLS_ID, ROLE_SPECIAL, col=c)
            if self.include_header:
                out.extend_ids(ids(table.header[c]), ROLE_HEADER, col=c)
                out.append_id(_HEADER_ID, ROLE_SPECIAL, col=c)
            for r in range(min(n_rows, table.num_rows)):
                value = table.cell(r, c)
                out.extend_ids(
                    ids("" if value is None else str(value)), ROLE_VALUE, row=r, col=c
                )
            out.append_id(_SEP_ID, ROLE_SPECIAL, col=c)
        return out.build()

    def fit_rows(self, table: Table) -> int:
        lo, hi, best = 1, table.num_rows, 0
        while lo <= hi:
            mid = (lo + hi) // 2
            if len(self.serialize_rows(table, mid)) <= self.max_tokens:
                best = mid
                lo = mid + 1
            else:
                hi = mid - 1
        return best

    def serialize(self, table: Table, n_rows: Optional[int] = None) -> TokenArray:
        if table.num_rows == 0:
            return self.serialize_rows(table, 0)[: self.max_tokens]
        if n_rows is None:
            n_rows = self.fit_rows(table)
        if n_rows == 0:
            return self.serialize_rows(table, 1)[: self.max_tokens]
        return self.serialize_rows(table, n_rows)


class RowTemplateSerializer:
    """Per-row natural-language templates (TapTap).

    Each row becomes its own independent sequence: ``name is Alice [CELL]
    age is 30 …``.  Rows never see each other, which is why TapTap only
    yields row embeddings and is excluded from the order-sensitivity
    properties.
    """

    def __init__(self, tokenizer: Tokenizer, max_tokens: int = 512):
        self.tokenizer = tokenizer
        self.max_tokens = max_tokens
        self._ids = _PieceIds(tokenizer)

    def serialize_row(self, table: Table, row: int) -> TokenArray:
        if not 0 <= row < table.num_rows:
            raise SerializationError(f"row {row} out of range")
        ids = self._ids.ids
        out = TokenArrayBuilder()
        out.append_id(_CLS_ID, ROLE_SPECIAL, row=row)
        for c, name in enumerate(table.header):
            out.extend_ids(ids(name), ROLE_HEADER, row=row, col=c)
            out.append_id(_IS_ID, ROLE_SPECIAL, row=row, col=c)
            value = table.cell(row, c)
            out.extend_ids(
                ids("" if value is None else str(value)), ROLE_VALUE, row=row, col=c
            )
            out.append_id(_CELL_ID, ROLE_SPECIAL, row=row, col=c)
        return out.build()[: self.max_tokens]

    def serialize(self, table: Table) -> List[TokenArray]:
        """One token sequence per row."""
        return [self.serialize_row(table, r) for r in range(table.num_rows)]
