"""Token-to-level aggregation.

Models natively expose token-level embeddings; Observatory needs column,
row, table, cell, and entity embeddings.  Following Section 4.3 of the
paper, higher levels are obtained by aggregating token embeddings using the
serialization provenance: value tokens know their (row, column), header
tokens their column, and per-column ``[CLS]`` anchors are used directly when
the model provides them (DODUO).

Every entry point takes the columnar
:class:`~repro.models.token_array.TokenArray` only; wrap a ``Token`` list
with ``TokenArray.from_tokens``.  The per-token Python loops of the object
era are gone — weight vectors come from vectorized boolean masks over the
provenance arrays — but each level's pooled result is still computed with
the *exact* expression the loops fed (``(states * weights[:, None]).sum(axis=0)
/ weights.sum()``), which keeps every output bit-identical to the per-token
oracle (:mod:`repro.models.reference_plane` locks this in).  No level ever
allocates a dense ``(n_levels, n_tokens)`` weight matrix: masks are built
one level at a time, so transient memory stays linear in sequence length.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError
from repro.models.token_array import (
    ROLE_CAPTION,
    ROLE_HEADER,
    ROLE_VALUE,
    TokenArray,
)

__all__ = [
    "column_embeddings",
    "row_embeddings",
    "embedded_row_count",
    "table_embedding",
    "cell_embedding",
    "cell_embeddings",
    "entity_embedding",
]


def _weighted_mean(states: np.ndarray, weights: np.ndarray) -> Optional[np.ndarray]:
    total = weights.sum()
    if total <= 0:
        return None
    return (states * weights[:, None]).sum(axis=0) / total


def column_embeddings(
    tokens: TokenArray,
    states: np.ndarray,
    n_columns: int,
    *,
    header_weight: float = 1.0,
    use_cls_anchor: bool = False,
) -> np.ndarray:
    """Column embeddings, shape [n_columns, dim].

    With ``use_cls_anchor`` the per-column ``[CLS]`` token is the column
    embedding (DODUO); otherwise value tokens (weight 1) and header tokens
    (weight ``header_weight``) of the column are mean-pooled.  Columns whose
    tokens were all truncated away fall back to the zero vector.
    """
    dim = states.shape[1] if states.size else 0
    out = np.zeros((n_columns, dim), dtype=np.float64)
    if use_cls_anchor:
        anchored = np.nonzero(tokens.is_anchor & (tokens.cols < n_columns))[0]
        # Fancy assignment keeps sequence order: a duplicate anchor for the
        # same column wins with its *last* occurrence, like the old loop.
        out[tokens.cols[anchored]] = states[anchored]
        return out
    cols = tokens.cols
    value = tokens.role_ids == ROLE_VALUE
    header = tokens.role_ids == ROLE_HEADER
    for c in range(n_columns):
        in_col = cols == c
        weights = np.where(
            in_col & value, 1.0, np.where(in_col & header, header_weight, 0.0)
        )
        pooled = _weighted_mean(states, weights)
        if pooled is not None:
            out[c] = pooled
    return out


def row_embeddings(
    tokens: TokenArray, states: np.ndarray, n_rows: int
) -> np.ndarray:
    """Row embeddings for the first ``n_rows`` serialized rows.

    Rows are mean-pooled over their value tokens.  Rows truncated away get
    the zero vector; callers that need the embedded-row count should use
    :func:`embedded_row_count`.
    """
    dim = states.shape[1] if states.size else 0
    out = np.zeros((n_rows, dim), dtype=np.float64)
    rows = tokens.rows
    value = tokens.role_ids == ROLE_VALUE
    for r in range(n_rows):
        weights = ((rows == r) & value).astype(np.float64)
        pooled = _weighted_mean(states, weights)
        if pooled is not None:
            out[r] = pooled
    return out


def embedded_row_count(tokens: TokenArray) -> int:
    """Number of distinct rows with at least one value token in the sequence."""
    selected = tokens.rows[(tokens.rows >= 0) & (tokens.role_ids == ROLE_VALUE)]
    return int(np.unique(selected).size)


def table_embedding(
    tokens: TokenArray, states: np.ndarray, *, header_weight: float = 1.0
) -> np.ndarray:
    """Table embedding: mean over value + weighted header + caption tokens."""
    role = tokens.role_ids
    weights = np.where(
        (role == ROLE_VALUE) | (role == ROLE_CAPTION),
        1.0,
        np.where(role == ROLE_HEADER, header_weight, 0.0),
    )
    pooled = _weighted_mean(states, weights)
    if pooled is None:
        raise ModelError("cannot pool a table embedding from an empty sequence")
    return pooled


def cell_embedding(
    tokens: TokenArray, states: np.ndarray, row: int, col: int
) -> Optional[np.ndarray]:
    """Mean of the value tokens of cell (row, col); None if truncated away."""
    weights = (
        (tokens.rows == row) & (tokens.cols == col) & (tokens.role_ids == ROLE_VALUE)
    ).astype(np.float64)
    return _weighted_mean(states, weights)


def cell_embeddings(
    tokens: TokenArray,
    states: np.ndarray,
    coords: Sequence[Tuple[int, int]],
) -> Dict[Tuple[int, int], np.ndarray]:
    """Cell embeddings for several coordinates in one pass.

    One vectorized grouping over the value tokens serves every requested
    coordinate — per-coordinate mask scans would be O(|coords| * tokens),
    a real regression for cell-heavy properties (P4 requests ~2 cells per
    row).  Group means use ascending token indices, matching the legacy
    one-pass dict index bit-for-bit.
    """
    wanted = set(coords)
    out: Dict[Tuple[int, int], np.ndarray] = {}
    if not wanted:
        return out
    value_idx = np.nonzero(tokens.role_ids == ROLE_VALUE)[0]
    if not value_idx.size:
        return out
    rows = tokens.rows[value_idx].astype(np.int64)
    cols = tokens.cols[value_idx].astype(np.int64)
    # Collapse (row, col) to one sortable key; +1 keeps -1 provenance and
    # the span covers both the tokens' and the requested columns.
    span = max(int(cols.max()), max(c for _, c in wanted), 0) + 2
    keys = (rows + 1) * span + (cols + 1)
    wanted_keys = np.fromiter(
        ((r + 1) * span + (c + 1) for r, c in wanted),
        dtype=np.int64,
        count=len(wanted),
    )
    selected = np.nonzero(np.isin(keys, wanted_keys))[0]
    if not selected.size:
        return out
    # Stable sort keeps token order ascending inside each cell's group.
    ordered = selected[np.argsort(keys[selected], kind="stable")]
    boundaries = np.nonzero(np.diff(keys[ordered]))[0] + 1
    for group in np.split(ordered, boundaries):
        first = group[0]
        coord = (int(rows[first]), int(cols[first]))
        out[coord] = states[value_idx[group]].mean(axis=0)
    return out


def entity_embedding(
    tokens: TokenArray,
    states: np.ndarray,
    row: int,
    col: int,
    *,
    metadata_weight: float = 0.5,
) -> Optional[np.ndarray]:
    """Entity embedding: the cell's value tokens plus its header as metadata.

    Entity mentions are cells; the linked column header acts as the
    associated metadata the paper describes (entity embeddings combine the
    mention with its context).
    """
    in_cell = (tokens.rows == row) & (tokens.cols == col) & (tokens.role_ids == ROLE_VALUE)
    in_header = (tokens.cols == col) & (tokens.role_ids == ROLE_HEADER)
    weights = np.where(in_cell, 1.0, np.where(in_header, metadata_weight, 0.0))
    return _weighted_mean(states, weights)
