"""The float oracle of the token plane: per-token-object reference loops.

When the token plane went columnar (:mod:`repro.models.token_array`), the
promise was *bit-identity*: every embedding the vectorized gathers and
mask reductions produce must equal, to the last ulp, what the per-token
loops produced.  That promise is only checkable against an executable
oracle, so the per-token loops live here verbatim, operating on the
``List[Token]`` view (``TokenArray.tokens()``).  ``tests/test_token_array.py``
compares the production columnar path against these functions for every
serializer × model family × backend, on the same host, so the oracle
holds whatever BLAS core or ``exp`` loop produced the bits.  The token
layout the serializers emit is pinned separately, by golden token
digests (``tests/test_serializer_golden.py``).

Do not "optimize" this module: its entire value is staying byte-for-byte
faithful to the pre-columnar semantics.  Production code must never call
it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError
from repro.models.config import AttentionMask, OutputNorm, PositionKind
from repro.models.encoder import _layer_norm, _softmax
from repro.models.token_array import CONTENT_ANISOTROPY, INTERNER, Token, TokenRole
from repro.seeding import token_vector


# ----------------------------------------------------------------------
# Encoder input plane (legacy Encoder.embed_tokens / masks / bias)
# ----------------------------------------------------------------------


def embed_tokens_reference(encoder, tokens: List[Token]) -> np.ndarray:
    """Initial embeddings via the per-token loop (PR 3 semantics)."""
    cfg = encoder.config
    dim = cfg.dim
    x = np.empty((len(tokens), dim), dtype=np.float64)
    for i, tok in enumerate(tokens):
        vec = token_vector(tok.piece, dim) + CONTENT_ANISOTROPY * INTERNER.global_direction(dim)
        vec += 0.05 * encoder.weights.segment_vector(tok.role.value)
        if cfg.position_kind == PositionKind.ABSOLUTE and cfg.position_scale:
            vec += cfg.position_scale * encoder.weights.position_vector("abs", i)
        if cfg.position_kind == PositionKind.ROW_COLUMN:
            if tok.row >= 0 and cfg.row_position_scale:
                vec += cfg.row_position_scale * encoder.weights.position_vector(
                    "row", tok.row
                )
            if tok.col >= 0 and cfg.column_position_scale:
                vec += cfg.column_position_scale * encoder.weights.position_vector(
                    "col", tok.col
                )
        elif cfg.column_position_scale and tok.col >= 0:
            vec += cfg.column_position_scale * encoder.weights.position_vector(
                "col", tok.col
            )
        x[i] = vec
    return x


def attention_mask_reference(encoder, tokens: List[Token]) -> np.ndarray:
    """Visibility matrix via the per-token list comprehensions."""
    n = len(tokens)
    kind = encoder.config.attention_mask
    if kind == AttentionMask.FULL:
        return np.ones((n, n), dtype=bool)
    cols = np.array([t.col for t in tokens])
    rows = np.array([t.row for t in tokens])
    is_global = np.array(
        [t.role == TokenRole.SPECIAL and t.col < 0 and t.row < 0 for t in tokens]
    ) | np.array([t.role == TokenRole.CAPTION for t in tokens])
    if kind == AttentionMask.COLUMN_LOCAL:
        same = (cols[:, None] == cols[None, :]) & (cols[:, None] >= 0)
    else:  # ROW_LOCAL
        same = (rows[:, None] == rows[None, :]) & (rows[:, None] >= 0)
    mask = same | is_global[:, None] | is_global[None, :]
    np.fill_diagonal(mask, True)
    return mask


def attention_bias_reference(encoder, tokens: List[Token]) -> np.ndarray:
    """Additive score bias, recomputed per call (no length memo)."""
    n = len(tokens)
    if encoder.config.position_kind != PositionKind.RELATIVE:
        return np.zeros((n, n), dtype=np.float64)
    idx = np.arange(n, dtype=np.float64)
    distance = np.abs(idx[:, None] - idx[None, :])
    return -distance / encoder.config.relative_tau


def encode_reference(encoder, tokens: List[Token]) -> np.ndarray:
    """Single-sequence forward with reference embed/mask/bias.

    The layer loop is the same math the production encoder runs (that part
    was never per-token Python); only the input plane differs.
    """
    if not tokens:
        return np.zeros((0, encoder.config.dim), dtype=np.float64)
    cfg = encoder.config
    x = embed_tokens_reference(encoder, tokens)
    mask = attention_mask_reference(encoder, tokens)
    bias = attention_bias_reference(encoder, tokens)
    neg = np.where(mask, 0.0, -1e9)
    n_heads = cfg.n_heads
    head_dim = cfg.dim // n_heads
    scale = cfg.attention_temperature / np.sqrt(head_dim)

    for layer in encoder.weights.layers:
        h = _layer_norm(x)
        q = h @ layer.wq
        k = h @ layer.wk
        v = h @ layer.wv
        attn_out = np.empty_like(x)
        for head in range(n_heads):
            sl = slice(head * head_dim, (head + 1) * head_dim)
            scores = (q[:, sl] @ k[:, sl].T) * scale + bias + neg
            attn_out[:, sl] = _softmax(scores) @ v[:, sl]
        x = x + cfg.attention_gain * (attn_out @ layer.wo)
        h = _layer_norm(x)
        x = x + np.maximum(h @ layer.w1, 0.0) @ layer.w2

    if cfg.output_norm == OutputNorm.LAYER:
        x = _layer_norm(x)
    if cfg.output_scale != 1.0:
        x = x * cfg.output_scale
    if cfg.anisotropy:
        coeff = cfg.anisotropy_shift + x @ encoder.weights.anisotropy_probe
        x = x + cfg.anisotropy * np.outer(coeff, encoder.weights.anisotropy_direction)
    return x


# ----------------------------------------------------------------------
# Aggregation plane (legacy repro.models.aggregate loops)
# ----------------------------------------------------------------------


def _weighted_mean(states: np.ndarray, weights: np.ndarray) -> Optional[np.ndarray]:
    total = weights.sum()
    if total <= 0:
        return None
    return (states * weights[:, None]).sum(axis=0) / total


def column_embeddings_reference(
    tokens: List[Token],
    states: np.ndarray,
    n_columns: int,
    *,
    header_weight: float = 1.0,
    use_cls_anchor: bool = False,
) -> np.ndarray:
    """Column pooling via the per-token loop and dense weight matrix."""
    dim = states.shape[1] if states.size else 0
    out = np.zeros((n_columns, dim), dtype=np.float64)
    if use_cls_anchor:
        for i, tok in enumerate(tokens):
            if tok.is_anchor and 0 <= tok.col < n_columns:
                out[tok.col] = states[i]
        return out
    weights = np.zeros((n_columns, len(tokens)))
    for i, tok in enumerate(tokens):
        if not 0 <= tok.col < n_columns:
            continue
        if tok.role == TokenRole.VALUE:
            weights[tok.col, i] = 1.0
        elif tok.role == TokenRole.HEADER:
            weights[tok.col, i] = header_weight
    for c in range(n_columns):
        pooled = _weighted_mean(states, weights[c])
        if pooled is not None:
            out[c] = pooled
    return out


def row_embeddings_reference(
    tokens: List[Token], states: np.ndarray, n_rows: int
) -> np.ndarray:
    """Row pooling via per-row ``np.fromiter`` token scans."""
    dim = states.shape[1] if states.size else 0
    out = np.zeros((n_rows, dim), dtype=np.float64)
    for r in range(n_rows):
        weights = np.fromiter(
            (
                1.0 if (tok.row == r and tok.role == TokenRole.VALUE) else 0.0
                for tok in tokens
            ),
            dtype=np.float64,
            count=len(tokens),
        )
        pooled = _weighted_mean(states, weights)
        if pooled is not None:
            out[r] = pooled
    return out


def embedded_row_count_reference(tokens: List[Token]) -> int:
    return len(
        {tok.row for tok in tokens if tok.row >= 0 and tok.role == TokenRole.VALUE}
    )


def table_embedding_reference(
    tokens: List[Token], states: np.ndarray, *, header_weight: float = 1.0
) -> np.ndarray:
    weights = np.zeros(len(tokens))
    for i, tok in enumerate(tokens):
        if tok.role == TokenRole.VALUE or tok.role == TokenRole.CAPTION:
            weights[i] = 1.0
        elif tok.role == TokenRole.HEADER:
            weights[i] = header_weight
    pooled = _weighted_mean(states, weights)
    if pooled is None:
        raise ModelError("cannot pool a table embedding from an empty sequence")
    return pooled


def cell_embedding_reference(
    tokens: List[Token], states: np.ndarray, row: int, col: int
) -> Optional[np.ndarray]:
    weights = np.fromiter(
        (
            1.0
            if (tok.row == row and tok.col == col and tok.role == TokenRole.VALUE)
            else 0.0
            for tok in tokens
        ),
        dtype=np.float64,
        count=len(tokens),
    )
    return _weighted_mean(states, weights)


def cell_embeddings_reference(
    tokens: List[Token],
    states: np.ndarray,
    coords: Sequence[Tuple[int, int]],
) -> Dict[Tuple[int, int], np.ndarray]:
    index: Dict[Tuple[int, int], List[int]] = {}
    wanted = set(coords)
    for i, tok in enumerate(tokens):
        if tok.role == TokenRole.VALUE and (tok.row, tok.col) in wanted:
            index.setdefault((tok.row, tok.col), []).append(i)
    out: Dict[Tuple[int, int], np.ndarray] = {}
    for coord, token_ids in index.items():
        out[coord] = states[token_ids].mean(axis=0)
    return out


def entity_embedding_reference(
    tokens: List[Token],
    states: np.ndarray,
    row: int,
    col: int,
    *,
    metadata_weight: float = 0.5,
) -> Optional[np.ndarray]:
    weights = np.zeros(len(tokens))
    for i, tok in enumerate(tokens):
        if tok.row == row and tok.col == col and tok.role == TokenRole.VALUE:
            weights[i] = 1.0
        elif tok.col == col and tok.role == TokenRole.HEADER:
            weights[i] = metadata_weight
    return _weighted_mean(states, weights)
