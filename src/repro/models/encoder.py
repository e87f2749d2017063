"""Numpy transformer encoder for surrogate models.

A small pre-norm transformer (multi-head self-attention + FFN with residual
connections) whose every parameter is generated deterministically from the
model's seed name.  Token *content* vectors are shared across all models
(``repro.seeding.token_vector``), so different surrogates are different
transforms of a common lexical space — the property that makes cross-model
comparisons such as entity stability (P6) meaningful.

The encoder realizes the configuration axes of :class:`ModelConfig`:
positional schemes (absolute indices, TAPAS-style row/column ids, T5-style
relative-distance attention bias, or none), attention masks (full, TaBERT's
vertical column-local, TapTap's row-local), output normalization, and the
anisotropic output amplification that reproduces T5's stretched embedding
geometry.

There is one forward: :meth:`Encoder._transform` runs the layer loop and
the output head, looping over heads in Python with ``...`` indexing, so
the same code serves one sequence ([L, D]) and a stack ([B, L, D]).
:meth:`Encoder.encode` calls it on one sequence; :meth:`Encoder.forward_batch`
stacks sequences of one length, and each of its outputs is bit-identical
to encoding that sequence alone.

Attention folds the mask and the relative-distance bias into one additive
per-sequence term (:meth:`Encoder._score_term`) and computes the weights
in :func:`_attend`.  The term is ``None`` when it is all zero (a FULL
mask without RELATIVE positions, 7 of the 9 zoo models), so nothing is
added; otherwise it is ``np.where(mask, bias, -1e9)``.  For a visible
entry that equals the unfolded ``s + bias + 0``; a masked entry becomes
``-1e9`` rather than ``bias - 1e9``, and both are exactly 0 after the
softmax because the diagonal is always visible.  The softmax runs in
place on the fresh ``q @ k.T`` product.

The encoder keeps no scratch state between calls: every scratch array is
allocated inside the call, because one :class:`Encoder` serves the sweep
workers, the encode loop's executor threads and the service runners at
once.  Importing this module pins numpy's OpenBLAS to one thread
(:mod:`repro.models.blas`), so its bits do not depend on the host's core
count.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.models.backends import resolve_backend
from repro.models.blas import pin_one_thread
from repro.models.config import AttentionMask, ModelConfig, OutputNorm, PositionKind
from repro.models.token_array import (
    INTERNER,
    ROLE_CAPTION,
    ROLE_ORDER,
    ROLE_SPECIAL,
    TokenArray,
)
from repro.models.weights import ModelWeights

_LN_EPS = 1e-6

# Before any thread of ours exists: every ``import repro…`` imports this
# module, so every process that encodes runs one BLAS thread.
pin_one_thread()


def _layer_norm(x: np.ndarray) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + _LN_EPS)


def _softmax(scores: np.ndarray) -> np.ndarray:
    """Out-of-place softmax: the reference plane's oracle (see :func:`_attend`)."""
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _attend(
    q: np.ndarray, k: np.ndarray, scale: float, term: Optional[np.ndarray]
) -> np.ndarray:
    """Attention weights ``softmax(q @ k^T * scale + term)`` over the last axis.

    ``q``/``k`` are one head of one sequence ([L, d]) or of a stack
    ([B, L, d]); ``term`` is the folded mask and bias
    (:meth:`Encoder._score_term`), ``None`` when it is all zero.  The
    fresh ``q @ k^T`` product is this call's own scratch array, so
    scaling, the term, the max shift, exp and the normalization all run
    in place on it — the same values, op for op, as
    ``_softmax((q @ k.T) * scale + term)``.
    """
    scores = q @ np.swapaxes(k, -1, -2)
    scores *= scale
    if term is not None:
        scores += term
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


class Encoder:
    """Deterministic transformer encoder configured by a :class:`ModelConfig`."""

    def __init__(self, config: ModelConfig, backend=None):
        self.config = config
        self.weights = ModelWeights(config.seed_name, config.dim, config.n_layers)
        # The batching strategy is pluggable (repro.models.backends): the
        # encoder owns the transformer math, the backend owns grouping and
        # (a)sync scheduling.
        self.backend = resolve_backend(backend)
        # Segment vectors stacked in ROLE_ORDER so role_ids gather them.
        self._segment_matrix = self.weights.segment_matrix(
            tuple(role.value for role in ROLE_ORDER)
        )

    # ------------------------------------------------------------------
    # Input embedding
    # ------------------------------------------------------------------

    def embed_tokens(self, tokens: TokenArray) -> np.ndarray:
        """Initial embeddings: content + segment + positional terms.

        A fused gather over the columnar plane: content vectors by
        ``piece_ids``, segment vectors by ``role_ids``, positional terms
        from precomputed per-kind matrices — bit-identical to the legacy
        per-token loop (:func:`repro.models.reference_plane.embed_tokens_reference`),
        because every term gathers the exact same float64 vectors and adds
        them in the same order.
        """
        cfg = self.config
        n = len(tokens)
        x = INTERNER.content_matrix(cfg.dim)[tokens.piece_ids]
        x += 0.05 * self._segment_matrix[tokens.role_ids]
        if n and cfg.position_kind == PositionKind.ABSOLUTE and cfg.position_scale:
            x += cfg.position_scale * self.weights.position_matrix("abs", n)[:n]
        if cfg.position_kind == PositionKind.ROW_COLUMN:
            if cfg.row_position_scale:
                self._add_positions(x, "row", tokens.rows, cfg.row_position_scale)
            if cfg.column_position_scale:
                self._add_positions(x, "col", tokens.cols, cfg.column_position_scale)
        elif cfg.column_position_scale:
            # Mild column-identity signal for non-ROW_COLUMN schemes.
            self._add_positions(x, "col", tokens.cols, cfg.column_position_scale)
        return x

    def _add_positions(
        self, x: np.ndarray, kind: str, indices: np.ndarray, scale: float
    ) -> None:
        """Add ``scale * position(kind, index)`` where ``index >= 0``."""
        selected = np.nonzero(indices >= 0)[0]
        if not selected.size:
            return
        idx = indices[selected]
        matrix = self.weights.position_matrix(kind, int(idx.max()) + 1)
        x[selected] += scale * matrix[idx]

    # ------------------------------------------------------------------
    # Attention structure
    # ------------------------------------------------------------------

    def attention_mask(self, tokens: TokenArray) -> np.ndarray:
        """Boolean [L, L] visibility matrix according to the config."""
        n = len(tokens)
        kind = self.config.attention_mask
        if kind == AttentionMask.FULL:
            return np.ones((n, n), dtype=bool)
        cols, rows = tokens.cols, tokens.rows
        is_global = (
            (tokens.role_ids == ROLE_SPECIAL) & (cols < 0) & (rows < 0)
        ) | (tokens.role_ids == ROLE_CAPTION)
        if kind == AttentionMask.COLUMN_LOCAL:
            same = (cols[:, None] == cols[None, :]) & (cols[:, None] >= 0)
        else:  # ROW_LOCAL
            same = (rows[:, None] == rows[None, :]) & (rows[:, None] >= 0)
        mask = same | is_global[:, None] | is_global[None, :]
        np.fill_diagonal(mask, True)
        return mask

    def attention_bias(self, tokens: TokenArray) -> np.ndarray:
        """Additive [L, L] score bias (relative-distance decay for T5)."""
        n = len(tokens)
        if self.config.position_kind != PositionKind.RELATIVE:
            return np.zeros((n, n), dtype=np.float64)
        idx = np.arange(n, dtype=np.float64)
        distance = np.abs(idx[:, None] - idx[None, :])
        return -distance / self.config.relative_tau

    def _score_term(self, tokens: TokenArray) -> Optional[np.ndarray]:
        """The per-sequence [L, L] score term: mask and bias folded into one.

        ``None`` when both are zero (a FULL mask without RELATIVE
        positions), ``np.where(mask, bias, -1e9)`` otherwise; see the
        module docstring for why the fold changes no output bit.
        """
        cfg = self.config
        relative = cfg.position_kind == PositionKind.RELATIVE
        if cfg.attention_mask == AttentionMask.FULL:
            return self.attention_bias(tokens) if relative else None
        bias = self.attention_bias(tokens) if relative else 0.0
        return np.where(self.attention_mask(tokens), bias, -1e9)

    # ------------------------------------------------------------------
    # Forward pass
    # ------------------------------------------------------------------

    def encode_batch(
        self, token_lists: Sequence[TokenArray], batch_size: int = 8
    ) -> List[np.ndarray]:
        """Encode many token sequences via the configured backend.

        The grouping strategy lives in ``self.backend``
        (:mod:`repro.models.backends`): :class:`LocalBackend` groups by
        exact length (bit-identical to :meth:`encode` per sequence), the
        remote backend ships the sequences to an encoding fleet.  Results
        are returned in input order either way.
        """
        return self.backend.encode_batch(self, token_lists, batch_size=batch_size)

    async def aencode_batch(
        self, token_lists: Sequence[TokenArray], batch_size: int = 8
    ) -> List[np.ndarray]:
        """Awaitable :meth:`encode_batch` (the streaming executor's hook)."""
        return await self.backend.aencode_batch(
            self, token_lists, batch_size=batch_size
        )

    def _transform(self, x: np.ndarray, term: Optional[np.ndarray]) -> np.ndarray:
        """Layer loop + output head: the one transform every forward runs.

        ``x`` is [L, D] or [B, L, D]; ``term`` is the folded score term
        ([L, L] or [B, L, L]) or ``None``.  Every matmul slice keeps the
        shapes of the single-sequence forward, so a same-length stack is
        bit-identical to encoding each sequence alone.
        """
        cfg = self.config
        n_heads = cfg.n_heads
        head_dim = cfg.dim // n_heads
        scale = cfg.attention_temperature / np.sqrt(head_dim)

        for layer in self.weights.layers:
            h = _layer_norm(x)
            q = h @ layer.wq
            k = h @ layer.wk
            v = h @ layer.wv
            attn_out = np.empty_like(x)
            for head in range(n_heads):
                sl = slice(head * head_dim, (head + 1) * head_dim)
                attn_out[..., sl] = _attend(q[..., sl], k[..., sl], scale, term) @ v[..., sl]
            x = x + cfg.attention_gain * (attn_out @ layer.wo)
            h = _layer_norm(x)
            x = x + np.maximum(h @ layer.w1, 0.0) @ layer.w2

        if cfg.output_norm == OutputNorm.LAYER:
            # Final layer norm leaves token norms at sqrt(dim), the same
            # scale real transformer hidden states carry — absolute
            # distance measures (P4's translation variance) depend on it.
            x = _layer_norm(x)
        if cfg.output_scale != 1.0:
            x = x * cfg.output_scale
        if cfg.anisotropy:
            coeff = cfg.anisotropy_shift + x @ self.weights.anisotropy_probe
            x = x + cfg.anisotropy * (
                coeff[..., None] * self.weights.anisotropy_direction
            )
        return x

    def encode(self, tokens: TokenArray) -> np.ndarray:
        """Final token embeddings, shape [len(tokens), dim]."""
        if not len(tokens):
            return np.zeros((0, self.config.dim), dtype=np.float64)
        return self._transform(self.embed_tokens(tokens), self._score_term(tokens))

    def forward_batch(self, token_lists: Sequence[TokenArray]) -> List[np.ndarray]:
        """Stacked forward over sequences of one length ([B, L, D]).

        Each sequence brings its own folded score term (all ``None`` when
        the config has none), so every output is bit-identical to
        :meth:`encode` on that sequence.  Sequences of different lengths
        do not stack: ``np.stack`` raises ``ValueError``.
        """
        x = np.stack([self.embed_tokens(tokens) for tokens in token_lists])
        terms = [self._score_term(tokens) for tokens in token_lists]
        term = None if terms[0] is None else np.stack(terms)
        return list(self._transform(x, term))

    # perfbench/tracer.py hooks Encoder.forward_padded by name; the
    # program itself calls forward_batch only.
    forward_padded = forward_batch
