"""Exact same-length batching — the default backend, and the one grouping loop.

Sequences are grouped by exact token length and stacked into [B, L, D]
tensors, so every output is bit-identical to encoding the sequence alone
(attention, layer norm, and the FFN are independent per sequence, and no
padding ever enters a matmul).  Heterogeneous-length corpora degenerate
to batch-size-1 groups — the throughput cost
:class:`~repro.models.backends.padded.PaddedBackend` exists to recover.
It reuses this loop and changes only the grouping key (:meth:`_tier`)
and the stacked forward (:meth:`_forward`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.models.backends.base import BATCH_MAX_LENGTH, EncoderBackend
from repro.models.token_array import TokenSequence


class LocalBackend(EncoderBackend):
    """Same-length grouping: exact, in-process, the bit-identity baseline."""

    name = "local"
    exact = True
    # Longer sequences are encoded alone: the cutoff affects speed only,
    # never outputs (see BATCH_MAX_LENGTH).
    max_batch_length = BATCH_MAX_LENGTH

    def _tier(self, length: int) -> int:
        """Grouping key: only sequences with one key share a batch."""
        return length

    def _forward(self, encoder, token_lists: List[TokenSequence]) -> List[np.ndarray]:
        """Encode one chunk (two or more sequences of one tier)."""
        return encoder.forward_batch(token_lists)

    def encode_batch(
        self, encoder, token_lists: Sequence[TokenSequence], batch_size: int = 8
    ) -> List[np.ndarray]:
        results: List[Optional[np.ndarray]] = [None] * len(token_lists)
        tiers: Dict[int, List[int]] = {}
        for i, tokens in enumerate(token_lists):
            if not tokens:
                results[i] = np.zeros((0, encoder.config.dim), dtype=np.float64)
            elif len(tokens) > self.max_batch_length:
                results[i] = encoder.encode(tokens)
            else:
                tiers.setdefault(self._tier(len(tokens)), []).append(i)
        step = max(1, batch_size)
        for indices in tiers.values():
            for start in range(0, len(indices), step):
                chunk = indices[start : start + step]
                if len(chunk) == 1:
                    results[chunk[0]] = encoder.encode(token_lists[chunk[0]])
                    continue
                states = self._forward(encoder, [token_lists[i] for i in chunk])
                for i, arr in zip(chunk, states):
                    results[i] = arr
        return results
