"""Exact same-length batching — the default backend.

Sequences are grouped by exact token length and stacked into [B, L, D]
tensors, so every output is bit-identical to encoding the sequence alone
(attention, layer norm, and the FFN are independent per sequence, and no
padding ever enters a matmul).  Heterogeneous-length corpora degenerate
to batch-size-1 groups; sequences past :data:`BATCH_MAX_LENGTH` are
encoded alone.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.models.backends.base import BATCH_MAX_LENGTH, EncoderBackend
from repro.models.token_array import TokenArray


class LocalBackend(EncoderBackend):
    """Same-length grouping: exact, in-process, the bit-identity baseline."""

    name = "local"
    exact = True
    # Longer sequences are encoded alone: the cutoff affects speed only,
    # never outputs (see BATCH_MAX_LENGTH).
    max_batch_length = BATCH_MAX_LENGTH

    def encode_batch(
        self, encoder, token_lists: Sequence[TokenArray], batch_size: int = 8
    ) -> List[np.ndarray]:
        results: List[Optional[np.ndarray]] = [None] * len(token_lists)
        by_length: Dict[int, List[int]] = {}
        for i, tokens in enumerate(token_lists):
            if not tokens:
                results[i] = np.zeros((0, encoder.config.dim), dtype=np.float64)
            elif len(tokens) > self.max_batch_length:
                results[i] = encoder.encode(tokens)
            else:
                by_length.setdefault(len(tokens), []).append(i)
        step = max(1, batch_size)
        for indices in by_length.values():
            for start in range(0, len(indices), step):
                chunk = indices[start : start + step]
                if len(chunk) == 1:
                    results[chunk[0]] = encoder.encode(token_lists[chunk[0]])
                    continue
                states = encoder.forward_batch([token_lists[i] for i in chunk])
                for i, arr in zip(chunk, states):
                    results[i] = arr
        return results
