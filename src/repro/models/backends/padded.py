"""Padded batching with length-bucketed tolerance tiers.

Same-length grouping (:class:`LocalBackend`) forfeits most batches on
heterogeneous corpora: when every sequence has a different length, every
"batch" is a single sequence.  :class:`PaddedBackend` recovers the
throughput by padding sequences to a common length inside *tolerance
tiers* — length buckets of width ``tier_width`` — and masking the padding
out of attention, so a batch mixes nearby lengths while each sequence
wastes strictly fewer than ``tier_width`` padded positions.

Numerics: padding keys are additively masked to -1e9 before the softmax,
which underflows to exactly 0.0 attention weight in float64, and padded
rows never feed back into real rows — the masking is *algebraically*
exact.  Outputs still differ from the unpadded forward in the last few
ulps because BLAS kernel selection and numpy's pairwise-summation tree
depend on matrix shape (typically ~1e-15 relative per element; the
guaranteed bound backends and tests enforce is :data:`PADDED_TOLERANCE`).
Opt in via ``RuntimeConfig(exact=False)`` when that trade is acceptable;
every Observatory measure is a statistic over cosine/Euclidean structure
and is insensitive at these magnitudes.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import List

import numpy as np

from repro.models.backends.local import LocalBackend
from repro.models.token_array import TokenSequence
from repro.telemetry import Counters

# Guaranteed per-element bound, relative to the output's magnitude, between
# this backend and the single-sequence forward.  Observed differences are
# ~1e-15; the bound leaves ~5 orders of headroom for accumulation across
# layers and hostile inputs and is locked in by tests/test_backends.py.
PADDED_TOLERANCE = 1e-9

# Default tier width (tokens).  Within one tier, padding waste per
# sequence is < tier_width positions; across tiers no padding is shared.
DEFAULT_TIER_WIDTH = 8


@dataclasses.dataclass
class PaddingStats(Counters):
    """Waste accounting of a padded backend (cumulative, thread-safe)."""

    derived = ("waste_ratio",)

    sequences: int = 0
    padded_batches: int = 0
    real_tokens: int = 0
    padded_tokens: int = 0

    @property
    def waste_ratio(self) -> float:
        """Padded positions as a fraction of all encoded positions."""
        total = self.real_tokens + self.padded_tokens
        return self.padded_tokens / total if total else 0.0


class PaddedBackend(LocalBackend):
    """Length-bucketed padded batching; tolerance documented above.

    The grouping loop is :class:`LocalBackend`'s; only the grouping key
    (a tier of ``tier_width`` lengths) and the chunk forward differ.
    """

    name = "padded"
    exact = False
    counters_kind = "padding"
    tolerance = PADDED_TOLERANCE

    def __init__(self, *, tier_width: int = DEFAULT_TIER_WIDTH):
        if tier_width < 1:
            raise ValueError("tier_width must be positive")
        self.tier_width = tier_width
        self.stats = PaddingStats()
        self._stats_lock = threading.Lock()

    def describe(self) -> str:
        return f"{self.name} (tier_width={self.tier_width}, tol={self.tolerance:g})"

    def stats_snapshot(self) -> PaddingStats:
        """Consistent copy of the cumulative waste counters."""
        with self._stats_lock:
            return self.stats.copy()

    def _tier(self, length: int) -> int:
        return (length - 1) // self.tier_width

    def _forward(self, encoder, token_lists: List[TokenSequence]) -> List[np.ndarray]:
        # A same-length chunk needs no padding and forward_padded runs it
        # unpadded (bit-identical to encode), so only mixed chunks count.
        lengths = [len(tokens) for tokens in token_lists]
        longest = max(lengths)
        if min(lengths) < longest:
            with self._stats_lock:
                self.stats.sequences += len(lengths)
                self.stats.padded_batches += 1
                self.stats.real_tokens += sum(lengths)
                self.stats.padded_tokens += sum(longest - n for n in lengths)
        return encoder.forward_padded(token_lists)


def max_relative_error(actual: np.ndarray, expected: np.ndarray) -> float:
    """Per-element error of ``actual`` relative to ``expected``'s magnitude.

    The tolerance contract of :class:`PaddedBackend`:
    ``max_relative_error(padded, exact) <= PADDED_TOLERANCE``.  Magnitude
    is the max absolute value of the exact output (floored at 1.0), so the
    bound is meaningful for both normalized and anisotropic output scales.
    """
    if actual.size == 0:
        return 0.0
    scale = max(1.0, float(np.abs(expected).max()))
    return float(np.abs(actual - expected).max()) / scale
