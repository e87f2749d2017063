"""The encoder-backend contract.

An :class:`EncoderBackend` owns the *batching strategy* of an
:class:`~repro.models.encoder.Encoder`: given many token sequences, each
a :class:`~repro.models.token_array.TokenArray` (the one token stream the
serializers emit), it decides how they are grouped and driven through
the encoder's one forward (``encode`` for one sequence,
``forward_batch`` for a stack of same-length ones).  The encoder keeps
the transformer math; the backend keeps the scheduling policy.  This is
the seam that lets the runtime swap exact same-length batching
(:class:`LocalBackend`) for a remote encoder fleet without touching
models, properties, or the planner.

Every backend also exposes :meth:`aencode_batch`, the awaitable variant
the streaming executor drives.  It offloads the synchronous
:meth:`encode_batch` to a worker thread: numpy's BLAS kernels release the
GIL, and the remote backend blocks on its sockets, so an awaiting caller
overlaps pure-Python work (fingerprinting, serialization, cache probes)
with the forward passes or the round trip.  No backend overrides it.
"""

from __future__ import annotations

import abc
import asyncio
from typing import List, Optional, Sequence

import numpy as np

from repro.models.token_array import TokenArray

# Above this token count the [B, L, L] attention temporaries of a stacked
# batch exceed CPU cache and batched encoding measures *slower* than
# sequence-at-a-time; backends fall back to singles past it.  48 was
# measured when stacked forwards carried the heads as a tensor axis; the
# forward now loops over heads, and the cutoff is unchanged (not yet
# re-measured).
BATCH_MAX_LENGTH = 48


class EncoderBackend(abc.ABC):
    """Batching strategy for an :class:`~repro.models.encoder.Encoder`.

    Attributes:
        name: registry name of the strategy (``"local"``, ``"remote"``).
        exact: whether outputs are bit-identical to encoding each sequence
            alone with :meth:`Encoder.encode`.  Non-exact backends must
            document a per-element ``tolerance`` bound instead.
        counters_kind: for a backend that keeps counters, the kind
            :meth:`~repro.core.framework.Observatory.counters` reports its
            ``stats_snapshot()`` under; ``None`` when it keeps none.
    """

    name: str = "abstract"
    exact: bool = True
    counters_kind: Optional[str] = None

    @property
    def cache_namespace(self):
        """Embedding-cache key-space suffix for this backend's results.

        ``None`` shares the model's plain namespace — correct only for
        exact, in-process backends, whose outputs are interchangeable
        bit-for-bit.  Non-exact backends default to their name so
        tolerance-tier results never cross into an exact run through a
        shared or persistent cache; backends whose results come from
        outside the process (remote) override this to isolate themselves
        even when exact.
        """
        return None if self.exact else self.name

    @abc.abstractmethod
    def encode_batch(
        self, encoder, token_lists: Sequence[TokenArray], batch_size: int = 8
    ) -> List[np.ndarray]:
        """Encode every sequence; results in input order.

        ``encoder`` is the owning :class:`~repro.models.encoder.Encoder`;
        backends call its ``encode`` and ``forward_batch`` rather than
        reimplementing the transformer.
        """

    async def aencode_batch(
        self, encoder, token_lists: Sequence[TokenArray], batch_size: int = 8
    ) -> List[np.ndarray]:
        """Awaitable :meth:`encode_batch`; default offloads to a thread.

        BLAS releases the GIL inside the forward passes (and socket waits
        release it in the remote backend), so awaiting this overlaps the
        event loop's other work with the encoder.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, lambda: self.encode_batch(encoder, token_lists, batch_size)
        )

    def describe(self) -> str:
        """One-line human rendering for reports and benchmarks."""
        mode = "exact" if self.exact else "tolerance"
        return f"{self.name} ({mode})"

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, exact={self.exact})"
