"""The async encode loop behind the streaming executor.

:class:`EncodeLoop` owns one background thread running an asyncio event
loop.  The :class:`~repro.runtime.planner.EmbeddingExecutor` submits
``EncoderBackend.aencode_batch`` coroutines to it and keeps working —
fingerprinting, serializing, cache-probing the *next* chunk — while the
submitted chunk's forward passes run.  Since the token plane went
columnar, each submitted chunk is a list of
:class:`~repro.models.token_array.TokenArray` — four NumPy arrays per
sequence, no per-token objects — so handing a chunk to the loop (and, for
a future remote backend, onto the wire) moves flat buffers, not object
graphs.  Because numpy's BLAS kernels
release the GIL, the overlap is real parallelism on multi-core hosts and
harmless interleaving on one core.  Synchronous callers never see the
loop: the executor's public surface blocks on the returned futures, so
every existing call site (property runners, both sweep engines, the
benchmarks) works unchanged — the asynchrony is an implementation detail
behind a synchronous facade.

:class:`PipelineStats` quantifies the win: ``encode_seconds`` is the
background busy time, ``wait_seconds`` how long the submitting thread
actually blocked on results; their gap is encode time hidden behind
useful foreground work (the ``overlap_ratio`` benchmarks and
``render_sweep`` report).
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading
from concurrent.futures import Future
from typing import Coroutine, Optional

from repro.errors import ObservatoryError
from repro.telemetry import Counters


@dataclasses.dataclass
class PipelineStats(Counters):
    """Cumulative async-encode accounting (picklable, lock kept outside)."""

    derived = ("overlap_ratio",)

    batches: int = 0
    sequences: int = 0
    encode_seconds: float = 0.0
    wait_seconds: float = 0.0

    @property
    def overlap_seconds(self) -> float:
        """Background encode time hidden behind foreground work."""
        return max(0.0, self.encode_seconds - self.wait_seconds)

    @property
    def overlap_ratio(self) -> float:
        """Fraction of encode time the caller did not block for."""
        return self.overlap_seconds / self.encode_seconds if self.encode_seconds else 0.0


class EncodeLoopClosedError(ObservatoryError, RuntimeError):
    """Submission refused: the encode loop was closed (or died wedged).

    Doubly derived: :class:`~repro.errors.ObservatoryError` so sweep
    failure paths stay typed (degrade mode records it as a named
    :class:`CellFailure`), ``RuntimeError`` for callers that predate the
    unified hierarchy.
    """


class EncodeLoopStuckError(ObservatoryError, RuntimeError):
    """The encode loop's thread failed to stop within the close timeout."""


class EncodeLoop:
    """A daemon thread running an asyncio loop for encode submissions.

    Lifecycle contract (remote-backend deadline semantics depend on it):
    :meth:`close` either confirms the loop thread exited or raises — it
    never returns silently with the thread still alive, which used to let
    a backend coroutine blocked on a dead socket wedge the loop while
    later ``submit`` calls kept enqueueing onto it.  Once ``close`` has
    been called (successfully or not), ``submit`` fails fast with
    :class:`EncodeLoopClosedError` instead of scheduling work that would
    never run.
    """

    def __init__(self):
        self._closed = False
        # Serializes the closed-flag check in submit() against close()
        # setting it: without this, a submit racing close could schedule
        # onto a loop that stops before the callback runs, handing the
        # caller a future that never completes.
        self._lifecycle_lock = threading.Lock()
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="repro-encode-loop", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    @property
    def closed(self) -> bool:
        return self._closed

    def is_alive(self) -> bool:
        return not self._closed and self._thread.is_alive()

    def submit(self, coro: Coroutine) -> Future:
        """Schedule a coroutine on the loop; returns a blocking future.

        Raises :class:`EncodeLoopClosedError` after :meth:`close` — a
        stopping loop would accept the coroutine and never run it, leaving
        the caller blocked on a future that cannot complete.  The check
        and the scheduling are atomic against :meth:`close`: a submission
        that wins the race is queued before the stop callback, one that
        loses it fails fast here.
        """
        with self._lifecycle_lock:
            if self._closed:
                coro.close()  # suppress the "never awaited" warning
                raise EncodeLoopClosedError(
                    "encode loop is closed; create a fresh loop via encode_loop()"
                )
            return asyncio.run_coroutine_threadsafe(coro, self._loop)

    def close(self, timeout: float = 2.0) -> None:
        """Stop the loop and join its thread; raise if the thread wedged.

        A loop thread that outlives ``timeout`` means some backend
        coroutine is blocked in non-cooperative code (a dead socket, a
        stuck syscall).  That is surfaced as
        :class:`EncodeLoopStuckError` — the daemon
        thread cannot hurt interpreter shutdown, but pretending the close
        succeeded would hide exactly the failures remote-backend deadline
        tests need to see.  The loop is marked closed first either way, so
        later submits fail fast; a submit that *won* the race has its
        still-pending task cancelled on the loop before the stop, so its
        future resolves with ``CancelledError`` — every racer gets a
        terminal outcome, never a forever-pending future.
        """
        with self._lifecycle_lock:
            self._closed = True

        async def _shutdown() -> None:
            # Runs on the loop thread: cancel whatever is still pending
            # and wait for the cancellations to be processed (so their
            # submit() futures resolve), then stop the loop.
            tasks = [
                task
                for task in asyncio.all_tasks()
                if task is not asyncio.current_task()
            ]
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            # One extra iteration: task completion hands results to
            # submit()'s concurrent futures via call_soon callbacks
            # (_chain_future); stopping in the same batch would strand
            # them and hang the submitter despite the task being done.
            await asyncio.sleep(0)
            self._loop.stop()

        if self._thread.is_alive():
            asyncio.run_coroutine_threadsafe(_shutdown(), self._loop)
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise EncodeLoopStuckError(
                f"encode loop thread failed to stop within {timeout:.1f}s — "
                "a backend coroutine is wedged (dead socket? missing "
                "deadline?); submissions are refused from now on"
            )


_loop_lock = threading.Lock()
_shared_loop: Optional[EncodeLoop] = None


def encode_loop() -> EncodeLoop:
    """The process-wide encode loop, created lazily (one daemon thread).

    Spawned sweep workers each get their own — nothing here survives a
    process boundary, which is exactly the isolation the process engine
    promises.
    """
    global _shared_loop
    with _loop_lock:
        if _shared_loop is None or not _shared_loop.is_alive():
            _shared_loop = EncodeLoop()
        return _shared_loop
