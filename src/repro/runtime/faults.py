"""Fault policy: one sweep deadline and the scheduler's crash budget.

:class:`FaultPolicy` carries the two failure settings a sweep takes
(``Observatory.sweep(fault_policy=...)``, ``repro sweep --deadline``,
the service's ``request_deadline``).  The other layers keep their own
patience: the remote transport's retry budget is
``TransportConfig.retries`` and its backoff envelope is
:class:`~repro.models.backends.remote.RemoteBackend`'s own, and the disk
tiers' lock patience is :class:`~repro.runtime.disk.DiskTier`'s.

:class:`Deadline` is the live countdown a sweep starts from
``FaultPolicy.deadline`` and hands down through ``set_deadline``, so the
*same* wall clock bounds scheduler dispatch, transport attempts and
backoff sleeps, and disk-lock waits.  Layers treat an expired deadline
according to their contract: the sweep loop and the transport raise
:class:`~repro.errors.DeadlineExceededError` (degradable to a
:class:`~repro.runtime.sweep.CellFailure` under ``on_error="degrade"``),
while the best-effort disk tier merely stops waiting on locks — a cache
must degrade to a miss, never to an error.

Deadlines cross process boundaries as absolute ``time.time`` epochs
(monotonic clocks are per-process): ``Deadline.epoch()`` ships on a
worker payload and ``Deadline.from_epoch`` rebuilds the countdown on the
other side, so a sweep's budget keeps counting down inside its workers.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Optional

from repro.errors import DeadlineExceededError


@dataclasses.dataclass(frozen=True)
class FaultPolicy:
    """How a sweep spends its failure budget.

    Attributes:
        deadline: wall-clock seconds the whole sweep may take; ``None``
            means unbounded.  The countdown starts when the sweep starts
            and propagates into scheduler dispatch, transport attempts,
            and disk-lock waits — one clock, not three.
        scheduler_retries: extra attempts a crashed work group gets
            before it is declared poisoned (the process engine's
            crash-salvage budget).
    """

    deadline: Optional[float] = None
    scheduler_retries: int = 2

    def __post_init__(self):
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive seconds or None")
        if self.scheduler_retries < 0:
            raise ValueError("scheduler_retries must be >= 0")

    def start_deadline(self) -> "Deadline":
        """A live countdown for one sweep (unbounded when no deadline)."""
        return Deadline.start(self.deadline)


class Deadline:
    """A started wall-clock budget that every layer can consult.

    ``None`` budget means "never expires": every method degenerates to a
    no-op, so call sites never special-case the unbounded sweep.  Within
    a process the countdown runs on the monotonic clock; ``epoch()`` /
    ``from_epoch`` translate to/from absolute ``time.time`` so the same
    budget can ship to spawned workers.
    """

    __slots__ = ("_expires_at", "_clock")

    def __init__(self, expires_at: Optional[float], *, clock=time.monotonic):
        self._expires_at = expires_at
        self._clock = clock

    @classmethod
    def start(cls, seconds: Optional[float], *, clock=time.monotonic) -> "Deadline":
        """Begin counting ``seconds`` down from now (``None`` = never)."""
        if seconds is None:
            return cls(None, clock=clock)
        return cls(clock() + seconds, clock=clock)

    @classmethod
    def from_epoch(cls, epoch: Optional[float]) -> "Deadline":
        """Rebuild a countdown from an absolute ``time.time`` deadline."""
        if epoch is None:
            return cls(None)
        return cls.start(epoch - time.time())

    def epoch(self) -> Optional[float]:
        """The deadline as an absolute ``time.time`` (for worker payloads)."""
        remaining = self.remaining()
        if remaining is None:
            return None
        return time.time() + remaining

    def remaining(self) -> Optional[float]:
        """Seconds left (clamped at 0.0); ``None`` when unbounded."""
        if self._expires_at is None:
            return None
        return max(0.0, self._expires_at - self._clock())

    def expired(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0.0

    def bound(self, timeout: float) -> float:
        """``timeout`` capped by the remaining budget (never negative)."""
        remaining = self.remaining()
        if remaining is None:
            return timeout
        return max(0.0, min(timeout, remaining))

    def check(self, what: str) -> None:
        """Raise :class:`DeadlineExceededError` if the budget is spent."""
        if self.expired():
            raise DeadlineExceededError(
                f"fault-policy deadline exceeded before {what}"
            )

    def __repr__(self) -> str:
        remaining = self.remaining()
        if remaining is None:
            return "Deadline(unbounded)"
        return f"Deadline(remaining={remaining:.3f}s)"

