"""Runtime counters and thread-local phase timing for characterization cells.

:class:`Counters` is the one model of the runtime's additive counters (the
embedding cache, the async encode pipeline, remote transport).  Each kind
is a plain dataclass of numeric fields; merging across sweep workers,
diffing against a before-snapshot, copying and serializing all work from
those fields, so a new counter is one field declaration and a new kind is
one subclass.

A sweep cell's wall time splits into three phases: *serialize* (tables →
token sequences, pure Python), *encode* (transformer forward passes,
BLAS), and *aggregate* (token states → level embeddings, numpy).  The
model layer brackets those phases with :func:`span`; the sweep engines
call :func:`start_cell` before running a cell and read the accumulated
:class:`CellTimings` after, attributing every span on that thread (plus
any background encode work explicitly credited via ``timings=``) to the
cell.  That is what makes the known heterogeneous_context ~3x skew — and
any future hot cell — visible in ``render_sweep`` instead of folklore.

This module is deliberately dependency-free (stdlib only): it is imported
by both the model layer and the runtime, below either in the layering.
When no cell is active, spans are no-ops.
"""

from __future__ import annotations

import contextlib
import dataclasses
import operator
import threading
import time
from typing import ClassVar, Dict, Iterable, Iterator, Optional, Tuple, TypeVar

PHASES = ("serialize", "encode", "aggregate")

_tls = threading.local()

# One CellTimings can be credited from several threads at once: the
# owning cell's thread plus concurrent background encode batches it
# submitted.  add() is a read-modify-write, so it takes a (module-wide,
# uncontended) lock rather than losing updates under interleaving.
_add_lock = threading.Lock()


C = TypeVar("C", bound="Counters")


@dataclasses.dataclass
class Counters:
    """Base of the runtime's additive counter records.

    Subclasses declare fields only (no other instance attributes), and
    every field has a zero default.  Numeric fields add under
    :meth:`merged` and subtract under :meth:`since`; a
    ``Dict[str, Counters]`` field (per-replica counters, say) combines key
    by key, and an entry whose counters are all zero is dropped, so
    :meth:`since` keeps only the keys that moved.  ``derived`` names the
    read-only properties (ratios, means) :meth:`to_dict` adds after the
    fields.  There is deliberately no ``__bool__``: an all-zero record is
    still a record, and "did anything move" is spelled :meth:`empty`.
    """

    derived: ClassVar[Tuple[str, ...]] = ()

    @classmethod
    def merged(cls: type[C], parts: Iterable[C]) -> C:
        """Sum of several records (e.g. one per sweep worker process)."""
        total = cls()
        for part in parts:
            total = total._combine(part, operator.add)
        return total

    def since(self: C, baseline: C) -> C:
        """Counters accumulated after ``baseline`` was snapshotted.

        Sources keep cumulative totals; a sweep reports only its own work
        by snapshotting before it starts and diffing after.
        """
        return self._combine(baseline, operator.sub)

    def copy(self: C) -> C:
        """An independent copy; keyed entries are copied too."""
        return type(self).merged([self])

    def empty(self) -> bool:
        """True when every counter, keyed entries included, is zero."""
        return all(
            all(part.empty() for part in value.values()) if isinstance(value, dict) else not value
            for value in vars(self).values()
        )

    def to_dict(self) -> Dict[str, object]:
        """The fields (keyed ones as nested dicts), then the ``derived`` values."""
        out = {
            name: {key: part.to_dict() for key, part in sorted(value.items())}
            if isinstance(value, dict)
            else value
            for name, value in vars(self).items()
        }
        out.update((name, getattr(self, name)) for name in self.derived)
        return out

    def _combine(self: C, other: C, op) -> C:
        values: Dict[str, object] = {}
        for name, mine in vars(self).items():
            theirs = getattr(other, name)
            if not isinstance(mine, dict):
                values[name] = op(mine, theirs)
                continue
            values[name] = keyed = {}
            for key in {**mine, **theirs}:
                zero = type(mine.get(key, theirs.get(key)))()
                part = mine.get(key, zero)._combine(theirs.get(key, zero), op)
                if not part.empty():
                    keyed[key] = part
        return type(self)(**values)


@dataclasses.dataclass
class CellTimings:
    """Accumulated per-phase seconds for one characterization cell."""

    serialize_seconds: float = 0.0
    encode_seconds: float = 0.0
    aggregate_seconds: float = 0.0

    def add(self, phase: str, seconds: float) -> None:
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}; expected one of {PHASES}")
        field = f"{phase}_seconds"
        with _add_lock:
            setattr(self, field, getattr(self, field) + seconds)


def start_cell() -> CellTimings:
    """Begin attributing spans on this thread to a fresh timings record."""
    timings = CellTimings()
    _tls.current = timings
    return timings


def stop_cell() -> Optional[CellTimings]:
    """Detach and return this thread's timings record (None if absent)."""
    timings = getattr(_tls, "current", None)
    _tls.current = None
    return timings


def current() -> Optional[CellTimings]:
    """The timings record spans on this thread accumulate into, if any."""
    return getattr(_tls, "current", None)


def add(phase: str, seconds: float, timings: Optional[CellTimings] = None) -> None:
    """Credit ``seconds`` of ``phase`` to ``timings`` (default: this thread's).

    The explicit ``timings`` form is how background encode threads credit
    work to the *submitting* cell: the executor captures :func:`current`
    at submission time and passes it into the encode closure.
    """
    target = timings if timings is not None else current()
    if target is not None:
        target.add(phase, seconds)


@contextlib.contextmanager
def span(phase: str, timings: Optional[CellTimings] = None) -> Iterator[None]:
    """Time a block into ``phase``; no-op when no cell is active."""
    target = timings if timings is not None else current()
    if target is None:
        yield
        return
    started = time.perf_counter()
    try:
        yield
    finally:
        target.add(phase, time.perf_counter() - started)
