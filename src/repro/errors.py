"""Exception hierarchy for the Observatory reproduction.

All library errors derive from :class:`ObservatoryError` so callers can
catch framework failures with a single ``except`` clause while letting
programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ObservatoryError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ObservatoryError):
    """A table or column schema is malformed or inconsistent with its data."""


class TableError(ObservatoryError):
    """A table operation received invalid arguments (bad index, ragged rows)."""


class TokenizationError(ObservatoryError):
    """Text could not be tokenized (e.g. empty vocabulary)."""


class SerializationError(ObservatoryError):
    """A table could not be serialized within the model input limit."""


class ModelError(ObservatoryError):
    """An embedding model was misconfigured or misused."""


class RemoteEncodeError(ModelError):
    """The remote encoding service failed (deadline, 5xx, bad payload)."""


class UnsupportedLevelError(ModelError):
    """The model does not expose the requested level of embeddings."""

    def __init__(self, model_name: str, level: str):
        self.model_name = model_name
        self.level = level
        super().__init__(
            f"model {model_name!r} does not expose {level!r}-level embeddings"
        )


class MeasureError(ObservatoryError):
    """A measure received degenerate input (e.g. fewer than two samples)."""


class DatasetError(ObservatoryError):
    """A dataset generator or loader received invalid parameters."""


class ColumnIndexError(ObservatoryError):
    """The persistent column-embedding index was misused or misconfigured."""


class PropertyConfigError(ObservatoryError):
    """A property run was configured inconsistently."""


class SweepError(ObservatoryError):
    """A sweep could not execute (scheduling, worker, or budget failure)."""


class CellExecutionError(SweepError):
    """One (model, property) cell raised while characterizing.

    Raised under ``on_error="abort"`` by both sweep engines, with one
    message for one failing cell (``cell <model>/<property> failed:
    <ErrorClass>: <message>``, built by
    :meth:`~repro.runtime.sweep.CellFailure.abort_error`); under
    ``on_error="degrade"`` the same condition is recorded as a
    :class:`~repro.runtime.sweep.CellFailure` instead.  On the thread
    engine the original exception is chained as ``__cause__``.  A process
    worker cannot ship the live exception (it may not pickle), so there
    ``__cause__`` is ``None`` and the message alone names the original.
    """

    def __init__(self, model_name: str, property_name: str, message: str):
        self.model_name = model_name
        self.property_name = property_name
        super().__init__(f"cell {model_name}/{property_name} failed: {message}")


class CellPoisonedError(SweepError):
    """A cell (or its work group) crashed every worker that touched it."""


class WorkerCrashError(SweepError):
    """Sweep worker processes died faster than crash salvage could retry."""


class DeadlineExceededError(SweepError):
    """The sweep's :class:`~repro.runtime.faults.FaultPolicy` wall-clock
    deadline expired before the work completed."""


class ServiceError(ObservatoryError):
    """The characterization service was misconfigured or failed to bind, serve, or shut down."""


class ServiceOverloadedError(ServiceError):
    """The service's bounded admission queue is full.

    Maps to HTTP 429 on the wire; ``retry_after`` (seconds) rides along
    as the ``Retry-After`` header so clients back off an informed amount
    instead of guessing.
    """

    def __init__(self, message: str, *, retry_after: float = 1.0):
        self.retry_after = retry_after
        super().__init__(message)


class JournalError(ObservatoryError):
    """The write-ahead sweep journal is missing, corrupt, or misused."""


class RequestJournalError(JournalError):
    """The service's request journal is missing, corrupt, or misused."""


class StaleJournalError(JournalError):
    """A journal's plan fingerprint does not match the requested sweep.

    Resuming it would silently mix results computed under different
    models, corpora, sizes, seed, or backend numerics — refuse instead.
    """
