"""Pluggable encoder backends.

The batching strategy of every surrogate encoder is a swappable
:class:`EncoderBackend`:

- :class:`LocalBackend` (``"local"``) — exact same-length batching,
  bit-identical to single-sequence encoding.  The default, and the only
  in-process numerics mode.
- :class:`RemoteBackend` (``"remote"``) — ships TokenArray wire payloads
  over HTTP to a fleet of encoding replicas (one whole chunk per request,
  routed by per-replica latency, idle keep-alive connections shared by
  every call, retry/backoff with rerouting, quarantine of failing
  replicas, gzip and float32 wire tiers); bit-identical to local with
  float64 states, within :data:`FLOAT32_TOLERANCE` in the opt-in float32
  tier.  Configured by a typed :class:`TransportConfig`; opt in via
  ``RuntimeConfig(backend="remote", transport=TransportConfig(urls=...))``.

Backends also expose ``aencode_batch`` (awaitable encoding), the hook the
streaming executor drives; every backend, the remote one included, runs
its synchronous ``encode_batch`` on a worker thread there.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Union

from repro.errors import ModelError
from repro.models.backends.base import BATCH_MAX_LENGTH, EncoderBackend
from repro.models.backends.local import LocalBackend

_FACTORIES: Dict[str, Callable[[], EncoderBackend]] = {"local": LocalBackend}


def available_backends() -> List[str]:
    return sorted(_FACTORIES)


def register_backend(
    name: str, factory: Callable[[], EncoderBackend], *, overwrite: bool = False
) -> None:
    """Extension point for new strategies (remote, GPU, quantized...)."""
    if name in _FACTORIES and not overwrite:
        raise ModelError(f"backend {name!r} already registered")
    _FACTORIES[name] = factory


def resolve_backend(backend: Union[str, EncoderBackend, None]) -> EncoderBackend:
    """Accept a backend instance, a registered name, or None (= local)."""
    if backend is None:
        return LocalBackend()
    if isinstance(backend, EncoderBackend):
        return backend
    try:
        factory = _FACTORIES[backend]
    except KeyError:
        raise ModelError(
            f"unknown encoder backend {backend!r}; "
            f"available: {', '.join(available_backends())}"
        ) from None
    return factory()


# Imported after register_backend exists (remote.py must not import the
# package during its own import); registration goes through the public
# extension point like any third-party backend would.
from repro.models.backends.remote import (  # noqa: E402
    FLOAT32_TOLERANCE,
    REMOTE_URL_ENV,
    RemoteBackend,
    ReplicaStats,
    TransportStats,
    max_relative_error,
)
from repro.models.backends.transport import TransportConfig  # noqa: E402

register_backend("remote", RemoteBackend)

__all__ = [
    "BATCH_MAX_LENGTH",
    "EncoderBackend",
    "FLOAT32_TOLERANCE",
    "LocalBackend",
    "REMOTE_URL_ENV",
    "RemoteBackend",
    "ReplicaStats",
    "TransportConfig",
    "TransportStats",
    "available_backends",
    "max_relative_error",
    "register_backend",
    "resolve_backend",
]
