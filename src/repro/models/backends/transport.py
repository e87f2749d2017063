"""Typed transport configuration for the remote encoder fleet.

:class:`TransportConfig` is the *one* object that describes how encoder
chunks reach a fleet of remote encoding replicas: which replicas exist,
how long a request may take, how failures are retried, whether bodies are
gzip-compressed, and which floating-point tier states ride the wire in.
Keep-alive needs no setting: each replica's idle connections are the
ones its concurrent requests left behind.
``RuntimeConfig(transport=TransportConfig(...))`` is the one spelling.

The config is a frozen dataclass of primitives, so it pickles across
process boundaries unchanged.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Tuple
from urllib.parse import urlsplit

#: Content-encoding tiers the transport speaks.  ``"gzip"`` compresses
#: request and response bodies (and advertises ``Accept-Encoding: gzip``);
#: ``"none"`` ships identity bodies — the safe default for loopback links
#: where CPU is scarcer than bandwidth.
COMPRESSIONS = ("none", "gzip")

#: Floating-point tiers hidden states may ride the wire in.  ``"float64"``
#: is bit-exact; ``"float32"`` halves state bytes at the documented
#: :data:`~repro.models.backends.remote.FLOAT32_TOLERANCE`, an opt-in
#: tolerance tier.
STATE_DTYPES = ("float64", "float32")

DEFAULT_TIMEOUT = 10.0
DEFAULT_RETRIES = 3


def _validate_url(url: str) -> str:
    split = urlsplit(url)
    try:
        port = split.port  # raises on a non-integer or out-of-range port
    except ValueError:
        port = 0
    if split.scheme != "http" or not split.hostname or port == 0:
        raise ValueError(
            f"transport URL must be http://host[:port][/path] with a port "
            f"in 1-65535, got {url!r}"
        )
    return url


@dataclasses.dataclass(frozen=True)
class TransportConfig:
    """How encoder chunks reach the remote encoding fleet.

    Attributes:
        urls: one or more replica base URLs (``http://host:port``).  A
            single URL degrades gracefully to the single-service client;
            several make the backend a fleet client with latency-weighted
            routing and health tracking.  A plain string or any iterable
            of strings is accepted and normalized to a tuple.
        timeout: per-request deadline in seconds.
        retries: additional attempts after the first (0 = fail fast);
            retried chunks may be rerouted to a different replica.
        compression: ``"none"`` or ``"gzip"`` — content encoding for
            request *and* response bodies (opt-in; the service only
            compresses when the client advertises it).
        state_dtype: ``"float64"`` (bit-exact) or ``"float32"`` (half the
            state bytes, within the documented tolerance; choosing it is
            the whole opt-in).
    """

    urls: Tuple[str, ...]
    timeout: float = DEFAULT_TIMEOUT
    retries: int = DEFAULT_RETRIES
    compression: str = "none"
    state_dtype: str = "float64"

    def __post_init__(self):
        urls = self.urls
        if isinstance(urls, str):
            urls = (urls,)
        elif isinstance(urls, Iterable):
            urls = tuple(urls)
        else:
            raise ValueError(
                f"urls must be a URL string or an iterable of them, got {urls!r}"
            )
        if not urls:
            raise ValueError("transport needs at least one replica URL")
        for url in urls:
            if not isinstance(url, str):
                raise ValueError(f"replica URL must be a string, got {url!r}")
            _validate_url(url)
        if len(set(urls)) != len(urls):
            raise ValueError(f"duplicate replica URLs: {urls!r}")
        object.__setattr__(self, "urls", urls)
        if not self.timeout > 0:
            raise ValueError("transport timeout must be positive")
        if self.retries < 0:
            raise ValueError("transport retries must be >= 0")
        if self.compression not in COMPRESSIONS:
            raise ValueError(
                f"unknown compression {self.compression!r}; "
                f"expected one of {COMPRESSIONS}"
            )
        if self.state_dtype not in STATE_DTYPES:
            raise ValueError(
                f"unknown state_dtype {self.state_dtype!r}; "
                f"expected one of {STATE_DTYPES}"
            )

    def describe(self) -> str:
        """Short human rendering for backend descriptions and reports."""
        parts = [f"{len(self.urls)} replica" + ("s" if len(self.urls) != 1 else "")]
        if self.compression != "none":
            parts.append(self.compression)
        if self.state_dtype != "float64":
            parts.append(self.state_dtype)
        return ", ".join(parts)
