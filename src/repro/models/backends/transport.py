"""Typed transport configuration for the remote encoder fleet.

:class:`TransportConfig` is the *one* object that describes how encoder
chunks reach a fleet of remote encoding replicas: which replicas exist,
how long a request may take, how failures are retried, whether bodies are
gzip-compressed, which floating-point tier states ride the wire in, when
a speculative hedge fires against a straggler, and how many keep-alive
connections each replica may hold.

It replaces the flat ``remote_url``/``remote_timeout``/``remote_retries``
kwargs that :class:`~repro.runtime.planner.RuntimeConfig` grew in the
first remote-backend iteration — six more ``remote_*`` knobs would have
made that dataclass a junk drawer, and the fleet options only make sense
*together* (a hedge delay without multiple replicas is dead config; a
pool size without keep-alive is meaningless).  The flat kwargs are gone;
``RuntimeConfig(transport=TransportConfig(...))`` is the one spelling.

The config is a frozen dataclass of primitives, so it pickles across
process-shard boundaries unchanged, and :meth:`to_jsonable` /
:meth:`from_jsonable` give it the same canonical JSON form the other
wire-crossing configs (:class:`~repro.models.config.ModelConfig`) use —
process-shard payloads and service manifests can carry it without
depending on pickle.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Optional, Tuple, Union
from urllib.parse import urlsplit

#: Content-encoding tiers the transport speaks.  ``"gzip"`` compresses
#: request and response bodies (and advertises ``Accept-Encoding: gzip``);
#: ``"none"`` ships identity bodies — the safe default for loopback links
#: where CPU is scarcer than bandwidth.
COMPRESSIONS = ("none", "gzip")

#: Floating-point tiers hidden states may ride the wire in.  ``"float64"``
#: is bit-exact; ``"float32"`` halves state bytes at the documented
#: :data:`~repro.models.backends.remote.FLOAT32_TOLERANCE` — the same
#: opt-in tolerance-tier contract the padded backend established.
STATE_DTYPES = ("float64", "float32")

DEFAULT_TIMEOUT = 10.0
DEFAULT_RETRIES = 3
DEFAULT_POOL_SIZE = 4


def _validate_url(url: str) -> str:
    split = urlsplit(url)
    if split.scheme != "http" or not split.hostname:
        raise ValueError(
            f"transport URL must be http://host[:port][/path], got {url!r}"
        )
    return url


@dataclasses.dataclass(frozen=True)
class TransportConfig:
    """How encoder chunks reach the remote encoding fleet.

    Attributes:
        urls: one or more replica base URLs (``http://host:port``).  A
            single URL degrades gracefully to the single-service client;
            several make the backend a fleet client with weighted routing,
            health tracking, and (optionally) hedged requests.  A plain
            string or any iterable of strings is accepted and normalized
            to a tuple.
        timeout: per-request deadline in seconds.
        retries: additional attempts after the first (0 = fail fast);
            retried chunks may be rerouted to a different replica.
        compression: ``"none"`` or ``"gzip"`` — content encoding for
            request *and* response bodies (opt-in; the service only
            compresses when the client advertises it).
        state_dtype: ``"float64"`` (bit-exact) or ``"float32"`` (half the
            state bytes, within the documented tolerance; requires
            ``RuntimeConfig(exact=False)`` — exactness is a promise).
        hedge_after: latency percentile in ``(0, 1)`` after which a
            straggling chunk is speculatively re-sent to another replica
            (e.g. ``0.95`` hedges requests slower than the observed p95
            round trip).  ``None`` disables hedging.  Needs at least two
            replicas and a few measured round trips to engage.
        pool_size: maximum keep-alive connections held per replica.
    """

    urls: Tuple[str, ...]
    timeout: float = DEFAULT_TIMEOUT
    retries: int = DEFAULT_RETRIES
    compression: str = "none"
    state_dtype: str = "float64"
    hedge_after: Optional[float] = None
    pool_size: int = DEFAULT_POOL_SIZE

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
        if self.hedge_after is not None and not 0.0 < self.hedge_after < 1.0:
            raise ValueError(
                "hedge_after is a latency percentile in (0, 1), "
                f"got {self.hedge_after!r}"
            )
        if self.pool_size < 1:
            raise ValueError("pool_size must be positive")

    # -- canonical JSON form (process-shard / manifest shipping) -------

    def to_jsonable(self) -> Dict[str, object]:
        """Plain-JSON dict; :meth:`from_jsonable` round-trips it exactly."""
        out = dataclasses.asdict(self)
        out["urls"] = list(self.urls)
        return out

    @classmethod
    def from_jsonable(cls, payload: Union[Dict[str, object], "TransportConfig"]) -> "TransportConfig":
        """Rebuild (and re-validate) a config from :meth:`to_jsonable` output."""
        if isinstance(payload, cls):
            return payload
        if not isinstance(payload, dict):
            raise ValueError(
                f"transport payload must be a dict, got {type(payload).__name__}"
            )
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown transport config keys: {sorted(unknown)}")
        if "urls" not in payload:
            raise ValueError("transport payload is missing 'urls'")
        kwargs = dict(payload)
        urls = kwargs.pop("urls")
        if not isinstance(urls, (list, tuple)) and not isinstance(urls, str):
            raise ValueError(f"transport 'urls' must be a list, got {urls!r}")
        return cls(urls=tuple(urls) if not isinstance(urls, str) else (urls,), **kwargs)

    def describe(self) -> str:
        """Short human rendering for backend descriptions and reports."""
        parts = [f"{len(self.urls)} replica" + ("s" if len(self.urls) != 1 else "")]
        if self.compression != "none":
            parts.append(self.compression)
        if self.state_dtype != "float64":
            parts.append(self.state_dtype)
        if self.hedge_after is not None:
            parts.append(f"hedge@p{round(self.hedge_after * 100)}")
        return ", ".join(parts)
