"""Loopback encoding service: a real backend behind the real wire format.

:class:`LoopbackEncoderService` is the integration-test double for
:class:`~repro.models.backends.remote.RemoteBackend`.  It is a genuine
HTTP server bound to a loopback port — no new runtime dependencies —
built on the tree's shared HTTP plane
(:class:`~repro.service.http.HttpPlane`) and the shared ``/encode``
semantics (:class:`~repro.service.encode.EncoderPool`): JSON requests
carrying :func:`wire_to_jsonable` payloads in, base64 hidden states with
digest echoes out.  Behind the wire it runs a **real**
:class:`LocalBackend` (or :class:`PaddedBackend` when the request says
``mode="padded"``) on an encoder rebuilt from the shipped
:class:`ModelConfig` — so a test that compares remote against local
results is comparing two independent processes' worth of state (interner,
weights, content vectors) reconstructed from configuration, which is
precisely the claim the wire format makes.

The service speaks HTTP/1.1 with keep-alive (so the fleet client's
connection pool is exercised for real), accepts gzip request bodies and
negotiates gzip responses via ``Accept-Encoding``, and honors the
protocol-2 ``state_dtype`` field — ``"float32"`` states are rounded to
little-endian float32 on the wire and tagged with a ``dtype`` echo.
Requests of any other protocol version are refused.  All of that now
lives in the shared plane; what stays *here* is exactly the part a test
double owns — fault injection:

:meth:`LoopbackEncoderService.inject` queues one-shot faults consumed
FIFO by subsequent requests —

- ``"http_500"`` — respond 500 (client must retry with backoff);
- ``"timeout"`` — sleep past the client's deadline before answering (the
  client must abandon the request and retry);
- ``"torn"`` — advertise the full Content-Length but write only half the
  body, then close the connection (the client sees a short read and
  retries);
- ``"shuffle"`` — return the states reversed (NOT a fault the client may
  reject: it must reassemble by digest echo and still be bit-identical);
- ``"tamper"`` — corrupt a state's bytes while keeping the original
  ``data_digest`` (the client must *reject* this, never retry it into
  acceptance).

A persistent per-replica slowness (``delay=``) makes one fleet member a
straggler, which is what hedging tests need.

:class:`FleetHarness` stands up N replicas behind one context manager::

    with FleetHarness(3, slow_index=2, slow_delay=0.2) as fleet:
        backend = RemoteBackend(config=TransportConfig(urls=fleet.urls))
        ...

Run standalone for manual poking::

    python -m repro.testing.encoder_service --port 8077
"""

from __future__ import annotations

import argparse
import base64
import collections
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.service.encode import ACCEPTED_PROTOCOLS, EncoderPool  # noqa: F401 - re-export
from repro.service.http import HttpPlane, WireRequest, WireResponse

FAULT_KINDS = ("http_500", "timeout", "torn", "shuffle", "tamper")


class _Fault:
    __slots__ = ("kind", "seconds")

    def __init__(self, kind: str, seconds: float = 0.75):
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault {kind!r}; expected one of {FAULT_KINDS}")
        self.kind = kind
        self.seconds = seconds


class LoopbackEncoderService:
    """In-process HTTP encoding service running real backends (see module doc).

    Usable as a context manager::

        with LoopbackEncoderService() as service:
            backend = RemoteBackend(service.url)
            ...

    Args:
        delay: seconds slept before answering *every* request — a
            persistent straggler knob for fleet/hedging tests (one-shot
            ``inject("timeout")`` faults stack on top).

    Attributes:
        requests_served: successful ``/encode`` responses sent.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *, delay: float = 0.0):
        self._plane = HttpPlane(host, port, name="repro-loopback-encoder")
        self._plane.route("POST", "/encode", self._handle_encode)
        self._lock = threading.Lock()
        self._faults: "collections.deque[_Fault]" = collections.deque()
        self._pool = EncoderPool()
        self.delay = delay
        self._plane.start()

    # -- lifecycle -----------------------------------------------------

    @property
    def url(self) -> str:
        return self._plane.url

    @property
    def requests_served(self) -> int:
        return self._pool.requests_served

    def close(self) -> None:
        self._plane.close()

    def __enter__(self) -> "LoopbackEncoderService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- fault injection -----------------------------------------------

    def inject(self, kind: str, *, seconds: float = 0.75) -> None:
        """Queue a one-shot fault for the next request (FIFO)."""
        with self._lock:
            self._faults.append(_Fault(kind, seconds))

    def _next_fault(self) -> Optional[_Fault]:
        with self._lock:
            return self._faults.popleft() if self._faults else None

    # -- encoding ------------------------------------------------------

    def _handle_encode(self, request: WireRequest) -> WireResponse:
        # Ordering is the fault contract: the fault queue pops *before*
        # the body is parsed, so an injected http_500/timeout fires even
        # for a request whose payload would not decode.
        if self.delay:
            time.sleep(self.delay)
        fault = self._next_fault()
        if fault is not None and fault.kind == "timeout":
            # Hold the request past the client's deadline; the response
            # below still completes (harmlessly — the client is gone).
            time.sleep(fault.seconds)
        if fault is not None and fault.kind == "http_500":
            return WireResponse(
                status=500, payload={"error": "injected service fault"}
            )
        body = self._pool.encode_request(request.json())
        entries = body["states"]
        if fault is not None and fault.kind == "shuffle":
            entries.reverse()
        elif fault is not None and fault.kind == "tamper":
            entries[0] = _tampered(entries[0])
        return WireResponse(
            payload=body,
            # A keep-alive client would otherwise wait out its deadline
            # for the missing bytes — tear so it sees a fast short read.
            torn=fault is not None and fault.kind == "torn",
        )


class FleetHarness:
    """N loopback replicas behind one context manager, for fleet tests.

    One replica can be made a persistent straggler (``slow_index`` /
    ``slow_delay``); the one-shot fault hooks stay reachable per replica
    via :attr:`replicas` or :meth:`inject`.

    ::

        with FleetHarness(3, slow_index=2, slow_delay=0.25) as fleet:
            fleet.inject(1, "http_500")       # one-shot, replica 1
            config = TransportConfig(urls=fleet.urls, hedge_after=0.9)
            backend = RemoteBackend(config=config)

    Attributes:
        replicas: the live :class:`LoopbackEncoderService` instances.
    """

    def __init__(
        self,
        n: int = 3,
        *,
        host: str = "127.0.0.1",
        slow_index: Optional[int] = None,
        slow_delay: float = 0.25,
    ):
        if n < 1:
            raise ValueError("a fleet needs at least one replica")
        if slow_index is not None and not 0 <= slow_index < n:
            raise ValueError(f"slow_index {slow_index} out of range for {n} replicas")
        self.replicas: List[LoopbackEncoderService] = []
        try:
            for i in range(n):
                delay = slow_delay if i == slow_index else 0.0
                self.replicas.append(LoopbackEncoderService(host=host, delay=delay))
        except BaseException:
            self.close()
            raise

    @property
    def urls(self) -> Tuple[str, ...]:
        return tuple(replica.url for replica in self.replicas)

    def inject(self, index: int, kind: str, *, seconds: float = 0.75) -> None:
        """Queue a one-shot fault on replica ``index`` (FIFO per replica)."""
        self.replicas[index].inject(kind, seconds=seconds)

    @property
    def requests_served(self) -> int:
        """Total successful responses across the fleet."""
        return sum(replica.requests_served for replica in self.replicas)

    def close(self) -> None:
        for replica in self.replicas:
            try:
                replica.close()
            except Exception:
                pass  # best-effort teardown; later replicas still close
        self.replicas = []

    def __enter__(self) -> "FleetHarness":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _tampered(entry: Dict[str, object]) -> Dict[str, object]:
    """Corrupt the state bytes while keeping the *original* digest.

    This simulates payload corruption or a hostile service: the digest
    check on the client is the only thing standing between this and a
    silently wrong embedding.
    """
    raw = bytearray(base64.b64decode(str(entry["data"])))
    if raw:
        raw[0] ^= 0xFF
    return {**entry, "data": base64.b64encode(bytes(raw)).decode("ascii")}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Loopback encoder service (manual/CI smoke runs)"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8077)
    parser.add_argument(
        "--delay", type=float, default=0.0, help="seconds slept before each response"
    )
    args = parser.parse_args(argv)
    service = LoopbackEncoderService(host=args.host, port=args.port, delay=args.delay)
    print(f"loopback encoder service listening on {service.url}", flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        service.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
