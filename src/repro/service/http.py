"""Shared HTTP plane: one keep-alive JSON-wire server for the tree.

This module is the extraction of the HTTP/1.1 plumbing that grew up
private to :mod:`repro.testing.encoder_service` (PR 5/6): a threaded
stdlib server speaking keep-alive HTTP/1.1 with gzip request/response
bodies and JSON payloads, hardened for the realities the loopback fault
suite exercises — bodies drained before dispatch (an unread body under
keep-alive would be parsed as the next request's start line), short
writes on purpose (the ``torn`` fault), clients that vanish mid-response
(an expired request deadline).  Both the loopback encoder double and the
always-on characterization service (:mod:`repro.service.app`) are built
on it, so there is exactly one server implementation to harden.

Additions over the historical private plumbing, needed by the
characterization service:

- a **router** (:meth:`HttpPlane.route`) with ``{param}`` path segments,
  replacing the single hard-coded ``/encode`` path;
- **streaming responses**: a :class:`WireResponse` carrying ``stream=``
  (an iterator of jsonable records) is sent with
  ``Transfer-Encoding: chunked``, one JSON line per chunk, so per-cell
  sweep results reach the client as cells finish;
- **typed error mapping**: handlers raise
  :class:`~repro.errors.ObservatoryError` subclasses and the plane maps
  them to wire responses (429 + ``Retry-After`` for
  :class:`~repro.errors.ServiceOverloadedError`, 400 with the error
  class name for the rest) instead of each server hand-rolling status
  codes.

Handlers receive a :class:`WireRequest` and return a
:class:`WireResponse` (or a bare jsonable payload, meaning 200).  The
request body is parsed *lazily* (:meth:`WireRequest.json`): the loopback
fault hooks must consume their fault queue before the body is looked at,
exactly as the pre-extraction handler ordered things.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Iterable, List, Optional, Set
from urllib.parse import parse_qsl, urlsplit

from repro.errors import ObservatoryError, ServiceError, ServiceOverloadedError


@dataclasses.dataclass
class WireRequest:
    """One parsed HTTP request handed to a route handler.

    ``params`` carries ``{name}`` path-segment captures, ``query`` the
    parsed query string.  ``json()`` decodes the (possibly gzipped) body
    on first call — raising ``ValueError`` for a malformed body, which
    the plane maps to a 400 — so handlers control *when* the body is
    trusted (the loopback fault queue pops first).
    """

    method: str
    path: str
    params: Dict[str, str]
    query: Dict[str, str]
    headers: Dict[str, str]
    raw: bytes

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)

    def json(self) -> object:
        """Decode the request body as JSON (gunzipping when declared)."""
        raw = self.raw
        if self.header("content-encoding").lower() == "gzip":
            try:
                raw = gzip.decompress(raw)
            except OSError as exc:  # gzip raises OSError on bad streams
                raise ValueError(f"bad gzip request body: {exc}") from exc
        return json.loads(raw.decode("utf-8"))


@dataclasses.dataclass
class WireResponse:
    """What a route handler returns.

    Exactly one of ``payload`` (buffered JSON body) or ``stream`` (an
    iterator of jsonable records, sent chunked as JSON lines) may be
    set; neither means an empty 200.  ``torn`` is the fault-injection
    hook the loopback service needs: advertise the full
    ``Content-Length`` but write only half the body, then close — a
    client must observe a short read, never a hang.
    """

    status: int = 200
    payload: Optional[object] = None
    stream: Optional[Iterable[object]] = None
    headers: Dict[str, str] = dataclasses.field(default_factory=dict)
    torn: bool = False
    close: bool = False

    def __post_init__(self):
        if self.payload is not None and self.stream is not None:
            raise ValueError("a WireResponse is buffered or streamed, not both")


Handler = Callable[[WireRequest], object]


def error_response(error: BaseException) -> WireResponse:
    """Map a handler exception to its wire form (the typed-error contract).

    :class:`ServiceOverloadedError` → 429 with ``Retry-After``;
    other :class:`ObservatoryError` subclasses → 400 carrying the error
    class name; plain ``ValueError``/``KeyError``/``OSError`` (malformed
    payloads, exactly what the pre-extraction loopback handler caught) →
    400 with the message only.  Anything else is a programming error and
    surfaces as a 500 rather than being swallowed.
    """
    if isinstance(error, ServiceOverloadedError):
        return WireResponse(
            status=429,
            payload={"error": str(error), "error_type": type(error).__name__},
            headers={"Retry-After": f"{error.retry_after:g}"},
        )
    if isinstance(error, ObservatoryError):
        return WireResponse(
            status=400,
            payload={"error": str(error), "error_type": type(error).__name__},
        )
    if isinstance(error, (ValueError, KeyError, OSError)):
        return WireResponse(status=400, payload={"error": str(error)})
    return WireResponse(
        status=500,
        payload={"error": str(error), "error_type": type(error).__name__},
    )


class _Route:
    """One registered (method, pattern) → handler binding."""

    __slots__ = ("method", "segments", "handler")

    def __init__(self, method: str, pattern: str, handler: Handler):
        self.method = method.upper()
        self.segments = tuple(s for s in pattern.strip("/").split("/") if s)
        self.handler = handler

    def match(self, method: str, path: str) -> Optional[Dict[str, str]]:
        if method != self.method:
            return None
        parts = tuple(s for s in path.strip("/").split("/") if s)
        if len(parts) != len(self.segments):
            return None
        params: Dict[str, str] = {}
        for want, got in zip(self.segments, parts):
            if want.startswith("{") and want.endswith("}"):
                params[want[1:-1]] = got
            elif want != got:
                return None
        return params


class _PlaneHandler(BaseHTTPRequestHandler):
    # HTTP/1.1 semantics: keep-alive by default, so client connection
    # pools see real socket reuse.  Paths that must break the connection
    # (torn fault, explicit close) set ``close_connection``.
    protocol_version = "HTTP/1.1"
    # Header-block and body go out as separate small writes; without
    # TCP_NODELAY the Nagle / delayed-ACK interaction adds ~40ms to every
    # keep-alive round trip, swamping the cache-hit fast path.
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):  # noqa: D102 - silence test/CI noise
        pass

    # The plane tracks every open connection so close() can end the
    # kept-alive ones; ThreadingHTTPServer tracks none of them.
    def setup(self):
        super().setup()
        self.server.plane._track(self.connection)  # type: ignore[attr-defined]

    def handle(self):
        try:
            super().handle()
        except ConnectionError:
            # The peer reset the connection between requests, or close()
            # shut it under a read: the connection is over, nothing failed.
            self.close_connection = True

    def finish(self):
        try:
            super().finish()
        finally:
            self.server.plane._untrack(self.connection)  # type: ignore[attr-defined]

    def do_GET(self):  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self):  # noqa: N802 - http.server API
        self._dispatch("POST")

    def do_DELETE(self):  # noqa: N802 - http.server API
        self._dispatch("DELETE")

    def _dispatch(self, method: str) -> None:
        plane: "HttpPlane" = self.server.plane  # type: ignore[attr-defined]
        # Always drain the request body first: under keep-alive an unread
        # body would be parsed as the *next* request's start line.
        length = int(self.headers.get("Content-Length", "0"))
        raw = self.rfile.read(length) if length else b""
        split = urlsplit(self.path)
        path = split.path.rstrip("/") or "/"
        request = WireRequest(
            method=method,
            path=path,
            params={},
            query=dict(parse_qsl(split.query)),
            headers={k.lower(): v for k, v in self.headers.items()},
            raw=raw,
        )
        response = plane.dispatch(request)
        try:
            self._send(request, response)
        except (BrokenPipeError, ConnectionResetError):
            # The client is gone — an expired request deadline or a
            # disconnected stream consumer.  Expected under fleet
            # timeouts and live streaming, not an error.
            self.close_connection = True

    def _send(self, request: WireRequest, response: WireResponse) -> None:
        if response.stream is not None:
            self._send_stream(response)
            return
        body = b""
        if response.payload is not None:
            body = json.dumps(response.payload).encode("utf-8")
        accepts_gzip = "gzip" in request.header("accept-encoding").lower()
        encoding = "gzip" if (accepts_gzip and body) else None
        if encoding == "gzip":
            body = gzip.compress(body, compresslevel=6)
        if response.close or response.torn:
            self.close_connection = True
        self.send_response(response.status)
        self.send_header("Content-Type", "application/json")
        if encoding:
            self.send_header("Content-Encoding", encoding)
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        if response.close or response.torn:
            self.send_header("Connection", "close")
        self.end_headers()
        if response.torn:
            # Advertise everything, deliver half, hang up: the client
            # must see a fast short read, never wait out its deadline.
            self.wfile.write(body[: len(body) // 2])
            return
        self.wfile.write(body)

    def _send_stream(self, response: WireResponse) -> None:
        # Chunked framing is self-delimiting, so keep-alive survives a
        # stream; each record is one JSON line in its own chunk so
        # clients can act on a cell the moment it lands.
        self.send_response(response.status)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.end_headers()
        assert response.stream is not None
        for record in response.stream:
            line = json.dumps(record).encode("utf-8") + b"\n"
            self.wfile.write(f"{len(line):x}\r\n".encode("ascii"))
            self.wfile.write(line + b"\r\n")
            self.wfile.flush()
        self.wfile.write(b"0\r\n\r\n")


class HttpPlane:
    """A routed, threaded, keep-alive JSON-wire HTTP server.

    ::

        plane = HttpPlane(name="repro-service")
        plane.route("GET", "/healthz", lambda req: {"ok": True})
        plane.route("GET", "/v1/jobs/{job_id}", get_job)
        plane.start()
        ...
        plane.close()

    Handlers run on the server's per-connection threads; they must be
    thread-safe.  A handler may return a :class:`WireResponse` or any
    jsonable payload (meaning 200).  Exceptions are mapped by
    :func:`error_response` — service code raises typed errors, the plane
    owns status codes.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *, name: str = "repro-http"):
        self._routes: List[_Route] = []
        self._name = name
        try:
            self._server = ThreadingHTTPServer((host, port), _PlaneHandler)
        except OSError as exc:
            raise ServiceError(
                f"cannot bind {name} to {host}:{port}: {exc}"
            ) from exc
        self._server.plane = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._connections: Set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        self._closed = False

    # -- routing -------------------------------------------------------

    def route(self, method: str, pattern: str, handler: Handler) -> None:
        """Register ``handler`` for ``method`` + ``pattern`` (``{param}`` segments)."""
        self._routes.append(_Route(method, pattern, handler))

    def dispatch(self, request: WireRequest) -> WireResponse:
        """Resolve and invoke the matching handler (used by the wire and tests)."""
        for candidate in self._routes:
            params = candidate.match(request.method, request.path)
            if params is not None:
                request.params = params
                try:
                    result = candidate.handler(request)
                except Exception as error:  # noqa: BLE001 - mapped, not swallowed
                    return error_response(error)
                if isinstance(result, WireResponse):
                    return result
                return WireResponse(payload=result)
        return WireResponse(status=404, payload={"error": "unknown endpoint"})

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "HttpPlane":
        """Serve on a background daemon thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever, name=self._name, daemon=True
            )
            self._thread.start()
        return self

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def _track(self, connection: socket.socket) -> None:
        with self._connections_lock:
            if not self._closed:
                self._connections.add(connection)
                return
        _shut(connection)  # accepted while the plane was closing

    def _untrack(self, connection: socket.socket) -> None:
        with self._connections_lock:
            self._connections.discard(connection)

    def close(self) -> None:
        """Stop serving and end every open connection, kept-alive ones too.

        Raises typed if the server thread is wedged.
        """
        if self._thread is not None:
            # shutdown() waits for serve_forever, which an unstarted or
            # already closed plane is not running.
            self._server.shutdown()
        self._server.server_close()
        with self._connections_lock:
            self._closed = True
            live, self._connections = self._connections, set()
        # Each handler thread then reads EOF and closes its own socket.
        for connection in live:
            _shut(connection)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            if self._thread.is_alive():
                raise ServiceError(
                    f"{self._name} server thread did not exit within 5s"
                )
            self._thread = None

    def __enter__(self) -> "HttpPlane":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()


def _shut(connection: socket.socket) -> None:
    try:
        connection.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # its handler already closed it
