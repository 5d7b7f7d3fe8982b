"""Shared asyncio HTTP/1.1 plumbing for the repro services.

The container ships no web framework, so the online services implement HTTP/1.1 on
``asyncio.start_server`` directly.  This module holds the pieces that are identical
between the single-node job server (:class:`repro.server.app.ReproServer`) and the
fleet coordinator (:class:`repro.fleet.coordinator.FleetCoordinator`):

* :class:`Request` / :class:`HTTPError` — parsed requests and structured JSON errors.
* :class:`AsyncHTTPServer` — connection handling, request parsing with body bounds,
  ``{param}``-pattern routing with 404/405 semantics, JSON/raw response writing, the
  ``GET /metrics`` page with per-route request counts, and a graceful start/stop
  lifecycle with ``_on_start``/``_on_stop`` hooks for subclasses.
* :class:`ThreadedServer` — the embedded-server harness: any :class:`AsyncHTTPServer`
  running in a dedicated background event-loop thread (used by tests, benchmarks and
  the examples so synchronous callers never own an event loop).
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from typing import Awaitable, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from .. import __version__
from ..obs.metrics import Registry

#: Upper bound on request bodies (a batch of large QASM circuits fits comfortably).
MAX_BODY_BYTES = 16 * 1024 * 1024

_STATUS_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error", 502: "Bad Gateway",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


class HTTPError(Exception):
    """Terminates request handling with a structured JSON error response."""

    def __init__(self, status: int, message: str, **extra) -> None:
        super().__init__(message)
        self.status = status
        self.payload = {"error": {"status": status, "message": message, **extra}}
        self.headers: Dict[str, str] = {}


class Request:
    """One parsed HTTP request (method, path, query, JSON body on demand)."""

    def __init__(self, method: str, target: str, headers: Dict[str, str], body: bytes) -> None:
        self.method = method
        parts = urlsplit(target)
        self.path = parts.path
        self.raw_query = parts.query
        self.query = {key: values[-1] for key, values in parse_qs(parts.query).items()}
        self.headers = headers
        self.body = body

    def json(self) -> Dict:
        if not self.body:
            raise HTTPError(400, "request body must be a JSON object")
        try:
            data = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HTTPError(400, f"malformed JSON body: {exc}") from exc
        if not isinstance(data, dict):
            raise HTTPError(400, "request body must be a JSON object")
        return data

    @property
    def client_id(self) -> str:
        return self.headers.get("x-repro-client", "anonymous")


class AsyncHTTPServer:
    """Dependency-free asyncio HTTP/1.1 server base with pattern routing.

    Subclasses set ``self.metrics`` to a :class:`~repro.obs.metrics.Registry` that
    declares a ``requests`` counter (served at ``GET /metrics``), register
    ``(method, pattern, handler)`` routes (patterns may contain ``{param}`` segments,
    captured as keyword arguments), and may override :meth:`_on_start` /
    :meth:`_on_stop` to manage background tasks beside the listener.
    """

    metrics: Registry

    def __init__(self, host: str = "127.0.0.1", port: int = 8000) -> None:
        self.host = host
        self.port = port
        self.draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        # Created inside start(): on Python 3.9 an asyncio.Event built outside a
        # running loop binds to the wrong loop.
        self._stopped: Optional[asyncio.Event] = None
        self._routes: List[Tuple[str, str, Callable[..., Awaitable[None]]]] = [
            ("GET", "/metrics", self._handle_metrics),
        ]

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind the listener and run :meth:`_on_start`; returns the bound (host, port)."""
        if self._stopped is None:
            self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            family=socket.AF_INET, reuse_address=True,
        )
        bound = self._server.sockets[0].getsockname()
        self.port = bound[1]
        await self._on_start()
        return bound[0], bound[1]

    async def serve_forever(self) -> None:
        """Run until :meth:`stop` is called (used by the CLI entry points)."""
        if self._server is None:
            await self.start()
        await self._stopped.wait()

    async def stop(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Graceful shutdown: stop accepting, run :meth:`_on_stop`, release waiters."""
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self._on_stop(drain=drain, timeout=timeout)
        if self._stopped is not None:
            self._stopped.set()

    async def _on_start(self) -> None:
        """Hook run after the listener is bound (the ephemeral port is known)."""

    async def _on_stop(self, *, drain: bool, timeout: float) -> None:
        """Hook run after the listener is closed, before waiters are released."""

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def run_in_thread(self) -> "ThreadedServer":
        """Start this server in a dedicated background event-loop thread.

        The one embedded-server harness shared by the test suite, the throughput
        benchmarks and the examples — callers in a synchronous world get a running
        server without owning an event loop::

            with ReproServer(port=0, use_processes=False).run_in_thread() as handle:
                result = handle.client().submit(circuit, target).result()
        """
        return ThreadedServer(self).start()

    # -- connection handling --------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await self._read_request(reader)
            if request is not None:
                await self._dispatch(request, writer)
        except HTTPError as exc:
            await self._write_json(writer, exc.status, exc.payload, headers=exc.headers)
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # noqa: BLE001 - a broken handler must not kill the loop
            try:
                await self._write_json(
                    writer, 500,
                    {"error": {"status": 500, "message": f"{type(exc).__name__}: {exc}"}},
                )
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader) -> Optional[Request]:
        try:
            request_line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError) as exc:
            raise HTTPError(400, f"request line too long: {exc}") from exc
        if not request_line:
            return None
        try:
            method, target, _version = request_line.decode("latin-1").split()
        except ValueError as exc:
            raise HTTPError(400, "malformed request line") from exc
        headers: Dict[str, str] = {}
        while True:
            try:
                line = await reader.readline()
            except (ValueError, asyncio.LimitOverrunError) as exc:
                raise HTTPError(400, f"header line too long: {exc}") from exc
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0") or "0"
        try:
            length = int(raw_length)
        except ValueError as exc:
            raise HTTPError(400, f"invalid Content-Length {raw_length!r}") from exc
        if length < 0:
            raise HTTPError(400, f"invalid Content-Length {raw_length!r}")
        if length > MAX_BODY_BYTES:
            raise HTTPError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        return Request(method.upper(), target, headers, body)

    def _match(self, request: Request) -> Tuple[Callable, Dict[str, str], str]:
        path_allowed: List[str] = []
        for method, pattern, handler in self._routes:
            params = _match_pattern(pattern, request.path)
            if params is None:
                continue
            if method == request.method:
                return handler, params, pattern
            path_allowed.append(method)
        if path_allowed:
            error = HTTPError(405, f"method {request.method} not allowed for {request.path}")
            error.headers["Allow"] = ", ".join(sorted(set(path_allowed)))
            raise error
        raise HTTPError(404, f"no route for {request.path}")

    async def _dispatch(self, request: Request, writer: asyncio.StreamWriter) -> None:
        handler, params, pattern = self._match(request)
        try:
            await handler(request, writer, **params)
            self._observe_request(pattern, "2xx")
        except HTTPError as exc:
            self._observe_request(pattern, str(exc.status))
            raise

    def _observe_request(self, pattern: str, code: str) -> None:
        self.metrics.requests.inc(route=pattern, code=code)

    async def _handle_metrics(self, request: Request, writer: asyncio.StreamWriter) -> None:
        text = self.metrics.render()
        await self._write_response(
            writer, 200, text.encode("utf-8"), content_type="text/plain; version=0.0.4"
        )

    # -- response writing -----------------------------------------------------

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        *,
        content_type: str = "application/json",
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        reason = _STATUS_REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}; charset=utf-8",
            f"Content-Length: {len(body)}",
            "Connection: close",
            f"Server: repro/{__version__}",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()

    async def _write_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict,
        *,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        # Compact on purpose: any ``indent`` sends CPython down its pure-Python encoder,
        # which costs ~5x the C encoder's time on the event loop for a result body.
        body = json.dumps(payload).encode("utf-8") + b"\n"
        await self._write_response(writer, status, body, headers=headers)


class ThreadedServer:
    """An :class:`AsyncHTTPServer` running in its own thread + event loop (see
    :meth:`AsyncHTTPServer.run_in_thread`).  ``stop()`` performs the full graceful
    shutdown, stops the loop, and joins the thread; usable as a context manager."""

    def __init__(self, server: AsyncHTTPServer) -> None:
        self.server = server
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True, name="repro-server")

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.start())
        self._ready.set()
        self.loop.run_forever()

    def start(self) -> "ThreadedServer":
        self._thread.start()
        if not self._ready.wait(timeout=15):
            raise RuntimeError("server thread failed to start within 15s")
        return self

    def stop(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        asyncio.run_coroutine_threadsafe(
            self.server.stop(drain=drain, timeout=timeout), self.loop
        ).result(timeout=timeout + 15)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=15)
        self.loop.close()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server.port}"

    def client(self, **kwargs):
        """A :class:`repro.client.ReproClient` pointed at this server."""
        from ..client import ReproClient  # lazy: keeps server importable without client

        return ReproClient(self.url, **kwargs)

    def __enter__(self) -> "ThreadedServer":
        return self if self._ready.is_set() else self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def _match_pattern(pattern: str, path: str) -> Optional[Dict[str, str]]:
    """Match ``/v1/jobs/{id}/events``-style patterns; returns captured params."""
    pattern_parts = pattern.strip("/").split("/")
    path_parts = path.strip("/").split("/")
    if len(pattern_parts) != len(path_parts):
        return None
    params: Dict[str, str] = {}
    for expected, actual in zip(pattern_parts, path_parts):
        if expected.startswith("{") and expected.endswith("}"):
            if not actual:
                return None
            params[expected[1:-1]] = actual
        elif expected != actual:
            return None
    return params


def _int_field(data: Dict, key: str, *, default: int) -> int:
    value = data.get(key, default)
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise HTTPError(400, f'"{key}" must be an integer, got {value!r}') from exc
