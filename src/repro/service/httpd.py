"""Asyncio socket HTTP front-end for :class:`RoutingService`.

A deliberately small HTTP/1.1 server on raw ``asyncio`` streams — no
frameworks, no new dependencies.  It supports exactly what the serving
tier needs: JSON request/response bodies, ``Content-Length`` framing,
keep-alive connections (closed-loop load clients reuse sockets), and
bounded header/body sizes so a misbehaving client cannot balloon the
process.

Endpoints
---------
``POST /route``
    Body: the :mod:`repro.service.schema` request object.  Responds 200
    with the embedded :class:`~repro.exec.record.RunRecord` (profile
    included), 400 on schema errors, 503 with a structured failure
    ledger when the point degraded, 504 past the request timeout.
``GET /metrics``
    The process :data:`~repro.obs.metrics.REGISTRY` in Prometheus text
    exposition format — request/queue latency percentiles, coalescing
    and cache counters, engine and fault instruments.
``GET /stats``
    JSON service + cache counters (queue depth, in-flight, coalesced,
    hit rates).
``GET /healthz``
    Liveness: 200 ``{"status": "ok"}`` while the loop is serving.
``POST /shutdown``
    Graceful stop (the CLI flag ``--no-admin`` disables it).

Hosting
-------
:func:`serve_forever` runs the server on the current event loop until
cancelled or shut down (the ``repro serve`` path).  :class:`ServiceHost`
runs the same server on a background thread with its own loop — the
tests, the benchmark's service workload, and the chaos scenario boot
real sockets without managing a second process.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
from typing import Any, Dict, Optional, Tuple

from repro.service.core import RoutingService

log = logging.getLogger("repro.service")

#: request-line + headers must fit in this many bytes
MAX_HEADER_BYTES = 16 * 1024
#: request bodies larger than this get a 413
MAX_BODY_BYTES = 1024 * 1024

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


def _encode_response(
    status: int, body: Any, content_type: str = "application/json",
    keep_alive: bool = True,
) -> bytes:
    if isinstance(body, (dict, list)):
        payload = json.dumps(body, separators=(",", ":")).encode("utf-8")
    elif isinstance(body, str):
        payload = body.encode("utf-8")
    else:
        payload = bytes(body)
    reason = _REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    )
    return head.encode("ascii") + payload


class _BadRequest(Exception):
    """Protocol-level garbage; the status to answer with rides along."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """One request as ``(method, path, headers, body)``; None on EOF."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between requests
        raise _BadRequest(400, "truncated request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise _BadRequest(413, "request head too large") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise _BadRequest(413, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _BadRequest(400, f"malformed request line: {lines[0]!r}")
    method, path, _version = parts
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise _BadRequest(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise _BadRequest(400, "bad Content-Length") from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise _BadRequest(413, f"body of {length} bytes refused")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise _BadRequest(400, "truncated request body") from exc
    return method, path, headers, body


class _HttpFrontend:
    """Connection handler bridging HTTP to a :class:`RoutingService`."""

    def __init__(
        self, service: RoutingService, allow_admin: bool = True
    ) -> None:
        self.service = service
        self.allow_admin = allow_admin
        self.shutdown_requested = asyncio.Event()

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _BadRequest as exc:
                    writer.write(_encode_response(
                        exc.status,
                        {"status": "bad-request", "error": str(exc)},
                        keep_alive=False,
                    ))
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, headers, body = request
                status, payload, content_type = await self._dispatch(
                    method, path, body
                )
                keep = headers.get("connection", "keep-alive") != "close"
                writer.write(_encode_response(
                    status, payload, content_type=content_type, keep_alive=keep
                ))
                await writer.drain()
                if not keep:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Any, str]:
        """Route one request; always answers, never raises."""
        json_type = "application/json"
        if path == "/healthz":
            if method != "GET":
                return (405, {"status": "error", "error": "GET only"}, json_type)
            return (200, {"status": "ok"}, json_type)
        if path == "/metrics":
            if method != "GET":
                return (405, {"status": "error", "error": "GET only"}, json_type)
            from repro.obs.metrics import REGISTRY

            text = REGISTRY.render_prometheus()
            return (200, text or "# (empty registry)\n", "text/plain; version=0.0.4")
        if path == "/stats":
            if method != "GET":
                return (405, {"status": "error", "error": "GET only"}, json_type)
            return (200, self.service.stats(), json_type)
        if path == "/shutdown":
            if method != "POST":
                return (405, {"status": "error", "error": "POST only"}, json_type)
            if not self.allow_admin:
                return (404, {"status": "error", "error": "admin disabled"}, json_type)
            self.shutdown_requested.set()
            return (200, {"status": "stopping"}, json_type)
        if path == "/route":
            if method != "POST":
                return (405, {"status": "error", "error": "POST only"}, json_type)
            try:
                data = json.loads(body.decode("utf-8")) if body else {}
            except (UnicodeDecodeError, ValueError):
                return (
                    400,
                    {"status": "bad-request", "error": "body is not valid JSON"},
                    json_type,
                )
            status, payload = await self.service.submit(data)
            return (status, payload, json_type)
        return (404, {"status": "error", "error": f"no such path {path!r}"}, json_type)


async def serve_forever(
    service: RoutingService,
    host: str = "127.0.0.1",
    port: int = 0,
    allow_admin: bool = True,
    ready: Optional["asyncio.Future[Tuple[str, int]]"] = None,
) -> None:
    """Serve until cancelled or ``POST /shutdown``.

    ``ready`` (if given) resolves to the bound ``(host, port)`` once the
    socket is listening — ``port=0`` binds an ephemeral port, which is
    how the thread host and the tests avoid collisions.
    """
    frontend = _HttpFrontend(service, allow_admin=allow_admin)
    await service.start()
    server = await asyncio.start_server(
        frontend.handle_connection, host=host, port=port,
        limit=MAX_HEADER_BYTES + MAX_BODY_BYTES,
    )
    bound = server.sockets[0].getsockname()[:2]
    if ready is not None and not ready.done():
        ready.set_result((bound[0], bound[1]))
    log.info("routing service listening on http://%s:%d", bound[0], bound[1])
    try:
        await frontend.shutdown_requested.wait()
        log.info("shutdown requested; draining")
    finally:
        server.close()
        await server.wait_closed()
        await service.stop()


class ServiceHost:
    """Run a service + HTTP server on a background thread.

    Context-manager use::

        with ServiceHost(RoutingService(cache=...)) as host:
            client = ServiceClient(host.host, host.port)
            ...

    The thread owns its own event loop; :meth:`stop` (or ``__exit__``)
    requests shutdown and joins the thread.  Exceptions raised while
    booting (e.g. a busy explicit port) re-raise in the caller.
    """

    def __init__(
        self,
        service: RoutingService,
        host: str = "127.0.0.1",
        port: int = 0,
        allow_admin: bool = True,
    ) -> None:
        self._service = service
        self._want_host = host
        self._want_port = port
        self._allow_admin = allow_admin
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._boot: "threading.Event" = threading.Event()
        self._boot_error: Optional[BaseException] = None
        self.host: str = host
        self.port: int = 0

    def start(self) -> "ServiceHost":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run, name="repro-service-host", daemon=True
        )
        self._thread.start()
        self._boot.wait(timeout=30.0)
        if self._boot_error is not None:
            raise self._boot_error
        if not self._boot.is_set():
            raise RuntimeError("service host failed to boot within 30s")
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced to caller
            if not self._boot.is_set():
                self._boot_error = exc
                self._boot.set()
            else:
                log.warning("service host exited with %s: %s", type(exc).__name__, exc)

    async def _main(self) -> None:
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._stop_event = asyncio.Event()
        ready: "asyncio.Future[Tuple[str, int]]" = loop.create_future()
        server_task = loop.create_task(serve_forever(
            self._service, host=self._want_host, port=self._want_port,
            allow_admin=self._allow_admin, ready=ready,
        ))
        try:
            self.host, self.port = await asyncio.wait_for(ready, timeout=25.0)
        except BaseException:
            server_task.cancel()
            raise
        self._boot.set()
        stop_wait = loop.create_task(self._stop_event.wait())
        done, _pending = await asyncio.wait(
            {server_task, stop_wait}, return_when=asyncio.FIRST_COMPLETED
        )
        stop_wait.cancel()
        if server_task not in done:
            server_task.cancel()
        try:
            await server_task
        except (asyncio.CancelledError, Exception):
            pass

    def stop(self) -> None:
        if self._thread is None:
            return
        loop, stop_event = self._loop, self._stop_event
        if loop is not None and stop_event is not None and loop.is_running():
            loop.call_soon_threadsafe(stop_event.set)
        self._thread.join(timeout=30.0)
        self._thread = None

    def __enter__(self) -> "ServiceHost":
        return self.start()

    def __exit__(self, *_exc: Any) -> None:
        self.stop()
