"""Minimal HTTP clients for the routing service.

Two flavours, one surface:

* :class:`ServiceClient` — blocking, built on ``http.client``.  Used by
  the CLI, the tests, and anything that just wants an answer.
* :class:`AsyncServiceClient` — asyncio streams, one connection per
  client, keep-alive reuse.  Many of these run concurrently on one
  loop without a thread per connection.

Both expose the same convenience calls (``route``, ``healthz``,
``stats``, ``metrics_text``, ``shutdown``) returning
``(status_code, parsed_body)`` — JSON bodies come back as dicts, the
Prometheus text endpoint as ``str``.  Connection-level failures raise
:class:`ServiceUnreachable` so callers can tell "service said no"
(a status code) from "no service there" (an exception).
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
from typing import Any, Dict, Optional, Tuple

ResponsePair = Tuple[int, Any]

_JSON_HEADERS = {"Content-Type": "application/json"}


class ServiceUnreachable(ConnectionError):
    """No service answered at the given address."""


def _parse_body(content_type: str, raw: bytes) -> Any:
    if "json" in content_type:
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return {"status": "error", "error": "unparseable response body"}
    return raw.decode("utf-8", errors="replace")


class ServiceClient:
    """Blocking keep-alive client; safe to call from one thread."""

    def __init__(self, host: str, port: int, timeout_s: float = 630.0) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self._conn: Optional[http.client.HTTPConnection] = None

    def request(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> ResponsePair:
        payload = (
            json.dumps(body, separators=(",", ":")).encode("utf-8")
            if body is not None
            else None
        )
        # one reconnect attempt: the server may have reaped an idle
        # keep-alive connection between our calls
        for attempt in (1, 2):
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout_s
                )
            try:
                self._conn.request(
                    method, path, body=payload,
                    headers=_JSON_HEADERS if payload else {},
                )
                resp = self._conn.getresponse()
                raw = resp.read()
            except (http.client.HTTPException, OSError) as exc:
                self.close()
                if attempt == 2:
                    raise ServiceUnreachable(
                        f"no service at {self.host}:{self.port}: {exc}"
                    ) from exc
                continue
            return (
                resp.status,
                _parse_body(resp.headers.get("Content-Type", ""), raw),
            )
        raise AssertionError("unreachable")

    # -- convenience wrappers ------------------------------------------
    def route(self, request_body: Dict[str, Any]) -> ResponsePair:
        return self.request("POST", "/route", request_body)

    def healthz(self) -> ResponsePair:
        return self.request("GET", "/healthz")

    def stats(self) -> ResponsePair:
        return self.request("GET", "/stats")

    def metrics_text(self) -> str:
        status, body = self.request("GET", "/metrics")
        if status != 200:
            raise ServiceUnreachable(f"/metrics answered {status}")
        return body if isinstance(body, str) else json.dumps(body)

    def shutdown(self) -> ResponsePair:
        return self.request("POST", "/shutdown")

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()


class AsyncServiceClient:
    """One keep-alive connection on the current event loop.

    Not safe for concurrent requests on the *same* client (HTTP/1.1 is
    serial per connection) — give each concurrent caller its own
    instance, which is exactly the closed-loop client model.
    """

    def __init__(self, host: str, port: int, timeout_s: float = 630.0) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _connect(self) -> None:
        try:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
        except (OSError, socket.gaierror) as exc:
            raise ServiceUnreachable(
                f"no service at {self.host}:{self.port}: {exc}"
            ) from exc

    async def request(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> ResponsePair:
        payload = (
            json.dumps(body, separators=(",", ":")).encode("utf-8")
            if body is not None
            else b""
        )
        for attempt in (1, 2):
            if self._writer is None:
                await self._connect()
            assert self._reader is not None and self._writer is not None
            head = (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: keep-alive\r\n"
                "\r\n"
            ).encode("ascii")
            try:
                self._writer.write(head + payload)
                await self._writer.drain()
                return await asyncio.wait_for(
                    self._read_response(), timeout=self.timeout_s
                )
            except (asyncio.IncompleteReadError, ConnectionError, OSError) as exc:
                await self.close()
                if attempt == 2:
                    raise ServiceUnreachable(
                        f"connection to {self.host}:{self.port} failed: {exc}"
                    ) from exc
        raise AssertionError("unreachable")

    async def _read_response(self) -> ResponsePair:
        assert self._reader is not None
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        parts = status_line.decode("latin-1").split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise ConnectionError(f"malformed status line {status_line!r}")
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        raw = await self._reader.readexactly(length) if length else b""
        if headers.get("connection", "keep-alive") == "close":
            await self.close()
        return (status, _parse_body(headers.get("content-type", ""), raw))

    # -- convenience wrappers ------------------------------------------
    async def route(self, request_body: Dict[str, Any]) -> ResponsePair:
        return await self.request("POST", "/route", request_body)

    async def healthz(self) -> ResponsePair:
        return await self.request("GET", "/healthz")

    async def stats(self) -> ResponsePair:
        return await self.request("GET", "/stats")

    async def close(self) -> None:
        if self._writer is not None:
            writer = self._writer
            self._reader = None
            self._writer = None
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, *_exc: Any) -> None:
        await self.close()
