"""The asyncio wire layer of ``repro serve``.

:class:`ServeDaemon` adapts one :class:`~repro.serve.service.MotifService`
onto two transports sharing the protocol of
:mod:`repro.serve.protocol`:

* a **unix socket** speaking newline-delimited JSON — one request
  object per line, one response envelope per line, in order.  The
  native transport: lowest overhead, trivially replayable, what
  :class:`~repro.serve.client.ServeClient` and the benchmark use.
* optional **HTTP/1.1** on a TCP port: ``POST /v1/count`` with the
  same JSON body, plus ``GET /v1/ping|stats|catalog|algorithms``.
  Hand-rolled request parsing (no third-party dependency) that
  supports exactly what a JSON API needs: a request line, headers,
  ``Content-Length`` bodies, and keep-alive.

The event loop never blocks on counting: :meth:`MotifService.submit`
returns a :class:`concurrent.futures.Future` resolved by the service's
dispatcher thread, and the daemon awaits it via
:func:`asyncio.wrap_future` (a repeat answered at admission comes back
already resolved and is encoded without awaiting).  Slow queries
therefore never stall other connections — admission control, not the
transport, is what bounds concurrency.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple

from repro.core.counters import MotifCounts
from repro.core.registry import algorithm_specs
from repro.errors import ValidationError
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    encode_counts,
    error_response,
    ok_response,
    parse_count,
)
from repro.serve.service import MotifService

#: HTTP reason phrases for the statuses the protocol maps onto.
_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    429: "Too Many Requests", 500: "Internal Server Error", 504: "Gateway Timeout",
}

#: Upper bound on one request line/body (1 MiB — far above any query).
_MAX_MESSAGE = 1 << 20


class ServeDaemon:
    """One service, exposed on a unix socket and/or an HTTP port."""

    def __init__(
        self,
        service: MotifService,
        *,
        socket_path: Optional[str] = None,
        http_host: Optional[str] = None,
        http_port: Optional[int] = None,
    ) -> None:
        if socket_path is None and http_port is None:
            raise ValidationError("daemon needs a socket_path and/or an http_port")
        self.service = service
        self.socket_path = socket_path
        self.http_host = http_host or "127.0.0.1"
        self.http_port = http_port
        self._servers: list = []

    # -- op dispatch (transport-independent) ----------------------------
    async def handle_message(self, message: Dict) -> Dict:
        """Execute one protocol request; always returns an envelope."""
        request_id = message.get("id") if isinstance(message, dict) else None
        try:
            if not isinstance(message, dict):
                raise ValidationError(f"request must be a JSON object, got {message!r}")
            op = message.get("op")
            if op == "count":
                fields = parse_count(message)
                future = self.service.submit(fields)
                # An answer-table hit comes back resolved: no loop hop.
                counts: MotifCounts = (
                    future.result() if future.done()
                    else await asyncio.wrap_future(future)
                )
                return ok_response(encode_counts(counts), fields["id"])
            if op == "ping":
                return ok_response(
                    {"pong": True, "version": PROTOCOL_VERSION}, request_id
                )
            if op == "stats":
                return ok_response(self.service.describe_stats(), request_id)
            if op == "catalog":
                return ok_response({"graphs": self.service.catalog.describe()}, request_id)
            if op == "algorithms":
                return ok_response(
                    {
                        "algorithms": [
                            {
                                "name": spec.name,
                                "exact": spec.is_exact,
                                "parallel": spec.parallel,
                                "streaming": spec.streaming,
                                "params": {k: repr(v) for k, v in sorted(spec.params.items())},
                            }
                            for spec in algorithm_specs()
                        ]
                    },
                    request_id,
                )
            raise ValidationError(f"unknown op {op!r}")
        except BaseException as exc:  # noqa: BLE001 - every failure becomes an envelope
            if isinstance(exc, (KeyboardInterrupt, SystemExit, asyncio.CancelledError)):
                raise
            return error_response(exc, request_id)

    # -- unix-socket JSONL transport ------------------------------------
    async def _handle_jsonl(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    message = json.loads(line)
                except json.JSONDecodeError as exc:
                    envelope = error_response(ValidationError(f"invalid JSON: {exc}"))
                else:
                    envelope = await self.handle_message(message)
                writer.write(json.dumps(envelope).encode() + b"\n")
                await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    # -- HTTP transport -------------------------------------------------
    @staticmethod
    def _http_routes(method: str, path: str) -> Optional[str]:
        """Map an HTTP request target onto a protocol op."""
        if method == "POST" and path in ("/v1/count", "/count"):
            return "count"
        if method == "GET" and path in ("/v1/ping", "/ping"):
            return "ping"
        if method == "GET" and path in ("/v1/stats", "/stats"):
            return "stats"
        if method == "GET" and path in ("/v1/catalog", "/catalog"):
            return "catalog"
        if method == "GET" and path in ("/v1/algorithms", "/algorithms"):
            return "algorithms"
        return None

    async def _read_http_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        request_line = await reader.readline()
        if not request_line or not request_line.strip():
            return None
        try:
            method, target, _version = request_line.decode("latin-1").split(None, 2)
        except ValueError:
            raise ValidationError(f"malformed request line {request_line!r}") from None
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_MESSAGE:
            raise ValidationError(f"request body too large ({length} bytes)")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target.split("?", 1)[0], headers, body

    async def _handle_http(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    parsed = await self._read_http_request(reader)
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break
                except ValidationError as exc:
                    self._write_http(writer, 400, error_response(exc))
                    await writer.drain()
                    break
                if parsed is None:
                    break
                method, path, headers, body = parsed
                op = self._http_routes(method, path)
                if op is None:
                    envelope = error_response(
                        ValidationError(f"no route for {method} {path}")
                    )
                    status = 405 if method not in ("GET", "POST") else 404
                    envelope["error"]["status"] = status
                else:
                    if op == "count":
                        try:
                            message = json.loads(body or b"{}")
                            if not isinstance(message, dict):
                                raise ValidationError("body must be a JSON object")
                            message["op"] = "count"
                        except json.JSONDecodeError as exc:
                            message = None
                            envelope = error_response(
                                ValidationError(f"invalid JSON body: {exc}")
                            )
                        if message is not None:
                            envelope = await self.handle_message(message)
                    else:
                        envelope = await self.handle_message({"op": op})
                    status = 200 if envelope["ok"] else envelope["error"]["status"]
                self._write_http(writer, status, envelope)
                await writer.drain()
                if headers.get("connection", "").lower() == "close":
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    @staticmethod
    def _write_http(writer: asyncio.StreamWriter, status: int, envelope: Dict) -> None:
        payload = json.dumps(envelope).encode()
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + payload)

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Bind every configured transport (idempotent per call site)."""
        if self.socket_path is not None:
            self._servers.append(await asyncio.start_unix_server(
                self._handle_jsonl, path=self.socket_path, limit=_MAX_MESSAGE,
            ))
        if self.http_port is not None:
            self._servers.append(await asyncio.start_server(
                self._handle_http, host=self.http_host, port=self.http_port,
                limit=_MAX_MESSAGE,
            ))

    @property
    def http_address(self) -> Optional[Tuple[str, int]]:
        """The bound (host, port) — resolves port 0 to the real one."""
        for server in self._servers:
            for sock in server.sockets:
                name = sock.getsockname()
                if isinstance(name, tuple):
                    return name[0], name[1]
        return None

    async def stop(self) -> None:
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers = []

    async def serve_forever(self) -> None:
        """Start and serve until cancelled; stops transports on the way out."""
        await self.start()
        try:
            await asyncio.gather(*(s.serve_forever() for s in self._servers))
        except asyncio.CancelledError:
            pass
        finally:
            await self.stop()


def run_daemon(
    service: MotifService,
    *,
    socket_path: Optional[str] = None,
    http_host: Optional[str] = None,
    http_port: Optional[int] = None,
) -> None:
    """Blocking entry point used by ``repro serve``.

    Installs the pool signal handlers
    (:func:`repro.parallel.pool.install_signal_handlers`) so SIGTERM /
    Ctrl-C shuts the workers down and unlinks every shm segment before
    the process dies, then runs the event loop until interrupted.
    """
    from repro.parallel.pool import install_signal_handlers

    install_signal_handlers()
    daemon = ServeDaemon(
        service,
        socket_path=socket_path,
        http_host=http_host,
        http_port=http_port,
    )
    try:
        asyncio.run(daemon.serve_forever())
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        pass
    finally:
        service.close()
