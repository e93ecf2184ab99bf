"""The ``repro worker`` daemon: one node of a counting cluster.

A worker daemon sits on each node, speaks the JSONL worker protocol
(:mod:`repro.distributed.protocol`) over TCP, opens its local ``.rgz``
files zero-copy via :func:`~repro.storage.format.open_packed`, and
counts the canonical edge ranges the coordinator hands it — through a
resident :class:`~repro.parallel.pool.WorkerPool` when deployed with
``workers > 1``.  Workers without the coordinator's packed file still
participate: the coordinator ships them edge-column slices inline
(``count_edges``).

Each coordinator connection is served by its own handler thread and
processes requests strictly in order — one job in flight per
connection, which is exactly the dispatch unit the coordinator wants
(its parallelism is across workers; a worker's parallelism is its
pool).  The daemon is equally usable in-process (tests, the docs'
examples) via :meth:`WorkerDaemon.start` and as a blocking CLI entry
via :func:`run_worker`.
"""

from __future__ import annotations

import json
import os
import socketserver
import threading
import time
from typing import Dict, Optional, Sequence

from repro.distributed import protocol
from repro.errors import StorageFormatError, ValidationError
from repro.storage.format import open_packed
from repro.storage.sharded import slice_canonical


class _Handler(socketserver.StreamRequestHandler):
    """One coordinator connection: a JSONL request/response loop."""

    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        daemon: "WorkerDaemon" = self.server.daemon  # type: ignore[attr-defined]
        with daemon._lock:
            daemon.stats["connections"] += 1
        while True:
            try:
                line = protocol.read_message_line(self.rfile)
            except ValidationError as exc:
                self._reply(protocol.error_response(exc, None))
                return  # cannot resync a stream mid-oversized-line
            if line is None:
                return
            request_id = None
            message: Dict = {}
            try:
                parsed = json.loads(line)
                if not isinstance(parsed, dict):
                    raise ValidationError("request must be a JSON object")
                message = parsed
                request_id = message.get("id")
                result = daemon.handle_message(message)
                envelope = protocol.ok_response(result, request_id)
            except Exception as exc:  # noqa: BLE001 - protocol boundary
                with daemon._lock:
                    daemon.stats["errors"] += 1
                envelope = protocol.error_response(exc, request_id)
            if not self._reply(envelope):
                return
            if message.get("op") == "shutdown":
                daemon._request_shutdown()
                return

    def _reply(self, envelope: Dict) -> bool:
        try:
            data = protocol.encode_message(envelope)
        except ValidationError as exc:
            # The result outgrew the frame cap (symmetric with the
            # read-side limit).  Error envelopes are tiny, so degrading
            # to one never recurses.
            request_id = envelope.get("id") if isinstance(envelope, dict) else None
            data = protocol.encode_message(protocol.error_response(exc, request_id))
        try:
            self.wfile.write(data)
            self.wfile.flush()
            return True
        except OSError:
            return False


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class WorkerDaemon:
    """See the module docstring.

    Parameters
    ----------
    host / port:
        TCP bind address; port ``0`` picks an ephemeral port (read the
        bound one from :attr:`address` after :meth:`start`).
    workers:
        Resident pool size for parallel algorithms (``fast``, ``ex``,
        ``bts``).  ``1`` (default) counts serially in-process — no pool,
        no shared-memory segments, nothing to leak even under SIGKILL.
        The pool's start method is ``REPRO_START_METHOD``, else the
        platform default.
    sources:
        Packed files to open eagerly at startup (optional; ``open``
        probes open lazily either way).
    delay:
        Testing aid: sleep this many seconds before every count op, so
        fault-injection tests can SIGKILL the daemon deterministically
        *mid-shard*.  Never set in production.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 1,
        sources: Sequence[str] = (),
        delay: float = 0.0,
    ) -> None:
        if workers < 1:
            raise ValidationError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.delay = float(delay)
        self._lock = threading.RLock()
        self._packed: Dict[str, object] = {}
        self._pool = None
        self._server = _Server((host, port), _Handler)
        self._server.daemon = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._serving = False
        self._closed = False
        self.stats: Dict[str, object] = {
            "connections": 0,
            "opens": 0,
            "slices_served": 0,
            "edges_counted": 0,
            "bytes_received": 0,
            "errors": 0,
        }
        for source in sources:
            self._open_source(os.fspath(source))

    # -- addressing -----------------------------------------------------
    @property
    def address(self) -> str:
        host, port = self._server.server_address[:2]
        return f"{host}:{port}"

    # -- op dispatch ----------------------------------------------------
    def handle_message(self, message: Dict) -> Dict:
        """Execute one protocol op; returns the result payload."""
        op = message.get("op")
        if op not in protocol.WORKER_OPS:
            raise ValidationError(
                f"unknown op {op!r}; choose from {protocol.WORKER_OPS}"
            )
        if op == "hello":
            return self._op_hello()
        if op == "ping":
            return {"pong": True, "pid": os.getpid()}
        if op == "open":
            return self._op_open(message)
        if op == "count_slice":
            return self._op_count_slice(message)
        if op == "count_edges":
            return self._op_count_edges(message)
        if op == "stats":
            return self.describe_stats()
        return {"closing": True}  # shutdown: handler stops after replying

    def _op_hello(self) -> Dict:
        with self._lock:
            sources = sorted(self._packed)
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "pid": os.getpid(),
            "workers": self.workers,
            "sources": sources,
        }

    def _op_open(self, message: Dict) -> Dict:
        source = message.get("source")
        if not isinstance(source, str) or not source:
            raise ValidationError("open requires a 'source' path")
        if not os.path.exists(source):
            # Not holding the file is a *placement* fact, not an error:
            # the coordinator will ship this worker edge slices instead.
            return {"held": False}
        packed = self._open_source(source)
        graph = packed.graph
        return {
            "held": True,
            "num_edges": graph.num_edges,
            "num_nodes": graph.num_nodes,
        }

    def _op_count_slice(self, message: Dict) -> Dict:
        spec = protocol.parse_count_spec(message.get("spec"))
        source = message.get("source")
        if not isinstance(source, str) or not source:
            raise ValidationError("count_slice requires a 'source' path")
        if not os.path.exists(source):
            raise StorageFormatError(
                f"worker does not hold {source!r} (probe with 'open' first)"
            )
        graph = self._open_source(source).graph
        lo, hi = self._parse_range(message, graph.num_edges)
        piece = slice_canonical(graph, lo, hi)
        return {"counts": protocol.encode_counts(self._count(piece, spec))}

    def _op_count_edges(self, message: Dict) -> Dict:
        spec = protocol.parse_count_spec(message.get("spec"))
        payload = message.get("edges")
        piece = protocol.decode_edge_slice(payload)
        with self._lock:
            self.stats["bytes_received"] += protocol.edge_slice_bytes(payload)
        return {"counts": protocol.encode_counts(self._count(piece, spec))}

    # -- internals ------------------------------------------------------
    @staticmethod
    def _parse_range(message: Dict, num_edges: int) -> tuple:
        try:
            lo, hi = int(message["lo"]), int(message["hi"])
        except (KeyError, TypeError, ValueError):
            raise ValidationError(
                "count_slice requires integer 'lo' and 'hi' edge ids"
            ) from None
        if not (0 <= lo <= hi <= num_edges):
            raise ValidationError(
                f"slice [{lo}, {hi}) out of range for {num_edges} edges"
            )
        return lo, hi

    def _open_source(self, source: str):
        with self._lock:
            packed = self._packed.get(source)
            if packed is None:
                packed = open_packed(source)
                self._packed[source] = packed
                self.stats["opens"] += 1
            return packed

    def _ensure_pool(self):
        with self._lock:
            if self._pool is None and self.workers > 1:
                from repro.parallel.pool import WorkerPool

                self._pool = WorkerPool(self.workers)
            return self._pool

    def _count(self, piece, spec: Dict):
        """Count one slice with this daemon's own execution resources."""
        from repro.core.registry import CountRequest, execute, get_algorithm

        if self.delay:
            time.sleep(self.delay)
        algo = get_algorithm(spec["algorithm"])
        workers = self.workers if algo.parallel else 1
        pool = self._ensure_pool() if workers > 1 else None
        result = execute(CountRequest(
            graph=piece,
            delta=spec["delta"],
            algorithm=spec["algorithm"],
            categories=spec["categories"],
            workers=workers,
            pool=pool,
            params=dict(spec["params"]),
        ))
        with self._lock:
            self.stats["slices_served"] += 1
            self.stats["edges_counted"] += piece.num_edges
        return result

    def describe_stats(self) -> Dict:
        """JSON-safe runtime counters: daemon + resident pool."""
        with self._lock:
            merged: Dict[str, object] = dict(self.stats)
            merged["pid"] = os.getpid()
            merged["workers"] = self.workers
            merged["sources"] = sorted(self._packed)
            merged["pool"] = None if self._pool is None else dict(self._pool.stats)
        return merged

    # -- lifecycle ------------------------------------------------------
    def start(self) -> str:
        """Serve in a background thread; returns the bound address."""
        if self._thread is None:
            self._serving = True
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                kwargs={"poll_interval": 0.1},
                daemon=True,
                name=f"repro-worker-{self.address}",
            )
            self._thread.start()
        return self.address

    def serve_forever(self) -> None:
        """Serve on the caller's thread (the CLI entry) until closed."""
        self._serving = True
        self._server.serve_forever(poll_interval=0.1)

    def _request_shutdown(self) -> None:
        # From a handler thread; serve_forever runs elsewhere, so
        # shutdown() cannot deadlock.  Run async so the reply flushes.
        threading.Thread(target=self.close, daemon=True).start()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._serving:
            # shutdown() handshakes with a running serve_forever loop;
            # calling it when none ever ran would block forever.
            self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=30)
        with self._lock:
            pool, self._pool = self._pool, None
            self._packed.clear()
        if pool is not None:
            pool.close()

    def __enter__(self) -> "WorkerDaemon":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    workers: int = 1,
    sources: Sequence[str] = (),
    delay: float = 0.0,
) -> int:
    """Blocking entry point behind ``repro worker``.

    Prints the bound address (coordinators and scripts parse the
    ``worker listening on HOST:PORT`` line — with ``--port 0`` it is
    the only way to learn the ephemeral port) and serves until
    interrupted.
    """
    daemon = WorkerDaemon(
        host, port,
        workers=workers, sources=sources, delay=delay,
    )
    print(f"worker listening on {daemon.address} (workers={workers})", flush=True)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        daemon.close()
    return 0
