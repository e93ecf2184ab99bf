"""Blocking client for the ``repro serve`` daemon.

Speaks the unix-socket JSONL transport (see
:mod:`repro.serve.protocol`); one persistent connection, requests
answered in order.  Server-side failures re-raise as their original
:mod:`repro.errors` classes, so remote and local calls are
interchangeable:

.. code-block:: python

    with ServeClient("/run/repro.sock") as client:
        counts = client.count("wiki", delta=3600.0, algorithm="fast")
        counts.per_motif()  # a real MotifCounts, grids included

Thread-safe (one request on the wire at a time, guarded by a lock);
for high fan-in, open one client per thread instead.

A daemon restart mid-session is transparent: when the connection drops
between requests, :meth:`request` reconnects with a short exponential
backoff and resends — safe because every serve op is idempotent.  The
initial connect in ``__init__`` is still a single attempt, so pointing
the client at a dead socket fails fast.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Dict, List, Optional

from repro.core.counters import MotifCounts
from repro.distributed.health import RetryPolicy
from repro.errors import ReproError, ValidationError
from repro.serve.protocol import decode_counts, raise_from_response

#: Reconnect schedule for a dropped daemon connection: a handful of
#: quick attempts (50 ms, 100 ms, ... capped at 1 s) covers a daemon
#: restart without making a genuinely-dead server feel hung.
RECONNECT_POLICY = RetryPolicy(
    connect_timeout=10.0,
    max_attempts=5,
    backoff_base=0.05,
    backoff_max=1.0,
    jitter=0.0,
)


class ServeClient:
    """See the module docstring."""

    def __init__(
        self,
        socket_path: str,
        *,
        timeout: Optional[float] = 60.0,
        reconnect_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.socket_path = socket_path
        self._timeout = timeout
        self._policy = reconnect_policy or RECONNECT_POLICY
        #: Successful mid-session reconnects (a restarted daemon).
        self.reconnects = 0
        self._sock, self._file = self._connect()
        self._lock = threading.Lock()
        self._closed = False

    def _connect(self):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self._timeout)
        try:
            sock.connect(self.socket_path)
        except OSError as exc:
            sock.close()
            raise ReproError(f"cannot connect to {self.socket_path!r}: {exc}") from exc
        return sock, sock.makefile("rb")

    def _teardown(self) -> None:
        try:
            self._file.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    # -- plumbing -------------------------------------------------------
    def request(self, message: Dict) -> Dict:
        """One raw round-trip: returns the envelope or raises its error.

        A transport failure (send error, or the server closing the
        connection before answering) tears the socket down and retries
        on a fresh connection, up to the reconnect policy's budget.
        """
        data = json.dumps(message).encode() + b"\n"
        with self._lock:
            if self._closed:
                raise ReproError("client is closed")
            line = self._roundtrip(data)
        try:
            envelope = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid response JSON: {exc}") from exc
        return raise_from_response(envelope)

    def _roundtrip(self, data: bytes) -> bytes:
        """Send one line, read one line; reconnect-and-resend on failure.

        Caller holds the lock.  Each serve op is a pure query, so
        resending after a dropped connection cannot double-apply
        anything server-side.
        """
        attempts = self._policy.max_attempts
        for attempt in range(attempts):
            if attempt:
                time.sleep(self._policy.delay(attempt - 1, salt=self.socket_path))
                try:
                    self._sock, self._file = self._connect()
                except ReproError as exc:
                    if attempt == attempts - 1:
                        raise ReproError(
                            f"connection to {self.socket_path!r} failed and could not be "
                            f"re-established after {attempts} attempts: {exc}"
                        ) from exc
                    continue
                self.reconnects += 1
            try:
                self._sock.sendall(data)
                line = self._file.readline()
            except OSError as exc:
                self._teardown()
                if attempt == attempts - 1:
                    raise ReproError(
                        f"connection to {self.socket_path!r} failed: {exc}"
                    ) from exc
                continue
            if not line:
                self._teardown()
                if attempt == attempts - 1:
                    raise ReproError(
                        f"server at {self.socket_path!r} closed the connection"
                    )
                continue
            return line
        raise ReproError(f"connection to {self.socket_path!r} failed")  # pragma: no cover

    # -- ops ------------------------------------------------------------
    def count(
        self,
        graph: str,
        delta: float,
        *,
        algorithm: str = "fast",
        categories: str = "all",
        seed: Optional[int] = None,
        n_samples: Optional[int] = None,
        params: Optional[Dict] = None,
        tenant: str = "default",
        timeout: Optional[float] = None,
        request_id: Optional[str] = None,
    ) -> MotifCounts:
        """Count motifs on a catalog graph; mirrors
        :func:`repro.core.api.count_motifs` for the served knobs."""
        message: Dict = {
            "op": "count", "graph": graph, "delta": delta,
            "algorithm": algorithm, "categories": categories, "tenant": tenant,
        }
        if seed is not None:
            message["seed"] = seed
        if n_samples is not None:
            message["n_samples"] = n_samples
        if params:
            message["params"] = params
        if timeout is not None:
            message["timeout"] = timeout
        if request_id is not None:
            message["id"] = request_id
        return decode_counts(self.request(message)["result"])

    def ping(self) -> Dict:
        return self.request({"op": "ping"})["result"]

    def stats(self) -> Dict:
        return self.request({"op": "stats"})["result"]

    def catalog(self) -> List[Dict]:
        return self.request({"op": "catalog"})["result"]["graphs"]

    def algorithms(self) -> List[Dict]:
        return self.request({"op": "algorithms"})["result"]["algorithms"]

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._file.close()
            finally:
                self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
