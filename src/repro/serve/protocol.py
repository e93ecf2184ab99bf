"""Wire protocol of the ``repro serve`` daemon.

One protocol, two transports: newline-delimited JSON objects on the
unix socket (one request per line, one response per line, ordered), and
the same JSON bodies over a minimal HTTP/1.1 surface (``POST
/v1/count`` etc.) for curl-able deployments.  Everything here is pure
data — no sockets, no threads — so both the asyncio daemon and the
blocking client share a single codec, and the tests can exercise
round-trips without a running server.

Requests
--------
A request is a JSON object with an ``op``:

``count``
    ``{"op": "count", "graph": <catalog name>, "delta": <float>,
    "algorithm": "fast", ...}`` — optional knobs mirror
    :func:`repro.core.api.count_motifs` (``categories``, ``workers``,
    ``backend``, ``seed``, ``n_samples``, ``params``) plus serving
    fields: ``tenant`` (quota bucket, default ``"default"``),
    ``timeout`` (seconds; becomes a deadline that cancels pool work)
    and ``id`` (caller trace id, echoed back).
``ping`` / ``stats`` / ``catalog`` / ``algorithms``
    Introspection; ``catalog`` lists the named graphs and their
    versions, ``stats`` the service/pool counters.

Responses
---------
``{"ok": true, "id": ..., "result": ...}`` on success;
``{"ok": false, "id": ..., "error": {"code": ..., "status": ...,
"message": ...}}`` on failure, where ``code`` is a stable string from
:data:`ERROR_CODES` and ``status`` the matching HTTP status.  The
client re-raises the mapped :mod:`repro.errors` class, so catching
:class:`~repro.errors.QuotaExceededError` works identically against a
local call and a remote daemon.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Tuple, Type

import numpy as np

from repro.core.counters import MotifCounts
from repro.errors import (
    BackpressureError,
    ClusterDegradedError,
    DatasetError,
    DeadlineExceededError,
    GraphFormatError,
    ParallelExecutionError,
    QuotaExceededError,
    ReproError,
    UnknownGraphError,
    ValidationError,
    check_delta,
)

#: Protocol revision, embedded in every response envelope.
PROTOCOL_VERSION = "repro.serve/1"

#: Exception -> (code, HTTP status), most specific first: the first
#: ``isinstance`` match wins, so subclasses must precede their bases
#: (everything precedes :class:`ReproError`).
ERROR_CODES: Tuple[Tuple[Type[BaseException], str, int], ...] = (
    (UnknownGraphError, "unknown_graph", 404),
    (DatasetError, "unknown_dataset", 404),
    (QuotaExceededError, "quota_exceeded", 429),
    (BackpressureError, "overloaded", 429),
    (DeadlineExceededError, "deadline_exceeded", 504),
    (ClusterDegradedError, "cluster_degraded", 503),
    (GraphFormatError, "bad_request", 400),
    (ValidationError, "bad_request", 400),
    (ParallelExecutionError, "execution_failed", 500),
    (ReproError, "error", 500),
)

#: code -> exception class the *client* re-raises.  Codes shared by
#: several classes resolve to the most general sensible one —
#: ``bad_request`` re-raises as :class:`ValidationError` (a
#: :class:`ValueError`), whatever sibling produced it server-side.
_CODE_TO_ERROR: Dict[str, Type[BaseException]] = {}
for _cls, _code, _ in ERROR_CODES:
    _CODE_TO_ERROR.setdefault(_code, _cls)
_CODE_TO_ERROR["bad_request"] = ValidationError

#: Fallback for non-repro exceptions (a daemon bug, not a bad request).
INTERNAL_ERROR = ("internal", 500)


def classify_error(exc: BaseException) -> Tuple[str, int]:
    """The ``(code, http_status)`` pair for an exception."""
    for cls, code, status in ERROR_CODES:
        if isinstance(exc, cls):
            return code, status
    return INTERNAL_ERROR


def error_response(exc: BaseException, request_id: Optional[str] = None) -> Dict:
    """The full failure envelope for an exception.

    Exceptions carrying a ``retry_after`` hint (an open circuit
    breaker's :class:`~repro.errors.ClusterDegradedError`) surface it
    as an extra error field, so clients — and HTTP adapters via the
    ``Retry-After`` header — know when to come back.
    """
    code, status = classify_error(exc)
    error: Dict = {"code": code, "status": status, "message": str(exc)}
    retry_after = getattr(exc, "retry_after", None)
    if retry_after is not None:
        error["retry_after"] = float(retry_after)
    return {
        "ok": False,
        "version": PROTOCOL_VERSION,
        "id": request_id,
        "error": error,
    }


def ok_response(result: object, request_id: Optional[str] = None) -> Dict:
    """The success envelope around an op's result payload."""
    return {"ok": True, "version": PROTOCOL_VERSION, "id": request_id, "result": result}


def raise_from_response(response: Dict) -> Dict:
    """Client side: return a success envelope or re-raise its error.

    Unknown codes (a newer server) degrade to :class:`ReproError`
    rather than being swallowed.
    """
    if not isinstance(response, dict) or "ok" not in response:
        raise ValidationError(f"malformed response envelope: {response!r}")
    if response["ok"]:
        return response
    error = response.get("error") or {}
    cls = _CODE_TO_ERROR.get(error.get("code"), ReproError)
    message = error.get("message", "server error")
    if cls is ClusterDegradedError:
        raise cls(message, retry_after=float(error.get("retry_after", 0.0)))
    raise cls(message)


# ----------------------------------------------------------------------
# MotifCounts <-> JSON
# ----------------------------------------------------------------------

def _json_safe(value):
    """Coerce numpy scalars/arrays hiding in ``meta`` to JSON types."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def encode_counts(counts: MotifCounts) -> Dict:
    """A :class:`~repro.core.counters.MotifCounts` as a JSON-safe dict.

    The full unified result — grid, stderr, exactness, timing, and
    provenance meta — so a served response carries everything a direct
    :func:`~repro.core.api.count_motifs` call returns.
    """
    return {
        "format": "repro.serve.counts/1",
        "algorithm": counts.algorithm,
        "delta": float(counts.delta),
        "exact": bool(counts.is_exact),
        "grid": counts.grid.tolist(),
        "stderr": None if counts.stderr is None else counts.stderr.tolist(),
        "elapsed_seconds": float(counts.elapsed_seconds),
        "phase_seconds": {k: float(v) for k, v in counts.phase_seconds.items()},
        "meta": _json_safe(counts.meta),
    }


def decode_counts(payload: Dict) -> MotifCounts:
    """Rebuild a :class:`MotifCounts` from :func:`encode_counts` output."""
    if not isinstance(payload, dict) or payload.get("format") != "repro.serve.counts/1":
        raise ValidationError(
            f"unknown counts payload format {payload.get('format') if isinstance(payload, dict) else payload!r}"
        )
    grid = np.asarray(payload["grid"])
    if payload["exact"]:
        # Outside input: a fractional or out-of-int64 cell is refused,
        # never truncated or wrapped.
        if grid.dtype.kind != "i":
            raise ValidationError(
                f"exact counts payload needs int64 cells, got {grid.dtype}"
            )
        grid = grid.astype(np.int64)
    else:
        grid = grid.astype(np.float64)
    stderr = payload.get("stderr")
    return MotifCounts(
        grid=grid,
        algorithm=payload["algorithm"],
        delta=payload["delta"],
        elapsed_seconds=payload.get("elapsed_seconds", 0.0),
        meta=dict(payload.get("meta") or {}),
        stderr=None if stderr is None else np.asarray(stderr, dtype=np.float64),
        phase_seconds=dict(payload.get("phase_seconds") or {}),
        is_exact=payload["exact"],
    )


def canonical_counts_bytes(counts: MotifCounts) -> bytes:
    """The *answer* part of a result, canonically serialized.

    What "byte-identical" means across transports: the counts grid,
    stderr, δ and exactness — everything that is a function of the
    query — with provenance (timing, cache hits, and the algorithm
    *label*, which the parallel runtimes decorate with the worker
    count, e.g. ``fast`` -> ``hare[2]``) excluded, since a served
    answer legitimately records a different execution path than a
    direct call.
    """
    return json.dumps(
        {
            "delta": float(counts.delta),
            "exact": bool(counts.is_exact),
            "grid": counts.grid.tolist(),
            "stderr": None if counts.stderr is None else counts.stderr.tolist(),
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode()


# ----------------------------------------------------------------------
# count-op parsing
# ----------------------------------------------------------------------

#: Fields a ``count`` op accepts (anything else is a typo -> 400).
#: ``workers`` is deliberately absent: parallelism degree is a service
#: deployment choice, not a per-request knob.
COUNT_FIELDS = frozenset({
    "op", "graph", "delta", "algorithm", "categories", "backend",
    "seed", "n_samples", "params", "tenant", "timeout", "id",
})


def parse_count(message: Dict) -> Dict:
    """Validate a ``count`` request's shape; return normalized fields.

    Shape checks, plus δ's range so a NaN or negative δ never reaches
    the dispatcher — other semantic validation (unknown algorithm,
    capability violations) is the registry's job and surfaces as
    :class:`~repro.errors.ValidationError` from execution, mapped to
    the same ``bad_request`` code.
    """
    unknown = set(message) - COUNT_FIELDS
    if unknown:
        raise ValidationError(f"unknown count field(s) {sorted(unknown)}")
    graph = message.get("graph")
    if not isinstance(graph, str) or not graph:
        raise ValidationError("count requires a 'graph' catalog name")
    if "delta" not in message:
        raise ValidationError("count requires a 'delta'")
    try:
        delta = float(message["delta"])
    except (TypeError, ValueError):
        raise ValidationError(f"delta must be a number, got {message['delta']!r}") from None
    check_delta(delta)
    params = message.get("params")
    if params is None:
        params = {}
    if not isinstance(params, dict):
        raise ValidationError(f"params must be an object, got {params!r}")
    timeout = message.get("timeout")
    if timeout is not None:
        try:
            timeout = float(timeout)
        except (TypeError, ValueError):
            raise ValidationError(f"timeout must be a number, got {timeout!r}") from None
        if timeout <= 0:
            raise ValidationError(f"timeout must be positive, got {timeout}")
    tenant = message.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise ValidationError(f"tenant must be a non-empty string, got {tenant!r}")
    request_id = message.get("id")
    if request_id is not None and not isinstance(request_id, str):
        raise ValidationError(f"id must be a string, got {request_id!r}")
    return {
        "graph": graph,
        "delta": delta,
        "algorithm": message.get("algorithm", "fast"),
        "categories": message.get("categories", "all"),
        "backend": message.get("backend", "auto"),
        "seed": message.get("seed"),
        "n_samples": message.get("n_samples"),
        "params": params,
        "tenant": tenant,
        "timeout": timeout,
        "id": request_id,
    }
