"""Wire protocol of the ``repro worker`` daemon (coordinator ↔ worker).

The distributed runtime reuses the serving layer's versioned JSONL
envelopes (:mod:`repro.serve.protocol`): every request is one JSON
object per line, every response the same ``ok_response`` /
``error_response`` envelope the ``repro serve`` daemon emits, and
count results travel as the ``repro.serve.counts/1`` payload of
:func:`~repro.serve.protocol.encode_counts`.  What this module adds is
the *worker* op vocabulary and the edge-column shipping codec — pure
data, no sockets, so the daemon, the coordinator, and the tests share
one implementation.

Ops
---
``hello``
    ``{"op": "hello"}`` → worker identity: pid, pool size, protocol
    revision, and the packed sources it currently holds open.
``ping``
    ``{"op": "ping"}`` → ``{"pong": true, "pid": ...}``.  The health
    heartbeat (:mod:`repro.distributed.health`): cheap enough to probe
    before every (re)admission, and the coordinator measures its round
    trip as the worker's latency sample.
``open``
    ``{"op": "open", "source": <path>}`` → ``{"held": bool, ...}``.
    The locality probe: a worker that can open the coordinator's
    ``.rgz`` path answers ``held: true`` (with edge/node counts the
    coordinator cross-checks) and will accept ``count_slice`` jobs by
    canonical edge range; a worker without the file answers ``held:
    false`` — *not* an error — and receives shipped edge columns
    instead.  A present-but-corrupt file is an error.
``count_slice``
    ``{"op": "count_slice", "source": <path>, "lo": i, "hi": j,
    "spec": {...}}`` → counts for canonical edge range ``[lo, hi)`` of
    the held packed graph.  ``spec`` carries the resolved counting
    knobs (see :func:`encode_count_spec`).
``count_edges``
    Same ``spec``, but the edges arrive inline as base64 columns
    (:func:`encode_edge_slice`) — the remote-placement fallback.
``stats``
    Worker runtime counters, including the resident pool's stats
    (``jobs_aborted``, ``worker_restarts``, …) — what ``repro stats
    --runtime --cluster`` prints and the distributed bench records.
``shutdown``
    Acknowledge, then stop serving (used by tests and the bench for
    clean teardown; production teardown is SIGTERM).
"""

from __future__ import annotations

import base64
import json
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.graph.temporal_graph import TemporalGraph

# One protocol, one envelope: the worker daemon frames its responses
# with the exact serve-layer codec (re-exported for convenience).
from repro.serve.protocol import (  # noqa: F401  (re-exports)
    PROTOCOL_VERSION,
    decode_counts,
    encode_counts,
    error_response,
    ok_response,
    raise_from_response,
)

#: Worker op vocabulary (anything else is a typo → ``bad_request``).
WORKER_OPS = (
    "hello", "ping", "open", "count_slice", "count_edges", "stats", "shutdown",
)

#: Ceiling on one JSONL message, enforced **symmetrically**: inbound
#: via :func:`read_message_line`, outbound via :func:`encode_message`
#: (both the coordinator's requests and the worker's responses).
#: Shipped edge slices dominate: three int64/float64 columns at a
#: one-million-edge shard are ~32 MB of base64, so the cap is far
#: above the serve daemon's 1 MiB.
MAX_MESSAGE = 128 << 20

#: Fields a count spec may carry — the resolved :class:`CountRequest`
#: knobs that affect the answer.  Sharding/cluster fields are
#: deliberately absent: a worker counts exactly the slice it was handed.
SPEC_FIELDS = frozenset({"delta", "algorithm", "categories", "params"})

#: Fields older coordinators send that never changed a count (the
#: kernel ``backend``, HARE's ``thrd``/``schedule``): accepted and
#: dropped by :func:`parse_count_spec`.
LEGACY_SPEC_FIELDS = frozenset({"backend", "thrd", "schedule"})


def encode_count_spec(request) -> Dict:
    """The JSON-safe counting knobs of a resolved ``CountRequest``.

    Only answer-shaping fields travel: ``workers``/``pool`` are the
    worker daemon's own deployment choice (counts are bit-identical
    across parallelism degrees — the repo-wide invariant), and the
    shard plan lives with the coordinator.
    """
    return {
        "delta": float(request.delta),
        "algorithm": request.algorithm,
        "categories": request.categories,
        "params": {str(k): v for k, v in request.params.items()},
    }


def parse_count_spec(spec: object) -> Dict:
    """Validate a wire count spec's shape; returns the normalized dict."""
    if not isinstance(spec, dict):
        raise ValidationError(f"count spec must be an object, got {spec!r}")
    out = {key: value for key, value in spec.items() if key not in LEGACY_SPEC_FIELDS}
    unknown = set(out) - SPEC_FIELDS
    if unknown:
        raise ValidationError(f"unknown count spec field(s) {sorted(unknown)}")
    if "delta" not in out:
        raise ValidationError("count spec requires a 'delta'")
    out["delta"] = float(out["delta"])
    out.setdefault("algorithm", "fast")
    out.setdefault("categories", "all")
    params = out.setdefault("params", {})
    if not isinstance(params, dict):
        raise ValidationError(f"spec params must be an object, got {params!r}")
    return out


# ----------------------------------------------------------------------
# edge-column shipping (remote placement fallback)
# ----------------------------------------------------------------------

def _pack_column(arr: np.ndarray) -> Dict:
    """One edge column as ``{dtype, data}`` with little-endian bytes."""
    contiguous = np.ascontiguousarray(arr)
    le = contiguous.astype(contiguous.dtype.newbyteorder("<"), copy=False)
    return {
        "dtype": le.dtype.str,
        "data": base64.b64encode(le.tobytes()).decode("ascii"),
    }


def _unpack_column(payload: object, *, expect: int) -> np.ndarray:
    if not isinstance(payload, dict) or "dtype" not in payload or "data" not in payload:
        raise ValidationError(f"malformed edge column {payload!r}")
    try:
        raw = base64.b64decode(payload["data"], validate=True)
        arr = np.frombuffer(raw, dtype=np.dtype(payload["dtype"]))
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"cannot decode edge column: {exc}") from exc
    if len(arr) != expect:
        raise ValidationError(
            f"edge column length {len(arr)} != declared num_edges {expect}"
        )
    return arr


def encode_edge_slice(graph: TemporalGraph, lo: int, hi: int) -> Dict:
    """Canonical edge range ``[lo, hi)`` as a shippable JSON payload.

    Slicing a contiguous canonical range preserves sortedness and
    tie-breaking, so the receiver can rebuild the slice with
    :meth:`TemporalGraph.from_canonical_arrays` and count it exactly as
    a local slice would count — node ids keep the parent's space.
    """
    if not (0 <= lo <= hi <= graph.num_edges):
        raise ValidationError(
            f"slice [{lo}, {hi}) out of range for {graph.num_edges} edges"
        )
    return {
        "format": "repro.distributed.edges/1",
        "num_edges": hi - lo,
        "num_nodes": graph.num_nodes,
        "src": _pack_column(graph.sources[lo:hi]),
        "dst": _pack_column(graph.destinations[lo:hi]),
        "t": _pack_column(graph.timestamps[lo:hi]),
    }


def decode_edge_slice(payload: object) -> TemporalGraph:
    """Rebuild the shipped slice as a zero-copy canonical graph."""
    if not isinstance(payload, dict) or payload.get("format") != "repro.distributed.edges/1":
        raise ValidationError(
            f"unknown edge payload format "
            f"{payload.get('format') if isinstance(payload, dict) else payload!r}"
        )
    num_edges = int(payload["num_edges"])
    src = _unpack_column(payload["src"], expect=num_edges)
    dst = _unpack_column(payload["dst"], expect=num_edges)
    t = _unpack_column(payload["t"], expect=num_edges)
    return TemporalGraph.from_canonical_arrays(
        src, dst, t, num_nodes=int(payload["num_nodes"])
    )


def edge_slice_bytes(payload: Dict) -> int:
    """Approximate wire size of one shipped slice (for stats)."""
    return sum(len(payload[col]["data"]) for col in ("src", "dst", "t"))


def parse_cluster(cluster) -> Tuple[str, ...]:
    """Normalize a cluster spec to a tuple of ``host:port`` addresses.

    Accepts the CLI string form (``"host:port,host:port"``) or any
    sequence of such strings; validates each entry has a numeric port.
    """
    if cluster is None:
        raise ValidationError("cluster must name at least one host:port worker")
    if isinstance(cluster, str):
        entries = [part.strip() for part in cluster.split(",")]
    else:
        entries = [str(part).strip() for part in cluster]
    entries = [part for part in entries if part]
    if not entries:
        raise ValidationError("cluster must name at least one host:port worker")
    for entry in entries:
        host, sep, port = entry.rpartition(":")
        if not sep or not host:
            raise ValidationError(
                f"cluster worker {entry!r} is not of the form host:port"
            )
        try:
            port_num = int(port)
        except ValueError:
            raise ValidationError(
                f"cluster worker {entry!r} has a non-numeric port"
            ) from None
        if not (0 < port_num < 65536):
            raise ValidationError(f"cluster worker {entry!r} port out of range")
    return tuple(entries)


def split_address(address: str) -> Tuple[str, int]:
    """``"host:port"`` → ``(host, port)`` (validated)."""
    (entry,) = parse_cluster(address)
    host, _, port = entry.rpartition(":")
    return host, int(port)


def encode_message(payload: Dict, *, limit: int = MAX_MESSAGE) -> bytes:
    """One JSONL frame, length-capped before it touches a socket.

    The outbound half of the frame cap: :func:`read_message_line`
    protects a *reader* from an unbounded peer, this protects the
    *peer* from us — a worker whose result would exceed the limit
    raises here (mapped to a typed error envelope, which always fits)
    instead of streaming a frame the coordinator is guaranteed to
    reject after buffering 128 MiB of it.
    """
    data = json.dumps(payload).encode() + b"\n"
    if len(data) > limit:
        shown = f"{limit >> 20} MiB" if limit >= (1 << 20) else f"{limit}-byte"
        raise ValidationError(
            f"message of {len(data)} bytes exceeds the {shown} protocol limit"
        )
    return data


def read_message_line(stream) -> Optional[bytes]:
    """One length-capped JSONL line from a blocking binary stream.

    Returns ``None`` at EOF; raises :class:`ValidationError` when the
    peer sends a line past :data:`MAX_MESSAGE` (protecting the daemon
    from unbounded buffering, same contract as the serve daemon's
    asyncio ``limit``).
    """
    line = stream.readline(MAX_MESSAGE + 1)
    if not line:
        return None
    if len(line) > MAX_MESSAGE:
        raise ValidationError(
            f"message exceeds the {MAX_MESSAGE >> 20} MiB protocol limit"
        )
    return line
