"""``repro serve`` — the resident motif-counting service.

The serving tier over the counting engine: named graphs published to
shared memory once (:mod:`repro.serve.catalog`), identical requests
coalesced into single pool runs (:mod:`repro.serve.service`), typed
protocol errors and quota/deadline enforcement
(:mod:`repro.serve.protocol`), exposed over unix-socket JSONL and HTTP
by an asyncio daemon (:mod:`repro.serve.daemon`) with a blocking
client (:mod:`repro.serve.client`).  Start one with ``repro serve``;
query with ``repro query`` or :class:`ServeClient`.
"""

from repro.serve.catalog import GraphCatalog, GraphLease
from repro.serve.client import ServeClient
from repro.serve.daemon import ServeDaemon, run_daemon
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    canonical_counts_bytes,
    classify_error,
    decode_counts,
    encode_counts,
    error_response,
    ok_response,
    parse_count,
    raise_from_response,
)
from repro.serve.service import MotifService, ServiceConfig

__all__ = [
    "GraphCatalog",
    "GraphLease",
    "MotifService",
    "PROTOCOL_VERSION",
    "ServeClient",
    "ServeDaemon",
    "ServiceConfig",
    "canonical_counts_bytes",
    "classify_error",
    "decode_counts",
    "encode_counts",
    "error_response",
    "ok_response",
    "parse_count",
    "raise_from_response",
    "run_daemon",
]
