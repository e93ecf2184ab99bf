"""Seeded session graphs for the end-to-end benchmark.

The benchmark owns its inputs: nothing here imports ``repro``, so a
change to the program's own generators cannot change a workload.

A graph is a stationary stream of *sessions*.  An initiator drawn from
a Zipf law over a fixed node population talks to 1-3 uniformly drawn
peers for a geometric number of edges (mean 6) spread over about 400 s;
25% of the edges run peer to peer and 30% are reversed.  Session starts
arrive at a fixed rate, so a smaller graph is a shorter observation of
the same process: per-δ-window structure, and with it the star/pair vs
triangle balance of the kernels, does not depend on the edge count.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Node population and Zipf exponent of the initiators.
NUM_NODES = 40_000
ZIPF_EXPONENT = 1.1
#: Mean edges per session and the time a session lasts (seconds).
SESSION_EDGES = 6.0
SESSION_SECONDS = 400.0
PEER_PEER_SHARE = 0.25
REVERSED_SHARE = 0.30
#: Edges per second of the stream: fixes the time span of a graph.
EDGE_RATE = 0.5

Columns = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _stratified(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` uniforms, one in each of ``count`` equal strata."""
    return (np.arange(count) + rng.random(count)) / count


def _sessions(rng: np.random.Generator, count: int, span: float, weights: np.ndarray) -> Columns:
    """Edges of ``count`` sessions starting in ``[0, span)``.

    The draws that set the kernels' cost are stratified rather than
    independent: each node initiates its Zipf quota of sessions, each
    initiator's session lengths follow the geometric law stratum by
    stratum, and every session gets its own start slot.  A hub's load,
    which dominates triangle time, then varies little from seed to seed.
    """
    quota = np.floor(weights * count).astype(np.int64)
    short = count - int(quota.sum())
    quota[np.argsort(weights * count - quota)[::-1][:short]] += 1
    initiator = np.repeat(np.arange(NUM_NODES), quota)
    first = np.repeat(np.cumsum(quota) - quota, quota)
    rank = np.arange(count) - first
    u = (rank + rng.random(count)) / quota[initiator]
    length = np.maximum(1, np.ceil(np.log1p(-u) / np.log1p(-1.0 / SESSION_EDGES))).astype(np.int64)
    start = span * _stratified(rng, count)[rng.permutation(count)]
    peers = rng.integers(0, NUM_NODES, size=(count, 3))
    num_peers = rng.integers(1, 4, size=count)

    session = np.repeat(np.arange(count), length)
    m = len(session)
    # Each edge names one of its session's peers; a peer-peer edge
    # names a second, different peer when the session has one.
    pick = (rng.random(m) * num_peers[session]).astype(np.int64)
    peer = peers[session, pick]
    other_pick = (pick + 1 + (rng.random(m) * (num_peers[session] - 1)).astype(np.int64)) % num_peers[session]
    peer_peer = (rng.random(m) < PEER_PEER_SHARE) & (num_peers[session] > 1)
    src = np.where(peer_peer, peers[session, other_pick], initiator[session])
    dst = peer
    reverse = rng.random(m) < REVERSED_SHARE
    src, dst = np.where(reverse, dst, src), np.where(reverse, src, dst)
    t = start[session] + rng.uniform(0.0, SESSION_SECONDS, size=m)
    keep = src != dst
    return src[keep], dst[keep], t[keep]


def session_graph(num_edges: int, seed: int) -> Columns:
    """Exactly ``num_edges`` canonical edges: ``(src, dst, t)``.

    Timestamps are integer seconds, sorted; self-loops are removed and
    the stream topped up with further sessions to the exact count.
    Node ids are a seeded permutation of ``range(NUM_NODES)``, so the
    hubs differ from seed to seed.
    """
    if num_edges < 1:
        raise ValueError(f"num_edges must be positive, got {num_edges}")
    rng = np.random.default_rng(seed)
    weights = np.arange(1, NUM_NODES + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    weights /= weights.sum()
    span = num_edges / EDGE_RATE
    parts = []
    have = 0
    while have < num_edges:
        count = int((num_edges - have) / SESSION_EDGES * 1.1) + 16
        part = _sessions(rng, count, span, weights)
        parts.append(part)
        have += len(part[0])
    src, dst, t = (np.concatenate(cols)[:num_edges] for cols in zip(*parts))
    order = np.argsort(t, kind="stable")
    relabel = rng.permutation(NUM_NODES)
    return (
        relabel[src[order]].astype(np.int64),
        relabel[dst[order]].astype(np.int64),
        np.floor(t[order]).astype(np.int64),
    )


def burst_pair(k: int) -> Columns:
    """``k`` same-direction edges on one pair, one second apart.

    With δ >= k - 1 every 3-subset is one instance of the same pair
    motif, so an exact count holds ``C(k, 3)`` in a single cell and
    zero elsewhere.
    """
    return np.zeros(k, dtype=np.int64), np.ones(k, dtype=np.int64), np.arange(k, dtype=np.int64)
