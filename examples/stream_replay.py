"""Streaming replay: incremental sliding-window motif counting.

Temporal graphs are naturally streams of timestamped edges.  This
example replays a synthetic communication network through the
incremental :class:`~repro.core.streaming.StreamingMotifEngine` with a
sliding window, prints the per-checkpoint JSON lines the ``repro
stream`` CLI emits, and verifies the central guarantee: every
checkpoint is **bit-identical** to a batch recount of the live edge
set — without the engine ever recounting the window from scratch.

Run:  python examples/stream_replay.py
(exits 1 if the final streaming counts differ from the recount)
"""

import json

from repro import StreamRequest, TemporalGraph, count_motifs, open_stream
from repro.graph.generators import powerlaw_temporal_graph


def main() -> int:
    # A synthetic power-law session graph, replayed in time order —
    # exactly what a message bus delivering one day of traffic looks
    # like from the counter's perspective.
    graph = powerlaw_temporal_graph(2_000, 30_000, seed=7)
    edges = list(graph.internal_edges())
    span = edges[-1][2] - edges[0][2]
    delta, window = 3_600.0, span * 0.25

    print(f"replaying {len(edges):,} edges (span {span:,.0f}s) "
          f"with delta={delta:g}, window={window:,.0f}s\n")

    engine = open_stream(
        StreamRequest(delta=delta, window=window, checkpoint_every=5_000)
    )
    for cp in engine.replay(edges):
        # Each checkpoint carries running totals, window bookkeeping
        # and the ingest/expire/count wall-clock split.
        print(json.dumps(cp.as_dict()))

    # The punchline: streaming counts equal a full batch recount of
    # the live window, cell for cell.
    final = engine.checkpoint()
    live = TemporalGraph(engine.live_edges())
    batch = count_motifs(live, delta)
    identical = (final.counts.grid == batch.grid).all()
    print(f"\nlive window: {live.num_edges:,} edges "
          f"({final.edges_expired:,} expired along the way)")
    print(f"streaming == batch recount: {bool(identical)}")
    print(f"total motifs in window: {final.counts.total():,}")
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
