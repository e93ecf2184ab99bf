"""Out-of-core storage: packed binary columnar files + shard-halo counting.

``format`` packs a temporal graph into a versioned, mmap-reopenable
binary columnar file (``repro pack`` → ``graph.rgz``); ``sharded``
counts such a graph in time shards with δ-overlap halos so peak memory
tracks the shard budget rather than the file size.
"""

from repro.storage.format import (
    FORMAT_VERSION,
    MAGIC,
    PackedGraph,
    is_packed_file,
    open_packed,
    pack_graph,
    read_header,
)
from repro.storage.sharded import DEFAULT_SHARD_EDGES, Shard, ShardedGraph, Unit

__all__ = [
    "DEFAULT_SHARD_EDGES",
    "FORMAT_VERSION",
    "MAGIC",
    "PackedGraph",
    "Shard",
    "ShardedGraph",
    "Unit",
    "is_packed_file",
    "open_packed",
    "pack_graph",
    "read_header",
]
