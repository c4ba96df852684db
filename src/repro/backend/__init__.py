"""Mint backend: distributed trace storage engine and querier.

Receives collector reports, merges pattern libraries across nodes,
indexes Bloom filters, stores sampled traces' parameters, and answers
trace queries with exact or approximate traces (paper Section 4.3).
"""

from repro.backend.backend import MintBackend
from repro.backend.explorer import (
    BatchAnalysis,
    FlameNode,
    batch_analyze,
    flame_graph,
    render_flame_graph,
)
from repro.backend.querier import ApproximateSegment, ApproximateTrace, Querier, QueryResult
from repro.backend.sharded import (
    MergedStorageView,
    ShardedBackend,
    ShardSummary,
    shard_for_key,
)
from repro.backend.storage import StorageEngine, StoredBloom

__all__ = [
    "StorageEngine",
    "StoredBloom",
    "Querier",
    "QueryResult",
    "ApproximateTrace",
    "ApproximateSegment",
    "MintBackend",
    "MergedStorageView",
    "ShardedBackend",
    "ShardSummary",
    "shard_for_key",
    "FlameNode",
    "flame_graph",
    "render_flame_graph",
    "BatchAnalysis",
    "batch_analyze",
]
