"""Query logic: exact traces for sampled requests, approximate traces
for everything else (paper Section 4.3 and Fig. 10).

For a queried trace id, the querier checks every stored Bloom filter.
Matching filters identify the topo patterns the trace's sub-traces
belong to; those segments are stitched into an *approximate trace* by
matching exit operations against entry operations (paper Section 6.2).
If the trace was sampled, its exact parameters are substituted into the
patterns to reconstruct the original spans.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.backend.storage import StorageEngine
from repro.model.trace import Trace
from repro.parsing.span_parser import approximate_span_view, span_from_record
from repro.parsing.trace_parser import TopoNode, TopoPattern
from repro.query.result import (
    ApproximateSegment,
    ApproximateTrace,
    QueryResult,
    QueryStatus,
)

__all__ = [
    "ApproximateSegment",
    "ApproximateTrace",
    "Querier",
    "QueryResult",
    "QueryStatus",
]


class Querier:
    """Answers trace-id queries against a :class:`StorageEngine`.

    Answers share the store's memos (exact spans, segment renders,
    stitched orders) with other results across queries and plans, not
    only within a batch: results are read-only."""

    def __init__(self, storage: StorageEngine) -> None:
        self.storage = storage

    def query(self, trace_id: str) -> QueryResult:
        """Return the exact trace, an approximate trace, or a miss."""
        if self.storage.has_params(trace_id):
            trace = self._reconstruct_exact(trace_id)
            if trace is not None:
                return QueryResult(
                    trace_id=trace_id, status=QueryStatus.EXACT, trace=trace
                )
        approximate = self._reconstruct_approximate(trace_id)
        if approximate is not None:
            return QueryResult(
                trace_id=trace_id, status=QueryStatus.PARTIAL, approximate=approximate
            )
        return QueryResult(trace_id=trace_id, status=QueryStatus.MISS)

    # ------------------------------------------------------------------
    # Exact reconstruction
    # ------------------------------------------------------------------
    def _reconstruct_exact(self, trace_id: str) -> Trace | None:
        """Rebuilt once per stored state (``storage.exact_traces``); a
        trace with a sealed bucket is never memoised, so a sealed read
        always reads its block.  Answers are fresh :class:`Trace` objects."""
        memo = self.storage.exact_traces
        spans = memo.get(trace_id)
        if spans is None:
            records = self.storage.params.get(trace_id, [])
            patterns = self.storage.span_patterns
            spans = []
            for record in records:
                pattern = patterns.get(record[3])
                if pattern is None:
                    continue
                spans.append(span_from_record(trace_id, record, pattern))
            if not spans:
                return None
            spans.sort(key=lambda s: (s.start_time, s.span_id))
            if not self.storage.params.is_sealed(trace_id):
                memo[trace_id] = spans
        return Trace(trace_id=trace_id, spans=list(spans))

    # ------------------------------------------------------------------
    # Approximate reconstruction
    # ------------------------------------------------------------------
    def _reconstruct_approximate(self, trace_id: str) -> ApproximateTrace | None:
        matches = self.storage.patterns_matching_trace(trace_id)
        if not matches:
            return None
        by_pattern: dict[str, list[str]] = {}
        for stored in matches:
            by_pattern.setdefault(stored.topo_pattern_id, []).append(stored.node)
        key = tuple(sorted(by_pattern))
        orders = self.storage.segment_orders
        order = orders.get(key)
        if order is None:
            order = orders[key] = self._segment_order(key)
        if not order:
            return None
        segments = [
            ApproximateSegment(pattern_id, sorted(set(by_pattern[pattern_id])), *render)
            for pattern_id, render in order
        ]
        return ApproximateTrace(trace_id=trace_id, segments=segments)

    def _segment_order(self, pattern_ids: tuple[str, ...]) -> tuple:
        """The stitched segments for one matched topo-pattern set, as
        ``((pattern_id, render), ...)``: false-positive pruning and
        stitching read only the entry/exit operations of the renders,
        so the kept order is a pure function of the sorted ids and is
        memoised in ``storage.segment_orders`` beside the renders (both
        are dropped together)."""
        renders = self.storage.segment_renders
        segments: list[ApproximateSegment] = []
        for pattern_id in pattern_ids:
            render = renders.get(pattern_id)
            if render is None:
                pattern = self.storage.topo_patterns.get(pattern_id)
                if pattern is None:
                    continue
                render = renders[pattern_id] = self._render_segment(pattern)
            segments.append(ApproximateSegment(pattern_id, [], *render))
        if not segments:
            return ()
        ordered = _stitch_segments(_drop_unconnected_false_positives(segments))
        return tuple((seg.topo_pattern_id, renders[seg.topo_pattern_id]) for seg in ordered)

    def _render_segment(self, pattern: TopoPattern) -> tuple[list, list, list]:
        """The pattern-only part of a segment: ``(spans, entry_ops,
        exit_ops)``, a pure function of the topo pattern, its span
        patterns and their numeric ranges.  Memoised in
        ``storage.segment_renders`` and *shared* by every result
        showing the pattern (results are read-only); only
        ``nodes_reporting`` is per query."""
        spans: list[dict[str, Any]] = []

        def visit(node: TopoNode, depth: int) -> None:
            span_pattern = self.storage.span_patterns.get(node[0])
            if span_pattern is not None:
                ranges = self.storage.numeric_ranges.get(node[0])
                view = approximate_span_view(span_pattern, ranges)
                view["depth"] = depth
                spans.append(view)
            for child in node[1]:
                visit(child, depth + 1)

        for root in pattern.roots:
            visit(root, 0)
        entry_ops = [tuple(op) for op in pattern.entry_ops]
        return spans, entry_ops, [tuple(op) for op in pattern.exit_ops]


def _drop_unconnected_false_positives(
    segments: list[ApproximateSegment],
) -> list[ApproximateSegment]:
    """Upstream/downstream verification of Bloom matches (Section 3.3).

    Bloom filters can falsely place a trace in an unrelated pattern.
    A false-positive segment usually has no entry/exit relationship
    with any other matched segment, so when at least two segments *are*
    mutually connected, segments connected to nothing are discarded.
    (With zero or one connection in total there is nothing to verify
    against, and every match is kept — the no-miss property wins.)
    """
    if len(segments) <= 1:
        return segments
    entry_index = _entry_index(segments)
    connected: set[int] = set()
    for i, seg in enumerate(segments):
        for op in seg.exit_ops:
            for j in entry_index.get(op, ()):
                if j != i:
                    connected.add(i)
                    connected.add(j)
    if len(connected) < 2:
        return segments
    return [seg for i, seg in enumerate(segments) if i in connected]


def _entry_index(segments: list[ApproximateSegment]) -> dict[tuple[str, str], list[int]]:
    """Entry operation -> positions of the segments it enters."""
    entry_index: dict[tuple[str, str], list[int]] = {}
    for i, seg in enumerate(segments):
        for op in seg.entry_ops:
            entry_index.setdefault(op, []).append(i)
    return entry_index


def _stitch_segments(segments: list[ApproximateSegment]) -> list[ApproximateSegment]:
    """Order segments by upstream/downstream matching (Section 6.2).

    Segment A precedes segment B when one of A's exit operations names
    B's entry operation (matching callee service and operation name).
    A topological-ish greedy order is produced; unmatched segments keep
    their original relative order at the end.
    """
    if len(segments) <= 1:
        return segments
    entry_index = _entry_index(segments)
    successors: dict[int, set[int]] = {i: set() for i in range(len(segments))}
    indegree = [0] * len(segments)
    for i, seg in enumerate(segments):
        for op in seg.exit_ops:
            for j in entry_index.get(op, ()):
                if j != i and j not in successors[i]:
                    successors[i].add(j)
                    indegree[j] += 1
    ordered: list[int] = []
    ready = deque(i for i in range(len(segments)) if indegree[i] == 0)
    visited: set[int] = set()
    while ready:
        current = ready.popleft()
        if current in visited:
            continue
        visited.add(current)
        ordered.append(current)
        for nxt in sorted(successors[current]):
            indegree[nxt] -= 1
            if indegree[nxt] <= 0 and nxt not in visited:
                ready.append(nxt)
    for i in range(len(segments)):
        if i not in visited:
            ordered.append(i)
    return [segments[i] for i in ordered]
