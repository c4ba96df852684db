"""The frozen read-path oracle: the recomputing bodies, kept verbatim.

These are the bodies the read path had before segment-joined template
reconstruction, the one-digest Bloom probe, memoised segment renders
and per-pattern exact-span plans: the token-walk
``StringTemplate.reconstruct``, ``BloomFilter.__contains__`` with its
own digest, every per-filter ``trace_id in stored.filter`` scan, the
unmemoised ``Querier._render_segment`` with the pairwise-set
connectivity check and the list-queue stitch, and the per-span
``reconstruct_exact_span``.  ``run.py query --check`` compares the new
query surface against the same ``Querier`` it is built on, so it cannot
see a change made to both sides; :func:`install` patches this file
under a live deployment instead and the optimised path must answer
deeply equal.  Test-only.  Do not optimise this file.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.backend.querier import Querier
from repro.backend.sharded import MergedStorageView
from repro.backend.storage import StorageEngine, StoredBloom
from repro.bloom.bloom_filter import _BIT_MASKS, BloomFilter, _digest_pair
from repro.model.span import Span, SpanKind, SpanStatus
from repro.model.trace import Trace
from repro.parsing.span_parser import (
    DURATION_KEY,
    ParsedSpan,
    SpanPattern,
    approximate_span_view,
)
from repro.parsing.string_patterns import (
    WILDCARD,
    StringTemplate,
    template_from_text,
)
from repro.parsing.trace_parser import TopoNode, TopoPattern
from repro.query.result import ApproximateSegment, ApproximateTrace


# ----------------------------------------------------------------------
# parsing/string_patterns.py
# ----------------------------------------------------------------------
def reconstruct(self: StringTemplate, params: Sequence[str]) -> str:
    """Substitute ``params`` back into the wildcards.

    The inverse of :func:`extract`: for a matching value ``v``,
    ``reconstruct(extract(v)) == v``.
    """
    if len(params) != self.wildcard_count:
        raise ValueError(
            f"template has {self.wildcard_count} wildcards, "
            f"got {len(params)} parameters"
        )
    out: list[str] = []
    param_iter = iter(params)
    for token in self.tokens:
        if token == WILDCARD:
            out.append(next(param_iter))
        else:
            out.append(token)
    return "".join(out)


# ----------------------------------------------------------------------
# parsing/span_parser.py
# ----------------------------------------------------------------------
def reconstruct_exact_span(pattern: SpanPattern, parsed: ParsedSpan) -> Span:
    """Rebuild the original span from its pattern and parameters.

    Inverse of :meth:`SpanParser.parse`: operates on pattern text alone
    so the backend does not need parser state.
    """
    attributes: dict[str, Any] = {}
    duration = 0.0
    for key, kind, pattern_text in pattern.attributes:
        param = parsed.params[key]
        if kind == "string":
            template = template_from_text(pattern_text)
            if not isinstance(param, list):
                raise TypeError(f"string attribute {key!r} carries {type(param)}")
            value: Any = reconstruct(template, param)
        else:
            if isinstance(param, list):
                raise TypeError(f"numeric attribute {key!r} carries a list")
            value = float(param)
        if key == DURATION_KEY:
            duration = float(value)
        else:
            attributes[key] = value
    return Span(
        trace_id=parsed.trace_id,
        span_id=parsed.span_id,
        parent_id=parsed.parent_id,
        name=pattern.name,
        service=pattern.service,
        kind=SpanKind(pattern.kind),
        start_time=parsed.start_time,
        duration=duration,
        status=SpanStatus(pattern.status),
        node=parsed.node,
        attributes=attributes,
    )


# ----------------------------------------------------------------------
# bloom/bloom_filter.py
# ----------------------------------------------------------------------
def bloom_contains(self: BloomFilter, item: str) -> bool:
    h1, h2 = _digest_pair(item)
    bits = self._bits
    masks = _BIT_MASKS
    m = self.bit_count
    pos = h1 % m
    step = h2 % m
    for _ in range(self.hash_count):
        if not bits[pos >> 3] & masks[pos & 7]:
            return False
        pos += step
        if pos >= m:
            pos -= m
    return True


# ----------------------------------------------------------------------
# backend/storage.py, backend/sharded.py, query/planner.py: the scans
# ----------------------------------------------------------------------
def engine_patterns_matching_trace(
    self: StorageEngine, trace_id: str
) -> list[StoredBloom]:
    """All stored Bloom filters that (probably) contain ``trace_id``."""
    return [b for b in self.blooms if bloom_contains(b.filter, trace_id)]


def merged_prescreen_candidates(self: MergedStorageView, trace_id: str) -> set[str]:
    candidates: set[str] = set(self._prescreen_saturated)
    for pattern_id, groups in self._merged_blooms.items():
        if any(bloom_contains(merged, trace_id) for merged in groups.values()):
            candidates.add(pattern_id)
    return candidates


def merged_patterns_matching_trace(
    self: MergedStorageView, trace_id: str
) -> list[StoredBloom]:
    candidates = merged_prescreen_candidates(self, trace_id)
    if not candidates:
        return []
    return [
        stored
        for shard in self.shards
        for stored in shard.blooms
        if stored.topo_pattern_id in candidates
        and bloom_contains(stored.filter, trace_id)
    ]


# ----------------------------------------------------------------------
# backend/querier.py
# ----------------------------------------------------------------------
def _reconstruct_exact(self: Querier, trace_id: str) -> Trace | None:
    records = self.storage.params.get(trace_id, [])
    spans = []
    for record in records:
        pattern = self.storage.span_patterns.get(record[3])
        if pattern is None:
            continue
        parsed = ParsedSpan.from_compact_record(trace_id, record, pattern)
        spans.append(reconstruct_exact_span(pattern, parsed))
    if not spans:
        return None
    spans.sort(key=lambda s: (s.start_time, s.span_id))
    return Trace(trace_id=trace_id, spans=spans)


def _reconstruct_approximate(self: Querier, trace_id: str) -> ApproximateTrace | None:
    matches = self.storage.patterns_matching_trace(trace_id)
    if not matches:
        return None
    by_pattern: dict[str, list[str]] = {}
    for stored in matches:
        by_pattern.setdefault(stored.topo_pattern_id, []).append(stored.node)
    segments: list[ApproximateSegment] = []
    for pattern_id, nodes in sorted(by_pattern.items()):
        pattern = self.storage.topo_patterns.get(pattern_id)
        if pattern is None:
            continue
        segments.append(_render_segment(self, pattern, sorted(set(nodes))))
    if not segments:
        return None
    segments = _drop_unconnected_false_positives(segments)
    ordered = _stitch_segments(segments)
    return ApproximateTrace(trace_id=trace_id, segments=ordered)


def _render_segment(
    self: Querier, pattern: TopoPattern, nodes: list[str]
) -> ApproximateSegment:
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
    return ApproximateSegment(
        topo_pattern_id=pattern.pattern_id,
        nodes_reporting=nodes,
        spans=spans,
        entry_ops=[tuple(op) for op in pattern.entry_ops],
        exit_ops=[tuple(op) for op in pattern.exit_ops],
    )


def _drop_unconnected_false_positives(
    segments: list[ApproximateSegment],
) -> list[ApproximateSegment]:
    if len(segments) <= 1:
        return segments
    connected: set[int] = set()
    for i, a in enumerate(segments):
        for j, b in enumerate(segments):
            if i == j:
                continue
            if set(a.exit_ops) & set(b.entry_ops):
                connected.add(i)
                connected.add(j)
    if len(connected) < 2:
        return segments
    return [seg for i, seg in enumerate(segments) if i in connected]


def _stitch_segments(segments: list[ApproximateSegment]) -> list[ApproximateSegment]:
    if len(segments) <= 1:
        return segments
    entry_index: dict[tuple[str, str], list[int]] = {}
    for i, seg in enumerate(segments):
        for op in seg.entry_ops:
            entry_index.setdefault(op, []).append(i)
    successors: dict[int, set[int]] = {i: set() for i in range(len(segments))}
    indegree = [0] * len(segments)
    for i, seg in enumerate(segments):
        for op in seg.exit_ops:
            for j in entry_index.get(op, []):
                if j != i and j not in successors[i]:
                    successors[i].add(j)
                    indegree[j] += 1
    ordered: list[int] = []
    ready = sorted(i for i in range(len(segments)) if indegree[i] == 0)
    visited: set[int] = set()
    while ready:
        current = ready.pop(0)
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


# ----------------------------------------------------------------------
# Putting the oracle under a live deployment
# ----------------------------------------------------------------------
def install(monkeypatch) -> None:
    """Route every read through the bodies above (undone by the fixture).

    The scans are patched on their classes and the reconstruction
    entry points on ``Querier``, so every querier the planes build —
    per plan, per shard probe — runs the oracle whichever storage view
    it is pointed at.
    """
    monkeypatch.setattr(StorageEngine, "patterns_matching_trace", engine_patterns_matching_trace)
    monkeypatch.setattr(MergedStorageView, "prescreen_candidates", merged_prescreen_candidates)
    monkeypatch.setattr(
        MergedStorageView, "patterns_matching_trace", merged_patterns_matching_trace
    )
    monkeypatch.setattr(Querier, "_reconstruct_exact", _reconstruct_exact)
    monkeypatch.setattr(Querier, "_reconstruct_approximate", _reconstruct_approximate)
