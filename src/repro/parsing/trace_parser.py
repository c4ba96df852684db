"""The Trace Parser: inter-trace commonality + variability analysis.

Paper Section 3.3: spans sharing a trace id on one node form a
*sub-trace*; its topology — the order and hierarchy of span patterns —
is encoded as a topo pattern and matched (exactly) against the Topo
Pattern Library.  Trace metadata is then mounted onto the matched
pattern via a Bloom filter (that part lives in :mod:`repro.agent`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from repro.model.encoding import encoded_size
from repro.model.span import SpanKind
from repro.model.trace import SubTrace
from repro.parsing.span_parser import ParsedSpan, SpanParser

# A topo-pattern tree node: (span_pattern_id, (child_node, ...)).
TopoNode = tuple[str, tuple["TopoNode", ...]]


@dataclass(frozen=True)
class TopoPattern:
    """Topology pattern of a sub-trace.

    ``roots`` is the canonical forest over span pattern ids — it encodes
    the parent -> children vector from paper Fig. 8 (children are kept
    as canonically-sorted multisets, so two sub-traces that differ only
    in sibling interleaving share a pattern).  ``entry_ops`` /
    ``exit_ops`` are the (service, operation) pairs the backend uses for
    upstream/downstream stitching (paper Section 6.2).
    """

    roots: tuple[TopoNode, ...]
    entry_ops: tuple[tuple[str, str], ...]
    exit_ops: tuple[tuple[str, str], ...]

    @cached_property
    def pattern_id(self) -> str:
        """Stable content-derived id (shared across agents and runs).

        Computed once per pattern object; repeated topologies never
        reach it because :meth:`TopoPatternLibrary.register` interns
        patterns by structural equality first.
        """
        digest = hashlib.sha1(repr(self).encode("utf-8")).hexdigest()
        return digest[:16]

    def __hash__(self) -> int:
        # Patterns are dict keys on the per-sub-trace hot path; hashing
        # the nested tuples once per object (not per lookup) matters.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.roots, self.entry_ops, self.exit_ops))
            object.__setattr__(self, "_hash", cached)
        return cached

    @property
    def span_pattern_ids(self) -> tuple[str, ...]:
        """All span pattern ids referenced, in pre-order."""
        out: list[str] = []

        def visit(node: TopoNode) -> None:
            out.append(node[0])
            for child in node[1]:
                visit(child)

        for root in self.roots:
            visit(root)
        return tuple(out)

    @property
    def span_count(self) -> int:
        """Number of spans in a sub-trace matching this pattern."""
        return len(self.span_pattern_ids)

    def to_dict(self) -> dict[str, Any]:
        """Serialisable form for upload accounting and backend rebuild."""
        return {
            "pattern_id": self.pattern_id,
            "roots": [_node_to_list(root) for root in self.roots],
            "entry_ops": [list(op) for op in self.entry_ops],
            "exit_ops": [list(op) for op in self.exit_ops],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TopoPattern":
        """Rebuild a pattern from :meth:`to_dict` output."""
        return cls(
            roots=tuple(_node_from_list(item) for item in data["roots"]),
            entry_ops=tuple(tuple(op) for op in data["entry_ops"]),
            exit_ops=tuple(tuple(op) for op in data["exit_ops"]),
        )


def _node_to_list(node: TopoNode) -> list[Any]:
    return [node[0], [_node_to_list(child) for child in node[1]]]


def _node_from_list(item: list[Any]) -> TopoNode:
    return (item[0], tuple(_node_from_list(child) for child in item[1]))


@dataclass
class ParsedSubTrace:
    """A sub-trace reduced to its topo pattern plus per-span parameters."""

    trace_id: str
    node: str
    topo_pattern_id: str
    parsed_spans: list[ParsedSpan] = field(default_factory=list)

    def params_size_bytes(self) -> int:
        """Bytes the sub-trace's parameters occupy in the Params Buffer."""
        return sum(p.params_size_bytes() for p in self.parsed_spans)


class TopoPatternLibrary:
    """The agent-side Pattern Library for topology patterns."""

    def __init__(self) -> None:
        self._patterns: dict[str, TopoPattern] = {}
        self._match_counts: dict[str, int] = {}
        # Structural interning: repeated topologies resolve to their id
        # by tuple hashing instead of a repr + SHA1 per sub-trace.
        self._interned: dict[TopoPattern, str] = {}
        self._total_matches = 0

    def __len__(self) -> int:
        return len(self._patterns)

    def __contains__(self, pattern_id: str) -> bool:
        return pattern_id in self._patterns

    def register(self, pattern: TopoPattern) -> str:
        """Exact-match lookup or insertion (paper: 'Matching or updating')."""
        pattern_id = self._interned.get(pattern)
        if pattern_id is None:
            pattern_id = pattern.pattern_id
            self._interned[pattern] = pattern_id
            if pattern_id not in self._patterns:
                self._patterns[pattern_id] = pattern
        self._match_counts[pattern_id] = self._match_counts.get(pattern_id, 0) + 1
        self._total_matches += 1
        return pattern_id

    def get(self, pattern_id: str) -> TopoPattern:
        """Pattern by id; raises KeyError when unknown."""
        return self._patterns[pattern_id]

    def match_count(self, pattern_id: str) -> int:
        """Sub-traces matched to this pattern so far."""
        return self._match_counts.get(pattern_id, 0)

    def total_matches(self) -> int:
        """All sub-traces processed (running counter; the edge-case
        sampler reads this per sub-trace, so it must not re-sum)."""
        return self._total_matches

    def patterns(self) -> list[TopoPattern]:
        """All patterns in insertion order."""
        return list(self._patterns.values())

    def snapshot(self) -> tuple[str, ...]:
        """Immutable view of the interned pattern ids, insertion order.

        Content-hashed ids make this a full identity summary: equal
        tuples mean equal libraries, compared without the pattern
        objects."""
        return tuple(self._patterns)

    def size_bytes(self) -> int:
        """Upload size of the whole library."""
        return encoded_size([p.to_dict() for p in self._patterns.values()])


class TraceParser:
    """Groups parsed spans into sub-traces and extracts topo patterns."""

    def __init__(self, span_parser: SpanParser) -> None:
        self.span_parser = span_parser
        self.library = TopoPatternLibrary()

    def parse_sub_trace(self, sub_trace: SubTrace) -> ParsedSubTrace:
        """Parse every span, then encode and register the topology."""
        if not sub_trace.spans:
            raise ValueError("cannot parse an empty sub-trace")
        parsed = {span.span_id: self.span_parser.parse(span) for span in sub_trace}
        pattern = extract_topo_pattern(sub_trace, parsed)
        pattern_id = self.library.register(pattern)
        ordered = sorted(
            parsed.values(), key=lambda p: (p.start_time, p.span_id)
        )
        return ParsedSubTrace(
            trace_id=sub_trace.trace_id,
            node=sub_trace.node,
            topo_pattern_id=pattern_id,
            parsed_spans=ordered,
        )


# Sub-trace topologies repeat heavily under steady traffic; memoising
# each subtree's repr string avoids re-rendering the same nested tuples
# for every sub-trace's canonical child sort.  Bounded so a pathological
# stream of novel topologies cannot grow it without limit.
_NODE_REPR_CACHE: dict[TopoNode, str] = {}
_NODE_REPR_CACHE_CAP = 1 << 16


def _node_sort_key(node: TopoNode) -> str:
    key = _NODE_REPR_CACHE.get(node)
    if key is None:
        key = repr(node)
        if len(_NODE_REPR_CACHE) < _NODE_REPR_CACHE_CAP:
            _NODE_REPR_CACHE[node] = key
    return key


def _span_order(span) -> tuple[float, str]:
    """Deterministic span order (matches ``SubTrace.local_children``)."""
    return (span.start_time, span.span_id)


# Canonical sub-trace shape -> TopoPattern.  A topo pattern is fully
# determined by each span's pattern id, its parent's position (or
# absence) and its exit marker — never by timing or span ids — so the
# built pattern can be reused across sub-traces, agents and runs.
_TOPO_PATTERN_CACHE: dict[tuple, TopoPattern] = {}
_TOPO_PATTERN_CACHE_CAP = 1 << 14


def extract_topo_pattern(
    sub_trace: SubTrace, parsed: dict[str, ParsedSpan]
) -> TopoPattern:
    """Encode a sub-trace's topology as a :class:`TopoPattern`.

    ``parsed`` maps span id -> :class:`ParsedSpan` (for pattern ids).
    Children are sorted by canonical subtree signature so sibling
    interleaving does not create spurious patterns.
    """

    spans = sub_trace.spans
    if len(spans) == 1:
        # Single-span fragments are the most common sub-trace shape;
        # no child index or sorting is needed.
        span = spans[0]
        roots = ((parsed[span.span_id].pattern_id, ()),)
        entry_ops = ((span.service, span.name),)
        if span.kind in (SpanKind.CLIENT, SpanKind.PRODUCER):
            exit_ops: tuple[tuple[str, str], ...] = (
                (str(span.attributes.get("peer.service", "")), span.name),
            )
        else:
            exit_ops = ()
        return TopoPattern(roots=roots, entry_ops=entry_ops, exit_ops=exit_ops)
    # Multi-span sub-traces: resolve the canonical shape from the cache
    # before paying for tree construction and canonical sorts.
    index_by_id = {span.span_id: i for i, span in enumerate(spans)}
    shape_parts = []
    for span in spans:
        if span.kind in (SpanKind.CLIENT, SpanKind.PRODUCER):
            marker = str(span.attributes.get("peer.service", ""))
        else:
            marker = None
        parent_id = span.parent_id
        shape_parts.append(
            (
                parsed[span.span_id].pattern_id,
                -1 if parent_id is None else index_by_id.get(parent_id, -1),
                marker,
            )
        )
    shape_key = tuple(shape_parts)
    cached = _TOPO_PATTERN_CACHE.get(shape_key)
    if cached is not None:
        return cached
    # One pass builds the parent -> children index; the per-span
    # ``local_children`` scans this replaces were O(spans) each.
    by_parent: dict[str | None, list] = {}
    for span in spans:
        by_parent.setdefault(span.parent_id, []).append(span)
    local_ids = {span.span_id for span in spans}

    def build(span) -> TopoNode:
        kids = by_parent.get(span.span_id)
        if kids:
            if len(kids) > 1:
                kids = sorted(kids, key=_span_order)
            children = [build(kid) for kid in kids]
            if len(children) > 1:
                children.sort(key=_node_sort_key)
            return (parsed[span.span_id].pattern_id, tuple(children))
        return (parsed[span.span_id].pattern_id, ())

    entries = sorted(
        (
            s
            for s in spans
            if s.parent_id is None or s.parent_id not in local_ids
        ),
        key=_span_order,
    )
    roots = tuple(sorted((build(s) for s in entries), key=_node_sort_key))
    entry_ops = tuple(sorted({(s.service, s.name) for s in entries}))
    # Exit operations record the *callee* (peer.service attribute when
    # instrumented, else the operation name alone) so the backend can
    # match them against downstream segments' entry operations.
    exit_ops = tuple(
        sorted(
            {
                (str(s.attributes.get("peer.service", "")), s.name)
                for s in sub_trace
                if s.kind in (SpanKind.CLIENT, SpanKind.PRODUCER)
            }
        )
    )
    pattern = TopoPattern(roots=roots, entry_ops=entry_ops, exit_ops=exit_ops)
    if len(_TOPO_PATTERN_CACHE) < _TOPO_PATTERN_CACHE_CAP:
        _TOPO_PATTERN_CACHE[shape_key] = pattern
    return pattern
