"""Unit tests for the trace parser (topology patterns).

The agent runs the inter-trace stage per sub-trace, so the sub-trace
tests drive it through :meth:`MintAgent.ingest`.
"""

import pytest

from repro.agent.agent import MintAgent
from repro.model.span import SpanKind
from repro.model.trace import SubTrace
from repro.parsing.span_parser import SpanParser
from repro.parsing.trace_parser import TopoPattern, extract_topo_pattern
from tests.conftest import make_chain_trace, make_span


def make_subtrace(trace_id: str, shape: str = "chain") -> SubTrace:
    if shape == "chain":
        trace = make_chain_trace(depth=3, trace_id=trace_id)
        return trace.sub_traces()[0]
    root = make_span(trace_id=trace_id, span_id="0" * 16)
    kids = [
        make_span(
            trace_id=trace_id,
            span_id=f"{i}" * 16,
            parent_id=root.span_id,
            name=f"child-{i}",
            service=f"kid-{i}",
            start_time=float(i),
        )
        for i in (1, 2)
    ]
    return SubTrace(trace_id=trace_id, node="node-0", spans=[root] + kids)


class TestTraceParser:
    def test_same_shape_shares_pattern(self):
        agent = MintAgent(node="node-0")
        a = agent.ingest(make_subtrace("1" * 32))
        b = agent.ingest(make_subtrace("2" * 32))
        assert a.topo_pattern_id == b.topo_pattern_id
        assert len(agent.topo_library) == 1

    def test_different_shapes_split(self):
        agent = MintAgent(node="node-0")
        a = agent.ingest(make_subtrace("1" * 32, "chain"))
        b = agent.ingest(make_subtrace("2" * 32, "fan"))
        assert a.topo_pattern_id != b.topo_pattern_id
        assert len(agent.topo_library) == 2

    def test_empty_subtrace_rejected(self):
        agent = MintAgent(node="n")
        with pytest.raises(ValueError, match="empty sub-trace"):
            agent.ingest(SubTrace(trace_id="9" * 32, node="n", spans=[]))
        assert len(agent.topo_library) == 0
        assert "9" * 32 not in agent.params_buffer

    def test_match_counts_accumulate(self):
        agent = MintAgent(node="node-0")
        for i in range(5):
            agent.ingest(make_subtrace(f"{i:032x}"))
        (pattern,) = agent.topo_library.patterns()
        assert agent.topo_library.match_count(pattern.pattern_id) == 5
        assert agent.topo_library.total_matches() == 5

    def test_sibling_order_does_not_split_patterns(self):
        agent = MintAgent(node="node-0")
        # Same fan-out, children arriving in different start order.
        sub_a = make_subtrace("1" * 32, "fan")
        sub_b = make_subtrace("2" * 32, "fan")
        sub_b.spans[1], sub_b.spans[2] = sub_b.spans[2], sub_b.spans[1]
        a = agent.ingest(sub_a)
        b = agent.ingest(sub_b)
        assert a.topo_pattern_id == b.topo_pattern_id


class TestTopoPattern:
    def test_span_pattern_ids_preorder(self):
        agent = MintAgent(node="node-0")
        result = agent.ingest(make_subtrace("3" * 32, "fan"))
        pattern = agent.topo_library.get(result.topo_pattern_id)
        assert pattern.span_count == 3
        assert len(pattern.span_pattern_ids) == 3

    def test_serialisation_round_trip(self):
        agent = MintAgent(node="node-0")
        result = agent.ingest(make_subtrace("4" * 32, "fan"))
        pattern = agent.topo_library.get(result.topo_pattern_id)
        rebuilt = TopoPattern.from_dict(pattern.to_dict())
        assert rebuilt == pattern
        assert rebuilt.pattern_id == pattern.pattern_id

    def test_entry_and_exit_ops(self):
        trace_id = "5" * 32
        root = make_span(trace_id=trace_id, span_id="0" * 16, service="gw", name="GET /")
        client = make_span(
            trace_id=trace_id,
            span_id="1" * 16,
            parent_id=root.span_id,
            service="gw",
            name="call-downstream",
            kind=SpanKind.CLIENT,
            attributes={"peer.service": "backend"},
        )
        sub = SubTrace(trace_id=trace_id, node="node-0", spans=[root, client])
        parsed = {s.span_id: SpanParser().parse(s) for s in sub}
        pattern = extract_topo_pattern(sub, parsed)
        assert ("gw", "GET /") in pattern.entry_ops
        assert ("backend", "call-downstream") in pattern.exit_ops
