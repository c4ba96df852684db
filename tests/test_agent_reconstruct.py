"""Unit tests for the pattern reconstruct interface (paper Section 4.1)."""

from repro.agent.agent import MintAgent
from repro.agent.collector import MintCollector
from repro.backend.backend import MintBackend
from repro.model.trace import SubTrace
from tests.conftest import make_span


def subtrace(trace_id: str, name: str = "GET /items") -> SubTrace:
    return SubTrace(
        trace_id=trace_id,
        node="node-0",
        spans=[make_span(trace_id=trace_id, name=name)],
    )


class TestReconstructInterface:
    def test_libraries_reset(self):
        agent = MintAgent(node="node-0")
        agent.ingest(subtrace("1" * 32))
        assert len(agent.span_parser.library) > 0
        agent.reconstruct_patterns()
        assert len(agent.span_parser.library) == 0
        assert len(agent.topo_library) == 0
        assert not agent.is_warmed_up

    def test_mounted_metadata_flushed_not_lost(self):
        flushed = []
        agent = MintAgent(node="node-0", on_bloom_flush=flushed.append)
        agent.ingest(subtrace("1" * 32))
        agent.reconstruct_patterns()
        assert flushed, "active Bloom filters must be reported before reset"

    def test_agent_keeps_working_after_rebuild(self):
        agent = MintAgent(node="node-0")
        agent.ingest(subtrace("1" * 32, name="old-operation"))
        agent.reconstruct_patterns()
        result = agent.ingest(subtrace("2" * 32, name="new-operation"))
        assert result.topo_pattern_id in agent.topo_library

    def test_end_to_end_queries_survive_rebuild(self):
        backend = MintBackend()
        agent = MintAgent(node="node-0")
        collector = MintCollector(agent, backend.receive)
        backend.register_collector(collector)
        collector.process(subtrace("1" * 32), now=0.0)
        collector.flush(now=10.0)
        # System change: rebuild, then new-shape traffic.
        agent.reconstruct_patterns()
        collector.process(subtrace("2" * 32, name="v2-operation"), now=20.0)
        collector.flush(now=30.0)
        # Both the pre- and post-rebuild traces remain queryable.
        assert backend.query("1" * 32).is_hit
        assert backend.query("2" * 32).is_hit

    def test_edge_case_sampler_follows_new_library(self):
        agent = MintAgent(node="node-0")
        agent.ingest(subtrace("1" * 32))
        agent.reconstruct_patterns()
        assert agent.edge_case_sampler.library is agent.topo_library
