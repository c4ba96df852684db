"""Unit tests for the Mint agent and collector."""

import pytest

from repro.agent.agent import MintAgent
from repro.agent.collector import MintCollector
from repro.agent.config import MintConfig
from repro.agent.reports import BloomReport, ParamsReport, PatternLibraryReport
from repro.model.trace import SubTrace
from tests.conftest import make_span


def local_subtrace(trace_id: str, abnormal: bool = False) -> SubTrace:
    # The status word varies between values, so it parses into a
    # wildcard parameter — where the symptom sampler looks.
    status = "timeout" if abnormal else "ok"
    attrs = {
        "msg": f"request handler finished processing with status {status} today"
    }
    return SubTrace(
        trace_id=trace_id,
        node="node-0",
        spans=[make_span(trace_id=trace_id, attributes=attrs)],
    )


class TestMintConfig:
    def test_defaults_match_paper(self):
        config = MintConfig()
        assert config.similarity_threshold == 0.8
        assert config.alpha == 0.5
        assert config.bloom_buffer_bytes == 4096
        assert config.bloom_fpp == 0.01
        assert config.params_buffer_bytes == 4 * 1024 * 1024
        assert config.pattern_report_interval_s == 60.0
        assert config.warmup_sample_size == 5000

    def test_validation(self):
        with pytest.raises(ValueError):
            MintConfig(similarity_threshold=2.0)
        with pytest.raises(ValueError):
            MintConfig(alpha=0.0)
        with pytest.raises(ValueError):
            MintConfig(bloom_buffer_bytes=0)


class TestMintAgent:
    def test_ingest_wrong_node_rejected(self):
        agent = MintAgent(node="node-1")
        with pytest.raises(ValueError):
            agent.ingest(local_subtrace("1" * 32))

    def test_ingest_populates_libraries_and_buffer(self):
        agent = MintAgent(node="node-0")
        result = agent.ingest(local_subtrace("1" * 32))
        assert result.topo_pattern_id in agent.topo_library
        assert "1" * 32 in agent.params_buffer
        assert len(agent.span_parser.library) >= 1

    def test_symptom_word_marks_sampled(self):
        agent = MintAgent(node="node-0")
        # A normal value first, so the parser learns the wildcard slot.
        agent.ingest(local_subtrace("1" * 32))
        result = agent.ingest(local_subtrace("2" * 32, abnormal=True))
        assert result.sampled
        assert "symptom" in result.fired_samplers

    def test_first_pattern_occurrence_marks_sampled(self):
        agent = MintAgent(node="node-0")
        result = agent.ingest(local_subtrace("3" * 32))
        # Edge-case sampler always samples a brand-new execution path.
        assert "edge-case" in result.fired_samplers

    def test_warm_up_uses_sample_cap(self):
        config = MintConfig(warmup_sample_size=3)
        agent = MintAgent(node="node-0", config=config)
        spans = [make_span(span_id=f"{i:016x}") for i in range(10)]
        agent.warm_up(spans)
        assert agent.is_warmed_up


class CollectingTransport:
    def __init__(self):
        self.reports = []

    def __call__(self, report):
        self.reports.append(report)

    def of_type(self, cls):
        return [r for r in self.reports if isinstance(r, cls)]


class TestMintCollector:
    def test_pattern_report_sent_once_per_new_pattern(self):
        transport = CollectingTransport()
        agent = MintAgent(node="node-0")
        collector = MintCollector(agent, transport)
        collector.process(local_subtrace("1" * 32), now=0.0)
        first = len(transport.of_type(PatternLibraryReport))
        assert first >= 1
        # Same shape again within the report interval: nothing new.
        collector.process(local_subtrace("2" * 32), now=1.0)
        assert len(transport.of_type(PatternLibraryReport)) == first

    def test_pattern_report_interval_respected(self):
        transport = CollectingTransport()
        agent = MintAgent(node="node-0")
        collector = MintCollector(agent, transport)
        collector.process(local_subtrace("1" * 32), now=0.0)
        # New span shape -> new pattern, but interval hasn't elapsed.
        sub = SubTrace(
            trace_id="2" * 32,
            node="node-0",
            spans=[make_span(trace_id="2" * 32, name="other-op")],
        )
        collector.process(sub, now=1.0)
        count_before = len(transport.of_type(PatternLibraryReport))
        collector.tick(now=120.0)
        assert len(transport.of_type(PatternLibraryReport)) == count_before + 1

    def test_sampled_trace_uploads_params(self):
        transport = CollectingTransport()
        agent = MintAgent(node="node-0")
        collector = MintCollector(agent, transport)
        collector.process(local_subtrace("1" * 32, abnormal=True), now=0.0)
        params = transport.of_type(ParamsReport)
        assert len(params) == 1
        assert params[0].trace_id == "1" * 32
        # Uploaded block is freed from the buffer.
        assert "1" * 32 not in agent.params_buffer

    def test_late_sub_trace_of_sampled_trace_uploads(self):
        """A later sub-trace of an already-sampled trace is uploaded as
        well, even when its block holds as many spans as the first."""
        transport = CollectingTransport()
        agent = MintAgent(node="node-0")
        collector = MintCollector(agent, transport)
        trace_id = "1" * 32
        first = SubTrace(
            trace_id=trace_id,
            node="node-0",
            spans=[make_span(trace_id=trace_id, span_id="1" * 16)],
        )
        # A brand-new execution path: the edge-case sampler keeps it.
        assert collector.process(first, now=0.0).sampled
        late = SubTrace(
            trace_id=trace_id,
            node="node-0",
            spans=[
                make_span(
                    trace_id=trace_id, span_id="2" * 16, parent_id="1" * 16, start_time=1.0
                )
            ],
        )
        collector.process(late, now=1.0)
        collector.flush(now=10.0)
        uploaded = [
            record[0]
            for report in transport.of_type(ParamsReport)
            for record in report.records
        ]
        assert uploaded == ["1" * 16, "2" * 16]
        assert trace_id not in agent.params_buffer

    def test_mark_sampled_pulls_buffered_params(self):
        transport = CollectingTransport()
        agent = MintAgent(node="node-0", config=MintConfig(edge_case_base_rate=0.0))
        collector = MintCollector(agent, transport)
        # Feed several normal traces so nothing is auto-sampled...
        for i in range(4, 10):
            collector.process(local_subtrace(f"{i:032x}"), now=float(i))
        before = len(transport.of_type(ParamsReport))
        # ...then the backend marks one sampled retroactively (the first
        # two occurrences of a new path are edge-case sampled by design,
        # so target a later trace).
        target = f"{7:032x}"
        assert collector.request_params(target)
        reports = transport.of_type(ParamsReport)
        assert len(reports) == before + 1
        assert reports[-1].trace_id == target

    def test_flush_drains_blooms(self):
        transport = CollectingTransport()
        agent = MintAgent(node="node-0")
        collector = MintCollector(agent, transport)
        collector.process(local_subtrace("1" * 32), now=0.0)
        collector.flush(now=100.0)
        assert len(transport.of_type(BloomReport)) >= 1

    def test_report_sizes_positive(self):
        transport = CollectingTransport()
        agent = MintAgent(node="node-0")
        collector = MintCollector(agent, transport)
        collector.process(local_subtrace("1" * 32, abnormal=True), now=0.0)
        collector.flush(now=100.0)
        for report in transport.reports:
            assert report.size_bytes() > 0
