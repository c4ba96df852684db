"""Unit tests for the Trace Explorer (flame graphs, batch analysis)."""

import pytest

from repro.agent.config import MintConfig
from repro.backend.explorer import (
    BatchAnalysis,
    batch_analyze,
    flame_graph,
    flame_graph_from_approximate,
    flame_graph_from_trace,
    render_flame_graph,
)
from repro.framework import MintFramework
from repro.query.result import (
    ApproximateSegment,
    ApproximateTrace,
    QueryResult,
    QueryStatus,
)
from repro.workloads import WorkloadDriver, build_onlineboutique
from tests.conftest import make_chain_trace


def _view(name: str, service: str, depth: int = 0, **extra) -> dict:
    """One rendered approximate span view, explorer-shaped."""
    view = {
        "name": name,
        "service": service,
        "kind": "server",
        "status": "ok",
        "duration": "(1, 9]",
        "attributes": {},
        "depth": depth,
    }
    view.update(extra)
    return view


@pytest.fixture(scope="module")
def mint_with_traffic():
    mint = MintFramework(
        config=MintConfig(edge_case_base_rate=0.0), auto_warmup_traces=10
    )
    driver = WorkloadDriver(build_onlineboutique(), seed=33)
    traces = [t for _, t in driver.traces(80)]
    for i, trace in enumerate(traces):
        mint.process_trace(trace, float(i))
    mint.finalize(100.0)
    return mint, traces


class TestFlameGraphExact:
    def test_chain_becomes_nested_nodes(self):
        trace = make_chain_trace(depth=3)
        roots = flame_graph_from_trace(trace)
        assert len(roots) == 1
        assert roots[0].children[0].children[0].label == "op-2"

    def test_durations_rendered(self):
        trace = make_chain_trace(depth=2)
        roots = flame_graph_from_trace(trace)
        assert roots[0].duration_text.endswith("ms")

    def test_render_text(self, mint_with_traffic):
        mint, traces = mint_with_traffic
        exact_id = sorted(mint.stored_trace_ids())[0]
        text = render_flame_graph(mint.query(exact_id))
        assert "[exact]" in text
        assert "▇" in text
        # Indentation grows with depth.
        lines = text.splitlines()[1:]
        assert any(line.startswith("  ") for line in lines)


class TestFlameGraphApproximate:
    def test_partial_trace_renders(self, mint_with_traffic):
        mint, traces = mint_with_traffic
        partial = next(
            t.trace_id
            for t in traces
            if mint.query(t.trace_id).status == "partial"
        )
        result = mint.query(partial)
        roots = flame_graph(result)
        assert roots
        text = render_flame_graph(result)
        assert "[partial]" in text
        # Approximate durations are bucket intervals.
        assert "(" in text and "]" in text

    def test_miss_renders_empty(self, mint_with_traffic):
        mint, _ = mint_with_traffic
        result = mint.query("e" * 32)
        if result.status == "miss":
            assert flame_graph(result) == []


class TestBatchAnalysis:
    def test_population_counts(self, mint_with_traffic):
        mint, traces = mint_with_traffic
        analysis = batch_analyze(mint.query(t.trace_id) for t in traces)
        assert analysis.traces_seen == len(traces)
        assert analysis.exact_traces + analysis.partial_traces == len(traces)
        assert analysis.spans_available > len(traces)

    def test_paths_aggregated(self, mint_with_traffic):
        mint, traces = mint_with_traffic
        analysis = batch_analyze(mint.query(t.trace_id) for t in traces)
        assert analysis.top_paths
        top_path, count = analysis.top_paths[0]
        assert count >= 1
        assert "frontend" in top_path

    def test_duration_buckets_collected(self, mint_with_traffic):
        mint, traces = mint_with_traffic
        analysis = batch_analyze(mint.query(t.trace_id) for t in traces)
        assert analysis.service_duration_buckets
        some_service = next(iter(analysis.service_duration_buckets))
        assert sum(analysis.service_duration_buckets[some_service].values()) > 0

    def test_misses_skipped(self):
        from repro.backend.querier import QueryResult

        analysis = batch_analyze([QueryResult(trace_id="x", status="miss")])
        assert analysis.traces_seen == 0


class TestFlameGraphPartialAndMiss:
    """PR 5 satellite: explorer behaviour on partial / miss results."""

    def test_miss_is_empty_everywhere(self):
        miss = QueryResult(trace_id="dead" * 8, status=QueryStatus.MISS)
        assert flame_graph(miss) == []
        text = render_flame_graph(miss)
        assert "[miss]" in text
        assert text.count("\n") == 0  # header line only, no bars

    def test_real_miss_from_framework(self, mint_with_traffic):
        mint, _ = mint_with_traffic
        result = mint.query("e" * 32)
        assert result.status is QueryStatus.MISS
        assert flame_graph(result) == []

    def test_empty_segment_renders_no_bars(self):
        approx = ApproximateTrace(
            trace_id="t",
            segments=[ApproximateSegment(topo_pattern_id="p1", nodes_reporting=["n"])],
        )
        partial = QueryResult(
            trace_id="t", status=QueryStatus.PARTIAL, approximate=approx
        )
        assert flame_graph(partial) == []
        assert "[partial]" in render_flame_graph(partial)

    def test_multi_segment_stitched_trace(self):
        """Two stitched segments contribute their own root forests."""
        upstream = ApproximateSegment(
            topo_pattern_id="p-up",
            nodes_reporting=["node-a"],
            spans=[
                _view("GET /checkout", "frontend", depth=0),
                _view("charge", "payments", depth=1),
            ],
            exit_ops=[("shipping", "quote")],
        )
        downstream = ApproximateSegment(
            topo_pattern_id="p-down",
            nodes_reporting=["node-b"],
            spans=[_view("quote", "shipping", depth=0)],
            entry_ops=[("shipping", "quote")],
        )
        approx = ApproximateTrace(trace_id="t", segments=[upstream, downstream])
        roots = flame_graph_from_approximate(approx)
        assert [r.service for r in roots] == ["frontend", "shipping"]
        assert [c.service for c in roots[0].children] == ["payments"]
        text = render_flame_graph(
            QueryResult(trace_id="t", status=QueryStatus.PARTIAL, approximate=approx)
        )
        assert "payments" in text and "shipping" in text

    def test_depth_gaps_fall_back_to_roots(self):
        approx = ApproximateTrace(
            trace_id="t",
            segments=[
                ApproximateSegment(
                    topo_pattern_id="p",
                    nodes_reporting=["n"],
                    spans=[_view("deep", "svc", depth=3), _view("top", "svc", depth=0)],
                )
            ],
        )
        roots = flame_graph_from_approximate(approx)
        assert [r.label for r in roots] == ["deep", "top"]


class TestBatchAnalyzeMixedStatuses:
    """PR 5 satellite: batch_analyze over cursors of mixed outcomes."""

    def _mixed_results(self):
        exact_trace = make_chain_trace(depth=2, trace_id="a" * 32)
        approx = ApproximateTrace(
            trace_id="b" * 32,
            segments=[
                ApproximateSegment(
                    topo_pattern_id="p",
                    nodes_reporting=["n"],
                    spans=[
                        _view("op", "svc-approx", status="error", duration=None),
                        _view("child", "svc-approx", depth=1),
                    ],
                )
            ],
        )
        return [
            QueryResult(
                trace_id=exact_trace.trace_id,
                status=QueryStatus.EXACT,
                trace=exact_trace,
            ),
            QueryResult(
                trace_id="b" * 32, status=QueryStatus.PARTIAL, approximate=approx
            ),
            QueryResult(trace_id="c" * 32, status=QueryStatus.MISS),
        ]

    def test_counts_split_by_status(self):
        analysis = batch_analyze(self._mixed_results())
        assert analysis.traces_seen == 2
        assert analysis.exact_traces == 1
        assert analysis.partial_traces == 1
        assert analysis.spans_available == 4  # 2 exact + 2 approximate

    def test_approximate_error_flags_counted(self):
        analysis = batch_analyze(self._mixed_results())
        assert analysis.service_error_counts["svc-approx"] == 1

    def test_unknown_duration_bucketed_as_mask(self):
        analysis = batch_analyze(self._mixed_results())
        assert analysis.service_duration_buckets["svc-approx"]["<num>"] == 1

    def test_from_cursor_over_live_framework(self, mint_with_traffic):
        mint, traces = mint_with_traffic
        ids = [t.trace_id for t in traces] + ["e" * 32]  # one guaranteed miss
        analysis = BatchAnalysis.from_cursor(mint.query_many(ids))
        assert analysis.traces_seen == len(traces)
        assert analysis.exact_traces + analysis.partial_traces == len(traces)
        by_list = batch_analyze([mint.query(tid) for tid in ids])
        assert analysis.spans_available == by_list.spans_available
        assert analysis.path_counts == by_list.path_counts
