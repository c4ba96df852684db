"""Unit tests for the backend: storage engine, querier, coordination."""

from repro.agent.agent import MintAgent
from repro.agent.collector import MintCollector
from repro.agent.config import MintConfig
from repro.backend.backend import MintBackend
from repro.model.trace import SubTrace
from tests.conftest import make_chain_trace, make_span


def wire_single_node(config: MintConfig | None = None):
    """One agent + collector wired straight into a backend."""
    backend = MintBackend()
    agent = MintAgent(node="node-0", config=config)
    collector = MintCollector(agent, backend.receive, config=config)
    backend.register_collector(collector)
    return backend, collector


def simple_subtrace(trace_id: str, abnormal: bool = False) -> SubTrace:
    attrs = {"msg": "downstream timeout detected"} if abnormal else {}
    return SubTrace(
        trace_id=trace_id,
        node="node-0",
        spans=[make_span(trace_id=trace_id, attributes=attrs)],
    )


class TestStorageAccounting:
    def test_storage_grows_with_reports(self):
        backend, collector = wire_single_node()
        assert backend.storage_bytes() == 0
        collector.process(simple_subtrace("1" * 32), now=0.0)
        collector.flush(now=100.0)
        assert backend.storage_bytes() > 0
        assert backend.storage.pattern_bytes > 0
        assert backend.storage.bloom_bytes > 0

    def test_duplicate_patterns_cost_nothing(self):
        backend, collector = wire_single_node()
        collector.process(simple_subtrace("1" * 32), now=0.0)
        collector.flush(now=100.0)
        cost = backend.storage.pattern_bytes
        # Re-reporting the same patterns (forced via a second collector)
        # must not grow pattern storage.
        agent2 = MintAgent(node="node-0")
        collector2 = MintCollector(agent2, backend.receive)
        collector2.process(simple_subtrace("2" * 32), now=0.0)
        collector2.flush(now=100.0)
        assert backend.storage.pattern_bytes == cost

    def test_params_deduped_per_span(self):
        backend, collector = wire_single_node()
        collector.process(simple_subtrace("1" * 32, abnormal=True), now=0.0)
        size = backend.storage.params_bytes
        # Marking again must not double-store.
        collector.mark_sampled("1" * 32)
        assert backend.storage.params_bytes == size


class TestQueryStatuses:
    def test_sampled_trace_query_exact(self):
        backend, collector = wire_single_node()
        collector.process(simple_subtrace("1" * 32, abnormal=True), now=0.0)
        collector.flush(now=100.0)
        result = backend.query("1" * 32)
        assert result.status == "exact"
        assert result.trace is not None
        assert result.trace.spans[0].attributes["msg"] == "downstream timeout detected"

    def test_unsampled_trace_query_partial(self):
        config = MintConfig(edge_case_base_rate=0.0)
        backend, collector = wire_single_node(config)
        # First occurrence is edge-case sampled; use later ones.
        for i in range(1, 6):
            collector.process(simple_subtrace(f"{i:032x}"), now=float(i))
        collector.flush(now=100.0)
        result = backend.query(f"{4:032x}")
        assert result.status == "partial"
        approx = result.approximate
        assert approx is not None
        assert approx.span_count >= 1
        assert approx.segments[0].spans[0]["service"] == "catalog"

    def test_unknown_trace_query_miss(self):
        backend, collector = wire_single_node()
        collector.process(simple_subtrace("1" * 32), now=0.0)
        collector.flush(now=100.0)
        # A trace id that was never ingested is (almost surely) a miss.
        result = backend.query("e" * 32)
        assert result.status in ("miss", "partial")  # bloom fp possible
        assert result.status == "miss" or result.trace is None


class TestCrossAgentCoordination:
    def test_notify_pulls_params_from_other_nodes(self):
        backend = MintBackend()
        collectors = {}
        for node in ("node-0", "node-1"):
            agent = MintAgent(
                node=node, config=MintConfig(edge_case_base_rate=0.0)
            )
            collector = MintCollector(agent, backend.receive)
            backend.register_collector(collector)
            collectors[node] = collector
        trace = make_chain_trace(
            depth=4, trace_id="a1" * 16, nodes=("node-0", "node-1")
        )
        for sub in trace.sub_traces():
            collectors[sub.node].process(sub, now=0.0)
        # Suppose node-0 decides to sample: all nodes must upload.
        backend.notify_sampled(trace.trace_id, origin_node="node-0")
        collectors["node-0"].mark_sampled(trace.trace_id)
        result = backend.query(trace.trace_id)
        assert result.status == "exact"
        assert len(result.trace.spans) == 4

    def test_notify_idempotent(self):
        backend, collector = wire_single_node()
        collector.process(simple_subtrace("1" * 32), now=0.0)
        backend.notify_sampled("1" * 32)
        size = backend.storage.params_bytes
        backend.notify_sampled("1" * 32)
        assert backend.storage.params_bytes == size

    def test_notify_meter_charged(self):
        charges = []
        backend = MintBackend(notify_meter=lambda node, b: charges.append((node, b)))
        agent = MintAgent(node="node-0")
        collector = MintCollector(agent, backend.receive)
        backend.register_collector(collector)
        backend.notify_sampled("1" * 32, origin_node="other-node")
        assert charges and charges[0][0] == "node-0"

    def test_notify_meter_charges_each_non_origin_collector_once(self):
        charges = []
        backend = MintBackend(notify_meter=lambda node, b: charges.append((node, b)))
        nodes = [f"node-{i}" for i in range(4)]
        for node in nodes:
            backend.register_collector(MintCollector(MintAgent(node=node), backend.receive))
        backend.notify_sampled("1" * 32, origin_node="node-1")
        # One fixed-size control message per collector minus the origin.
        assert sorted(node for node, _ in charges) == ["node-0", "node-2", "node-3"]
        assert {nbytes for _, nbytes in charges} == {64}

    def test_notify_dedup_with_multiple_collectors(self):
        charges = []
        backend = MintBackend(notify_meter=lambda node, b: charges.append((node, b)))
        for node in ("node-0", "node-1", "node-2"):
            backend.register_collector(MintCollector(MintAgent(node=node), backend.receive))
        backend.notify_sampled("1" * 32, origin_node="node-0")
        first = list(charges)
        assert len(first) == 2
        # A repeat — same or different origin — must not re-charge or
        # re-notify: _notified_trace_ids dedups per trace id.
        backend.notify_sampled("1" * 32, origin_node="node-2")
        backend.notify_sampled("1" * 32)
        assert charges == first
        assert "1" * 32 in backend.storage.sampled_trace_ids

    def test_notify_marks_every_collector_sampled(self):
        backend = MintBackend()
        collectors = [
            MintCollector(MintAgent(node=f"node-{i}"), backend.receive)
            for i in range(3)
        ]
        for collector in collectors:
            backend.register_collector(collector)
        backend.notify_sampled("1" * 32, origin_node="node-0")
        # Non-origin collectors learned the decision; the origin's own
        # collector tracks it via its local sampling path instead.
        assert "1" * 32 not in collectors[0].sampled_trace_ids
        for collector in collectors[1:]:
            assert "1" * 32 in collector.sampled_trace_ids


class TestStitching:
    def test_cross_node_approximate_trace_ordered(self):
        from repro.framework import MintFramework
        from repro.workloads import WorkloadDriver, build_onlineboutique

        mint = MintFramework(
            config=MintConfig(edge_case_base_rate=0.0), auto_warmup_traces=5
        )
        driver = WorkloadDriver(build_onlineboutique(), seed=3)
        traces = [t for _, t in driver.traces(40)]
        for i, trace in enumerate(traces):
            mint.process_trace(trace, float(i))
        mint.finalize(100.0)
        # Find an unsampled multi-node trace and check the approximate
        # reconstruction covers its services.
        for trace in traces[10:]:
            result = mint.query(trace.trace_id)
            if result.status != "partial":
                continue
            approx = result.approximate
            assert approx.span_count > 0
            assert trace.services & approx.services
            break
        else:  # pragma: no cover
            raise AssertionError("no partial trace found")
