"""Sharded collection plane: routing, merge layer, shard invariance.

The binding contract (ISSUE 2): ``ShardedBackend(num_shards=1)`` is
indistinguishable from :class:`~repro.backend.backend.MintBackend`,
and for any shard count the merged query results and byte tables are
identical to the single backend's over the same ingest stream.
"""

from __future__ import annotations

import pytest

from repro.agent.agent import MintAgent
from repro.agent.collector import MintCollector
from repro.agent.config import MintConfig
from repro.backend.backend import MintBackend
from repro.backend.sharded import ShardedBackend, shard_for_key
from repro.framework import MintFramework
from repro.model.encoding import encode_trace
from repro.sim.experiment import drive, generate_stream
from repro.transport import Deployment
from repro.workloads import build_onlineboutique
from tests.conftest import make_chain_trace, make_span

# node-0 and node-2 land on different shards at num_shards=2 (stable
# content hash; pinned by TestShardRouting.test_known_partition).
NODE_A, NODE_B = "node-0", "node-2"


def sharded_pair(num_shards: int = 2, config: MintConfig | None = None):
    """A ShardedBackend with one collector on each of two hosts."""
    backend = ShardedBackend(num_shards=num_shards)
    collectors = {}
    for node in (NODE_A, NODE_B):
        agent = MintAgent(node=node, config=config)
        collector = MintCollector(agent, backend.receive, config=config)
        backend.register_collector(collector)
        collectors[node] = collector
    return backend, collectors


def same_shape_subtraces(trace_id: str, abnormal: bool = False):
    """One identical-shape sub-trace per host (same service/op/attrs).

    Span pattern identity excludes the node, so both hosts learn the
    same content-id — the cross-shard dedup case.
    """
    from repro.model.trace import SubTrace

    attrs = {"msg": "downstream timeout detected"} if abnormal else {}
    subs = []
    for i, node in enumerate((NODE_A, NODE_B)):
        subs.append(
            SubTrace(
                trace_id=trace_id,
                node=node,
                spans=[
                    make_span(
                        trace_id=trace_id,
                        span_id=f"{i:016x}",
                        node=node,
                        attributes=dict(attrs),
                    )
                ],
            )
        )
    return subs


class TestShardRouting:
    def test_known_partition(self):
        assert shard_for_key(NODE_A, 2) != shard_for_key(NODE_B, 2)

    def test_stable_and_in_range(self):
        for num_shards in (1, 2, 4, 8, 13):
            for i in range(50):
                key = f"host-{i}"
                shard = shard_for_key(key, num_shards)
                assert 0 <= shard < num_shards
                assert shard == shard_for_key(key, num_shards)

    def test_single_shard_is_zero(self):
        assert shard_for_key("anything", 1) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            shard_for_key("x", 0)
        with pytest.raises(ValueError):
            ShardedBackend(num_shards=0)

    def test_collectors_grouped_by_owning_shard(self):
        backend, collectors = sharded_pair()
        shard_a = backend.shard_for(NODE_A)
        shard_b = backend.shard_for(NODE_B)
        assert collectors[NODE_A] in backend.collectors_on_shard(shard_a)
        assert collectors[NODE_A] not in backend.collectors_on_shard(shard_b)
        assert collectors[NODE_B] in backend.collectors_on_shard(shard_b)


class TestMergeLayer:
    def test_cross_shard_pattern_dedup(self):
        """The same content-id learned on two shards is charged once
        in the merged table; the physical copies are the merge
        overhead."""
        backend, collectors = sharded_pair()
        for sub in same_shape_subtraces("1" * 32):
            collectors[sub.node].process(sub, now=0.0)
        for collector in collectors.values():
            collector.flush(now=100.0)
        shard_sum = sum(shard.pattern_bytes for shard in backend.shards)
        merged = backend.merged.pattern_bytes
        assert merged > 0
        # Both shards hold a physical copy...
        assert all(shard.pattern_bytes > 0 for shard in backend.shards)
        # ...but the merged (logical) table deduplicates by content id.
        assert merged < shard_sum
        assert backend.merged.replicated_pattern_bytes() == shard_sum - merged

    def test_merged_byte_table_matches_single_backend(self):
        """Identical reports into a ShardedBackend and a MintBackend
        produce identical merged byte tables."""
        reports: list = []
        single = MintBackend()
        backend = ShardedBackend(num_shards=2)
        collectors = {}
        for node in (NODE_A, NODE_B):
            agent = MintAgent(node=node)
            collector = MintCollector(agent, reports.append)
            backend.register_collector(collector)
            collectors[node] = collector
        for sub in same_shape_subtraces("1" * 32, abnormal=True):
            collectors[sub.node].process(sub, now=0.0)
        for collector in collectors.values():
            collector.flush(now=100.0)
        for report in reports:
            single.receive(report)
            backend.receive(report)
        assert backend.merged.pattern_bytes == single.storage.pattern_bytes
        assert backend.merged.bloom_bytes == single.storage.bloom_bytes
        assert backend.merged.params_bytes == single.storage.params_bytes
        assert backend.storage_bytes() == single.storage_bytes()

    def test_numeric_ranges_merge_min_max(self):
        from repro.agent.reports import PatternLibraryReport
        from repro.parsing.span_parser import SpanPattern

        backend = ShardedBackend(num_shards=2)
        pattern = {
            "name": "op",
            "service": "svc",
            "kind": "server",
            "status": "ok",
            "attributes": [],
        }
        pattern_id = SpanPattern.from_dict(pattern).pattern_id
        backend.receive(
            PatternLibraryReport(
                node=NODE_A,
                span_patterns=[dict(pattern, numeric_ranges={"ms": (2.0, 10.0)})],
            )
        )
        backend.receive(
            PatternLibraryReport(
                node=NODE_B,
                span_patterns=[dict(pattern, numeric_ranges={"ms": (1.0, 7.0)})],
            )
        )
        assert backend.merged.numeric_ranges.get(pattern_id) == {"ms": (1.0, 10.0)}

    def test_bloom_prescreen_equals_brute_force(self):
        """The OR'd pre-screen index must change nothing: the match set
        equals a filter-by-filter scan of every shard."""
        config = MintConfig(edge_case_base_rate=0.0)
        backend, collectors = sharded_pair(config=config)
        trace_ids = [f"{i:032x}" for i in range(1, 30)]
        for trace_id in trace_ids:
            for sub in same_shape_subtraces(trace_id):
                collectors[sub.node].process(sub, now=0.0)
        for collector in collectors.values():
            collector.flush(now=100.0)
        assert backend.merged.blooms  # flushed filters exist on shards
        for probe in trace_ids + ["f" * 32, "0" * 32]:
            brute = [
                stored
                for shard in backend.shards
                for stored in shard.blooms
                if probe in stored.filter
            ]
            screened = backend.merged.patterns_matching_trace(probe)
            assert {id(b) for b in screened} == {id(b) for b in brute}

    def test_saturated_prescreen_stays_exact(self):
        """When a pattern's OR accumulator saturates it is dropped and
        the pattern becomes an unconditional candidate — match sets
        must still equal the brute-force scan."""
        config = MintConfig(bloom_buffer_bytes=16, edge_case_base_rate=0.0)
        backend = ShardedBackend(num_shards=2, bloom_buffer_bytes=16)
        collectors = {}
        for node in (NODE_A, NODE_B):
            agent = MintAgent(node=node, config=config)
            collector = MintCollector(agent, backend.receive, config=config)
            backend.register_collector(collector)
            collectors[node] = collector
        trace_ids = [f"{i:032x}" for i in range(1, 120)]
        for trace_id in trace_ids:
            for sub in same_shape_subtraces(trace_id):
                collectors[sub.node].process(sub, now=0.0)
        for collector in collectors.values():
            collector.flush(now=100.0)
        # Tiny 16-byte filters flush constantly; OR-ing them saturates
        # the accumulator past the cutoff and evicts it.
        assert backend.merged._prescreen_saturated
        for probe in trace_ids[-10:] + ["f" * 32]:
            brute = {
                id(stored)
                for shard in backend.shards
                for stored in shard.blooms
                if probe in stored.filter
            }
            screened = {
                id(b) for b in backend.merged.patterns_matching_trace(probe)
            }
            assert screened == brute

    def test_query_shard_sees_only_the_partition(self):
        """Per-shard diagnostic queries expose the partial view the
        merge layer reconciles: each shard can answer only from its own
        hosts' reports, while the fan-out query sees the whole trace."""
        backend, collectors = sharded_pair()
        for sub in same_shape_subtraces("1" * 32, abnormal=True):
            collectors[sub.node].process(sub, now=0.0)
        shard_a = backend.shard_for(NODE_A)
        shard_b = backend.shard_for(NODE_B)
        result_a = backend.querier.query_shard(shard_a, "1" * 32)
        result_b = backend.querier.query_shard(shard_b, "1" * 32)
        assert {span.node for span in result_a.trace.spans} == {NODE_A}
        assert {span.node for span in result_b.trace.spans} == {NODE_B}
        merged = backend.query("1" * 32)
        assert {span.node for span in merged.trace.spans} == {NODE_A, NODE_B}

    def test_merged_params_fan_out(self):
        """A multi-host trace's records concatenate across the shards
        owning its hosts; iteration unions trace ids without dupes."""
        backend, collectors = sharded_pair()
        for sub in same_shape_subtraces("1" * 32):
            collectors[sub.node].process(sub, now=0.0)
        backend.notify_sampled("1" * 32)
        records = backend.merged.params.get("1" * 32)
        assert records is not None and len(records) == 2
        assert {record[2] for record in records} == {NODE_A, NODE_B}
        assert "1" * 32 in backend.merged.params
        assert list(backend.merged.params) == ["1" * 32]
        assert backend.merged.has_params("1" * 32)
        assert backend.merged.params.get("9" * 32) is None

    def test_cross_shard_pattern_resolution_at_query_time(self):
        """Params stored on one shard reconstruct through a pattern that
        only the *other* shard has received (content ids make the merged
        library one namespace)."""
        reports: list = []
        backend = ShardedBackend(num_shards=2)
        collectors = {}
        for node in (NODE_A, NODE_B):
            agent = MintAgent(node=node)
            collector = MintCollector(agent, reports.append)
            backend.register_collector(collector)
            collectors[node] = collector
        # Silence B's periodic pattern report (fresh collectors report on
        # the first tick): pretend one was just sent, and keep ``now``
        # inside the report interval.
        collectors[NODE_B]._last_pattern_report = 0.0
        subs = same_shape_subtraces("1" * 32, abnormal=True)
        for sub in subs:
            collectors[sub.node].process(sub, now=0.0)
        collectors[NODE_A].flush(now=100.0)  # only A uploads patterns
        for report in reports:
            backend.receive(report)
        # B's params arrived (sampling), B's pattern report did not —
        # yet B's records resolve via A's identical content-id pattern.
        result = backend.query("1" * 32)
        assert result.status == "exact"
        assert {span.node for span in result.trace.spans} == {NODE_A, NODE_B}


class TestShardInvariance:
    """The acceptance contract, end to end over a real workload."""

    SHARD_COUNTS = (1, 2, 4, 8)
    NUM_TRACES = 150

    @pytest.fixture(scope="class")
    def stream(self):
        stream, _ = generate_stream(build_onlineboutique(), self.NUM_TRACES, seed=9)
        return stream

    @pytest.fixture(scope="class")
    def reference(self, stream):
        return self._drive(MintFramework(auto_warmup_traces=40), stream)

    @pytest.fixture(scope="class")
    def sharded(self, stream):
        return {
            count: self._drive(
                MintFramework(
                    deployment=Deployment.sharded(count), auto_warmup_traces=40
                ),
                stream,
            )
            for count in self.SHARD_COUNTS
        }

    @staticmethod
    def _drive(framework, stream):
        drive(framework, stream)
        return framework

    def test_single_shard_equals_single_backend(self, stream, reference, sharded):
        single = sharded[1]
        for _, trace in stream:
            a = reference.query(trace.trace_id)
            b = single.query(trace.trace_id)
            assert a.status == b.status, trace.trace_id

    def test_query_results_identical_at_every_shard_count(
        self, stream, reference, sharded
    ):
        for count, framework in sharded.items():
            for _, trace in stream:
                a = reference.query(trace.trace_id)
                b = framework.query(trace.trace_id)
                assert a.status == b.status, (count, trace.trace_id)
                if a.status == "exact":
                    assert encode_trace(a.trace) == encode_trace(b.trace), (
                        count,
                        trace.trace_id,
                    )
                elif a.status == "partial":
                    sig_a = [
                        (seg.topo_pattern_id, seg.nodes_reporting, seg.spans)
                        for seg in a.approximate.segments
                    ]
                    sig_b = [
                        (seg.topo_pattern_id, seg.nodes_reporting, seg.spans)
                        for seg in b.approximate.segments
                    ]
                    assert sig_a == sig_b, (count, trace.trace_id)

    def test_byte_tables_identical_at_every_shard_count(self, reference, sharded):
        ref = reference.backend.storage
        for count, framework in sharded.items():
            merged = framework.backend.storage
            assert merged.pattern_bytes == ref.pattern_bytes, count
            assert merged.bloom_bytes == ref.bloom_bytes, count
            assert merged.params_bytes == ref.params_bytes, count
            assert framework.storage_bytes == reference.storage_bytes, count
            assert framework.network_bytes == reference.network_bytes, count

    def test_stored_trace_ids_identical(self, reference, sharded):
        want = reference.stored_trace_ids()
        for count, framework in sharded.items():
            assert framework.stored_trace_ids() == want, count

    def test_per_shard_meters_sum_to_deployment_network(self, sharded):
        for count, framework in sharded.items():
            rows = framework.shard_meter_rows()
            assert len(rows) == count
            assert (
                sum(row.network_bytes for row in rows) == framework.network_bytes
            ), count

    def test_shard_storage_sums_to_merged_plus_replication(self, sharded):
        for count, framework in sharded.items():
            backend = framework.backend
            physical = sum(shard.storage_bytes() for shard in backend.shards)
            assert (
                physical
                == backend.storage_bytes()
                + backend.merged.replicated_pattern_bytes()
            ), count
        # One shard holds every pattern once: nothing is replicated.
        assert sharded[1].backend.merged.replicated_pattern_bytes() == 0

    def test_shard_summaries_cover_all_hosts(self, sharded):
        for count, framework in sharded.items():
            summaries = framework.shard_summaries()
            assert len(summaries) == count
            hosts = [host for summary in summaries for host in summary.hosts]
            assert sorted(hosts) == sorted(framework._collectors)


class TestCrossShardNotify:
    def test_notify_broadcasts_to_other_shards(self):
        backend, collectors = sharded_pair(
            config=MintConfig(edge_case_base_rate=0.0)
        )
        trace = make_chain_trace(depth=4, trace_id="a1" * 16, nodes=(NODE_A, NODE_B))
        for sub in trace.sub_traces():
            collectors[sub.node].process(sub, now=0.0)
        # A host on one shard samples; hosts on *other* shards upload.
        backend.notify_sampled(trace.trace_id, origin_node=NODE_A)
        collectors[NODE_A].mark_sampled(trace.trace_id)
        result = backend.query(trace.trace_id)
        assert result.status == "exact"
        assert len(result.trace.spans) == 4
        assert {span.node for span in result.trace.spans} == {NODE_A, NODE_B}

    def test_notify_meter_charges_every_non_origin_host_once(self):
        charges: list[tuple[str, int]] = []
        backend = ShardedBackend(
            num_shards=4, notify_meter=lambda node, b: charges.append((node, b))
        )
        nodes = [f"node-{i}" for i in range(6)]
        for node in nodes:
            collector = MintCollector(MintAgent(node=node), backend.receive)
            backend.register_collector(collector)
        backend.notify_sampled("1" * 32, origin_node="node-3")
        assert sorted(node for node, _ in charges) == sorted(
            node for node in nodes if node != "node-3"
        )
        assert all(nbytes == 64 for _, nbytes in charges)

    def test_notify_dedup_is_fleet_wide(self):
        charges: list[tuple[str, int]] = []
        backend = ShardedBackend(
            num_shards=2, notify_meter=lambda node, b: charges.append((node, b))
        )
        for node in (NODE_A, NODE_B):
            backend.register_collector(
                MintCollector(MintAgent(node=node), backend.receive)
            )
        backend.notify_sampled("1" * 32, origin_node=NODE_A)
        first = list(charges)
        # Re-notifying from any origin (even another shard's host) is a
        # no-op: one notification per trace id across the whole fleet.
        backend.notify_sampled("1" * 32, origin_node=NODE_B)
        backend.notify_sampled("1" * 32)
        assert charges == first
        assert "1" * 32 in backend.merged.sampled_trace_ids

    def test_retroactive_pull_spans_shards(self):
        config = MintConfig(edge_case_base_rate=0.0)
        backend, collectors = sharded_pair(config=config)
        trace_ids = [f"{i:032x}" for i in range(1, 8)]
        for trace_id in trace_ids:
            for sub in same_shape_subtraces(trace_id):
                collectors[sub.node].process(sub, now=float(len(trace_ids)))
        for collector in collectors.values():
            collector.flush(now=100.0)
        probe = trace_ids[-1]
        assert backend.query(probe).status == "partial"
        # pull_params asks every host fleet-wide; buffers were flushed,
        # params arrive, and the answer upgrades to exact.
        upgraded = backend.query(probe, pull_params=True)
        assert upgraded.status == "exact"
        assert {span.node for span in upgraded.trace.spans} == {NODE_A, NODE_B}
