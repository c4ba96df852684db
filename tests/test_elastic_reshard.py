"""Live resharding: elastic descriptors, host eviction, bit-identity.

The binding contract: a live ``from_n -> to_n`` migration — cutover
first, snapshot second, state streamed on the separate ``migration``
meter — ends bit-identical to a fresh deployment born at the
destination shard count, and the fresh deployment never touches the
migration meter.
"""

from __future__ import annotations

import pytest

from repro.agent.reports import BloomReport, ParamsReport
from repro.backend.backend import MintBackend
from repro.backend.sharded import shard_for_key
from repro.backend.storage import StorageEngine
from repro.cold import ColdPolicy
from repro.elastic import ReshardCoordinator, placement_violations
from repro.elastic.chaos import SHARD_CHAOS_PROFILES
from repro.framework import MintFramework
from repro.sim.elastic import run_reshard_experiment
from repro.sim.experiment import drive, generate_stream
from repro.sim.meters import OverheadLedger
from repro.transport import Deployment, LocalTransport
from repro.verify import compare_fingerprints, fingerprint
from repro.workloads import build_onlineboutique


class TestElasticDeploymentValidation:
    def test_sharded_rejects_non_positive_counts(self):
        with pytest.raises(ValueError, match="at least one shard"):
            Deployment.sharded(0)
        with pytest.raises(ValueError, match="at least one shard"):
            Deployment.sharded(-2)

    def test_resharded_rejects_bad_source(self):
        with pytest.raises(ValueError, match="at least one shard"):
            Deployment.sharded(-1, reshard_to=4)
        with pytest.raises(ValueError, match="need a sharded deployment"):
            Deployment(num_shards=0, reshard_to=4)

    def test_resharded_rejects_bad_destination(self):
        with pytest.raises(ValueError, match="at least one destination shard"):
            Deployment.sharded(2, reshard_to=0)
        with pytest.raises(ValueError, match="at least one destination shard"):
            Deployment.sharded(2, reshard_to=-3)

    def test_resharded_rejects_the_no_op_transition(self):
        with pytest.raises(ValueError, match="must change the shard count"):
            Deployment.sharded(2, reshard_to=2)

    def test_chaos_and_reshard_targets_need_a_sharded_deployment(self):
        with pytest.raises(ValueError, match="need a sharded deployment"):
            Deployment(shard_chaos=SHARD_CHAOS_PROFILES["crash"])
        with pytest.raises(ValueError, match="need a sharded deployment"):
            Deployment(reshard_to=4)
        for extra in ({"reshard_to": 4}, {"shard_chaos": SHARD_CHAOS_PROFILES["crash"]}):
            with pytest.raises(ValueError, match="parallel ingest"):
                Deployment.sharded(2, workers=2, **extra)

    def test_describe_names_the_transition_and_chaos(self):
        assert "2->4-shard" in Deployment.sharded(2, reshard_to=4).describe()
        described = Deployment.sharded(
            2, shard_chaos=SHARD_CHAOS_PROFILES["crash_restart"]
        ).describe()
        assert "shardchaos=crash_restart" in described

    def test_ledger_count_covers_the_destination(self):
        assert Deployment.sharded(2, reshard_to=4).ledger_count == 4
        assert Deployment.sharded(4, reshard_to=2).ledger_count == 4
        assert Deployment.sharded(3).ledger_count == 3


class TestEvictHost:
    def _engine_with_two_hosts(self) -> StorageEngine:
        engine = StorageEngine()
        for host in ("node-a", "node-b"):
            engine.store_bloom_report(
                BloomReport(
                    node=host,
                    topo_pattern_id="t" * 16,
                    payload=b"\x01" * 4096,
                    inserted=3,
                )
            )
            engine.store_params_report(
                ParamsReport(
                    node=host,
                    trace_id="a" * 32,
                    records=[[0, 0, host, "GET", 12]],
                )
            )
        return engine

    def test_eviction_conserves_bytes_across_engines(self):
        source = self._engine_with_two_hosts()
        target = StorageEngine()
        before = source.storage_bytes() + target.storage_bytes()
        blooms, params = source.evict_host("node-a")
        for stored in blooms:
            target.store_bloom_report(
                BloomReport(
                    node="node-a",
                    topo_pattern_id=stored.topo_pattern_id,
                    payload=stored.filter.to_bytes(),
                    inserted=stored.filter.inserted,
                )
            )
        for trace_id, records in params.items():
            target.store_params_report(
                ParamsReport(node="node-a", trace_id=trace_id, records=records)
            )
        assert source.storage_bytes() + target.storage_bytes() == before
        assert all(b.node != "node-a" for b in source.blooms)
        assert any(b.node == "node-a" for b in target.blooms)

    def test_multi_host_buckets_keep_the_other_hosts_records(self):
        source = self._engine_with_two_hosts()
        source.evict_host("node-a")
        # node-b shares the trace bucket; its record and the sampled id
        # must survive node-a's departure.
        assert "a" * 32 in source.params
        assert "a" * 32 in source.sampled_trace_ids
        assert all(record[2] == "node-b" for record in source.params["a" * 32])

    def test_emptied_bucket_releases_the_sampled_id(self):
        engine = StorageEngine()
        engine.store_params_report(
            ParamsReport(
                node="node-a", trace_id="b" * 32, records=[[0, 0, "node-a", "GET", 1]]
            )
        )
        engine.evict_host("node-a")
        assert "b" * 32 not in engine.params
        assert "b" * 32 not in engine.sampled_trace_ids
        assert engine.params_bytes == 0

    def test_evicting_an_unknown_host_is_a_no_op(self):
        engine = self._engine_with_two_hosts()
        before = engine.storage_bytes()
        blooms, params = engine.evict_host("node-z")
        assert (blooms, params) == ([], {})
        assert engine.storage_bytes() == before


class TestReshardCoordinator:
    def _elastic(self, from_shards=2, to_shards=4):
        framework = MintFramework(
            deployment=Deployment.sharded(from_shards, reshard_to=to_shards),
            auto_warmup_traces=5,
        )
        return framework

    def test_requires_an_elastic_backend(self):
        backend = MintBackend()
        transport = LocalTransport(backend, ledger=OverheadLedger())
        with pytest.raises(TypeError, match="sharded deployment"):
            ReshardCoordinator(backend, transport, 4)

    def test_rejects_non_positive_destinations(self):
        framework = self._elastic()
        with pytest.raises(ValueError, match="destination shard"):
            ReshardCoordinator(framework.backend, framework.transport, 0)

    def test_plan_is_the_minimal_movement_set(self):
        framework = self._elastic(2, 4)
        workload = build_onlineboutique()
        stream, _ = generate_stream(workload, 30, 0.02, 6000.0, seed=3)
        for now, trace in stream:
            framework.process_trace(trace, now)
        coordinator = ReshardCoordinator(framework.backend, framework.transport, 4)
        plan = coordinator.plan()
        hosts = [c.node for c in framework.backend._collectors]
        expected = {
            host
            for host in hosts
            if shard_for_key(host, 2) != shard_for_key(host, 4)
        }
        assert {move.host for move in plan} == expected
        for move in plan:
            assert move.source == shard_for_key(move.host, 2)
            assert move.target == shard_for_key(move.host, 4)
            assert move.source != move.target

    def test_framework_reshard_defaults_to_the_declared_target(self):
        framework = self._elastic(2, 4)
        workload = build_onlineboutique()
        stream, _ = generate_stream(workload, 30, 0.02, 6000.0, seed=3)
        for now, trace in stream:
            framework.process_trace(trace, now)
        stats = framework.reshard()
        assert framework.backend.num_shards == 4
        assert stats.hosts_moved > 0
        assert framework.migration_bytes > 0
        assert placement_violations(framework.backend) == []

    def test_migration_streams_flushed_blooms_bit_for_bit(self):
        # Short streams rarely flush a Bloom buffer before the reshard
        # triggers, so plant a flushed filter on a moving host and make
        # sure the snapshot carries it: same bits, same insertion count
        # (a reset count would un-fill the filter on the destination).
        framework = self._elastic(2, 4)
        stream, _ = generate_stream(build_onlineboutique(), 40, 0.02, 6000.0, seed=3)
        for now, trace in stream:
            framework.process_trace(trace, now)
        coordinator = ReshardCoordinator(framework.backend, framework.transport, 4)
        move = coordinator.plan()[0]
        framework.backend.receive(
            BloomReport(
                node=move.host,
                topo_pattern_id="t" * 16,
                payload=b"\x01" * 4096,
                inserted=7,
            )
        )
        coordinator.run()
        target = framework.backend.shards[move.target]
        landed = [
            b
            for b in target.blooms
            if b.node == move.host and b.topo_pattern_id == "t" * 16
        ]
        assert len(landed) == 1
        assert landed[0].filter.to_bytes() == b"\x01" * 4096
        assert landed[0].filter.inserted == 7
        source = framework.backend.shards[move.source]
        assert not any(b.node == move.host for b in source.blooms)
        assert coordinator.stats.bloom_reports >= 1
        assert placement_violations(framework.backend) == []

    @staticmethod
    def _sealed_sharded_2():
        framework = MintFramework(deployment=Deployment.sharded(2))
        stream, _ = generate_stream(build_onlineboutique(), 300, 0.1, seed=9)
        framework.warm_up([trace for _, trace in stream[:60]])
        drive(framework, stream[60:])
        return framework

    @staticmethod
    def _full_scan_audit(backend) -> list[str]:
        """The audit's params half as a plain scan over every bucket."""
        owners = {c.node: backend.shard_for(c.node) for c in backend._collectors}
        return [
            f"params of {trace_id} from {record[2]} on shard {index}, "
            f"owner is {owners[record[2]]}"
            for index, engine in enumerate(backend.shards)
            for trace_id, bucket in engine.params.items()
            for record in bucket
            if owners.get(record[2], index) != index
        ]

    def test_placement_audit_decodes_no_sealed_bloom_block(self):
        # Sealed refs keep their node hot so placement scans never
        # decode: an audit over sealed filters must leave every
        # engine's decode counter where it was.
        framework = self._sealed_sharded_2()
        framework.compact(ColdPolicy(keep_hot_traces=300, keep_hot_blooms=0))
        assert framework.cold_stats()["sealed_bloom_filters"] > 0
        assert placement_violations(framework.backend) == []
        assert [engine.cold.blocks_decoded for engine in framework.backend.shards] == [0, 0]
        framework.close()

    def test_placement_audit_decodes_no_sealed_params_block(self):
        framework = self._sealed_sharded_2()
        framework.compact(ColdPolicy(keep_hot_traces=20, keep_hot_blooms=0))
        assert framework.cold_stats()["sealed_params_traces"] > 0
        assert placement_violations(framework.backend) == []
        assert [engine.cold.blocks_decoded for engine in framework.backend.shards] == [0, 0]
        framework.close()

    def test_placement_audit_reports_a_misplaced_record_in_a_sealed_block(self):
        framework = self._sealed_sharded_2()
        backend = framework.backend
        home, other = backend.shards
        trace_id = next(iter(home.params))
        foreign, record = next(
            (record[2], record) for bucket in other.params.values() for record in bucket
        )
        assert backend.shard_for(foreign) == 1
        home.store_params_report(
            ParamsReport(node=foreign, trace_id=trace_id, records=[list(record)])
        )
        framework.compact(ColdPolicy(keep_hot_traces=20, keep_hot_blooms=0))
        assert home.params.is_sealed(trace_id)
        violations = placement_violations(backend)
        assert violations == [
            f"params of {trace_id} from {foreign} on shard 0, owner is 1"
        ]
        assert violations == self._full_scan_audit(backend)
        framework.close()

    def test_reshard_without_a_target_is_an_error(self):
        framework = MintFramework(deployment=Deployment.sharded(2), auto_warmup_traces=5)
        with pytest.raises(ValueError, match="target"):
            framework.reshard()
        parallel = MintFramework(deployment=Deployment.sharded(2, workers=2))
        try:
            with pytest.raises(ValueError, match="parallel ingest"):
                parallel.reshard(4)
        finally:
            parallel.close()


class TestReshardBitIdentity:
    def test_grow_is_bit_identical_to_the_fresh_deployment(self):
        result = run_reshard_experiment(
            build_onlineboutique(),
            from_shards=2,
            to_shards=4,
            num_traces=120,
            auto_warmup_traces=40,
        )
        assert result.identical, result.violations
        assert result.migration["hosts_moved"] > 0
        assert result.migration_bytes > 0

    def test_plain_sharded_reshards_mid_stream_like_the_fresh_deployment(self):
        stream, _ = generate_stream(build_onlineboutique(), 120, seed=17)
        fresh = MintFramework(deployment=Deployment.sharded(4), auto_warmup_traces=40)
        drive(fresh, stream)
        live = MintFramework(deployment=Deployment.sharded(2), auto_warmup_traces=40)
        for index, (now, trace) in enumerate(stream):
            if index == len(stream) // 2:
                assert live.reshard(4).hosts_moved > 0
            live.process_trace(trace, now)
        live.finalize(stream[-1][0])
        keys = ("byte_tables", "query_signature", "stored_trace_ids")
        assert compare_fingerprints(
            fingerprint(fresh, stream), fingerprint(live, stream), keys=keys
        ) == []
        assert placement_violations(live.backend) == []

    def test_shrink_is_bit_identical_to_the_fresh_deployment(self):
        result = run_reshard_experiment(
            build_onlineboutique(),
            from_shards=4,
            to_shards=2,
            num_traces=120,
            auto_warmup_traces=40,
        )
        assert result.identical, result.violations
