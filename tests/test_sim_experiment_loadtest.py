"""Unit tests for the experiment and load-test harnesses."""

import pytest

from repro.baselines import OTFull, OTHead
from repro.framework import MintFramework
from repro.net import CHAOS_PROFILES
from repro.sim.experiment import (
    FrameworkRun,
    rca_views_for_framework,
    run_experiment,
    run_net_experiment,
    run_sharded_experiment,
)
from repro.sim.loadtest import (
    CHAOS_SCENARIOS,
    FIG14_LOAD_TESTS,
    LoadTestSpec,
    measure_query_latency,
    restrict_apis,
    run_load_test,
    run_net_load_test,
    run_sharded_load_test,
    tracing_memory_bytes,
)
from repro.workloads import build_onlineboutique


class TestRunExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(
            build_onlineboutique(),
            factories={"OT-Full": OTFull, "OT-Head": lambda: OTHead(0.05)},
            num_traces=150,
            seed=3,
        )

    def test_all_frameworks_ran(self, result):
        assert set(result.runs) == {"OT-Full", "OT-Head"}
        assert result.trace_count == 150

    def test_raw_bytes_positive(self, result):
        assert result.raw_bytes > 0

    def test_hits_cover_all_queries(self, result):
        for run in result.runs.values():
            assert sum(run.hits.values()) == result.trace_count

    def test_records_match_stream(self, result):
        assert len(result.records) == result.trace_count
        abnormal = [r for r in result.records if r.is_abnormal]
        assert set(result.fault_targets) == {r.trace_id for r in abnormal}

    def test_process_seconds_measured(self, result):
        for run in result.runs.values():
            assert run.process_seconds > 0


class TestRcaViews:
    def test_baseline_views_limited_to_stored(self):
        result = run_experiment(
            build_onlineboutique(),
            factories={"OT-Head": lambda: OTHead(0.10)},
            num_traces=120,
            seed=5,
            query_all=False,
        )
        run = result.runs["OT-Head"]
        views = rca_views_for_framework(run, result.traces)
        assert len(views) == len(run.framework.stored_trace_ids())

    def test_mint_views_cover_everything(self):
        result = run_experiment(
            build_onlineboutique(),
            factories={"Mint": lambda: MintFramework(auto_warmup_traces=20)},
            num_traces=120,
            seed=6,
            query_all=False,
        )
        views = rca_views_for_framework(result.runs["Mint"], result.traces)
        assert len(views) == result.trace_count
        sources = {v.source for v in views}
        assert sources == {"exact", "approximate"}

    def test_missing_framework_gives_empty(self):
        run = FrameworkRun("x", 0, 0, 0.0, framework=None)
        assert rca_views_for_framework(run, []) == []


class TestShardedExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_sharded_experiment(
            build_onlineboutique(),
            shard_counts=(1, 2),
            num_traces=100,
            seed=4,
            auto_warmup_traces=25,
        )

    def test_invariant_holds(self, result):
        assert result.invariant, result.violations
        assert result.violations == []

    def test_all_shard_counts_ran(self, result):
        assert set(result.runs) == {1, 2}
        assert result.trace_count == 100
        for run in result.runs.values():
            assert run.hits == result.reference.hits
            assert run.network_bytes == result.reference.network_bytes
            assert run.storage_bytes == result.reference.storage_bytes

    def test_per_shard_meters_reported(self, result):
        for count, rows in result.shard_meters.items():
            assert len(rows) == count
            assert sum(r.network_bytes for r in rows) == result.runs[count].network_bytes
            hosts = [host for row in rows for host in row.hosts]
            assert len(hosts) == len(set(hosts))
        assert set(result.replicated_pattern_bytes) == {1, 2}
        assert result.replicated_pattern_bytes[1] == 0


class TestShardedLoadTest:
    def test_sharded_load_test_splits_by_shard(self):
        spec = LoadTestSpec("T", qps=200, api_count=2)
        result = run_sharded_load_test(
            spec, build_onlineboutique(), num_shards=4
        )
        assert result.overall.replica == "Mint x4"
        assert result.num_shards == 4
        assert len(result.shard_egress_bytes) == 4
        assert sum(result.shard_egress_bytes) == result.overall.egress_bytes
        # Shards persist real bytes; replication never exceeds what the
        # shards physically hold.
        assert sum(result.shard_storage_bytes) > 0
        assert 0 <= result.replicated_pattern_bytes < sum(result.shard_storage_bytes)

    def test_single_shard_load_test_matches_reference_shape(self):
        spec = LoadTestSpec("T", qps=200, api_count=1)
        result = run_sharded_load_test(
            spec, build_onlineboutique(), num_shards=1
        )
        assert result.shard_egress_bytes == [result.overall.egress_bytes]
        assert result.replicated_pattern_bytes == 0


class TestNetExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_net_experiment(
            build_onlineboutique(),
            profiles={"drop": CHAOS_PROFILES["drop"]},
            num_traces=120,
            seed=3,
            auto_warmup_traces=40,
        )

    def test_lossless_net_is_bit_identical(self, result):
        assert result.lossless.converged, result.lossless.violations
        assert result.lossless.retransmit_bytes == 0

    def test_chaos_converges_with_retransmit_overhead_only(self, result):
        run = result.chaos["drop"]
        assert run.converged, run.violations
        assert run.run.network_bytes == result.reference.network_bytes
        assert run.run.storage_bytes == result.reference.storage_bytes
        assert run.retransmit_bytes > 0
        assert run.delivery["totals"]["dropped"] > 0
        assert result.converged and not result.violations


class TestNetLoadTest:
    def test_chaos_scenarios_pair_load_shapes_with_profiles(self):
        assert {profile for _, _, profile in CHAOS_SCENARIOS} == set(CHAOS_PROFILES)

    def test_net_load_test_reports_delivery_metrics(self):
        spec = LoadTestSpec("T", qps=400, api_count=2)
        result = run_net_load_test(
            spec,
            build_onlineboutique(),
            profile=CHAOS_PROFILES["drop"],
            scale=0.05,
        )
        assert result.profile == "drop"
        assert result.overall.replica.startswith("Mint net[")
        assert result.overall.egress_bytes > 0
        totals = result.delivery["totals"]
        assert totals["delivered_reports"] == totals["sent_reports"]

    def test_lossless_net_load_test_matches_local_egress(self):
        spec = LoadTestSpec("T", qps=200, api_count=1)
        local = run_load_test(
            spec,
            build_onlineboutique(),
            lambda: MintFramework(auto_warmup_traces=30),
            "Mint",
        )
        net = run_net_load_test(spec, build_onlineboutique(), profile=None)
        assert net.retransmit_bytes == 0
        assert net.overall.egress_bytes == local.egress_bytes


class TestLoadTests:
    def test_fig14_spec_table(self):
        assert len(FIG14_LOAD_TESTS) == 14
        assert FIG14_LOAD_TESTS[0].qps == 200
        assert FIG14_LOAD_TESTS[8].api_count == 8

    def test_restrict_apis(self):
        workload = build_onlineboutique()
        limited = restrict_apis(workload, 2)
        assert len(limited.apis) == 2
        # Out-of-range counts clamp instead of failing.
        assert len(restrict_apis(workload, 99).apis) == len(workload.apis)
        assert len(restrict_apis(workload, 0).apis) == 1

    def test_no_tracing_replica_is_free(self):
        spec = LoadTestSpec("T", qps=200, api_count=2)
        result = run_load_test(spec, build_onlineboutique(), None, "No-Tracing")
        assert result.egress_bytes == 0
        assert result.cpu_seconds == 0.0
        assert result.ingress_bytes > 0

    def test_traced_replica_measured(self):
        spec = LoadTestSpec("T", qps=200, api_count=2)
        result = run_load_test(
            spec,
            build_onlineboutique(),
            lambda: MintFramework(auto_warmup_traces=10),
            "Mint",
        )
        assert result.egress_bytes > 0
        assert result.cpu_seconds > 0
        assert result.memory_bytes > 0
        assert result.request_latency_overhead_ms > 0

    def test_memory_accounting_only_for_mint(self):
        assert tracing_memory_bytes(OTFull()) == 0

    def test_query_latency_stats(self):
        framework = OTFull()
        from tests.conftest import make_chain_trace

        trace = make_chain_trace(depth=2)
        framework.process_trace(trace, 0.0)
        stats = measure_query_latency(framework, [trace.trace_id] * 10)
        assert stats["mean_ms"] >= 0
        assert stats["p95_ms"] >= stats["mean_ms"] * 0.5
        assert measure_query_latency(framework, []) == {
            "mean_ms": 0.0,
            "p95_ms": 0.0,
        }
