"""Unit tests for the experiment and load-test harnesses."""

import pytest

from repro.baselines import OTFull, OTHead
from repro.framework import MintFramework
from repro.sim.experiment import (
    FrameworkRun,
    rca_views_for_framework,
    run_experiment,
)
from repro.sim.loadtest import (
    FIG14_LOAD_TESTS,
    LoadTestSpec,
    measure_query_latency,
    restrict_apis,
    run_load_test,
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
