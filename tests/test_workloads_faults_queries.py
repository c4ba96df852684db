"""Unit tests for fault injection and the query workload model."""

import pytest

from repro.model.span import SpanStatus
from repro.workloads import (
    FaultInjector,
    FaultSpec,
    FaultType,
    QueryWorkload,
    TraceRecord,
    WorkloadDriver,
    build_onlineboutique,
)


@pytest.fixture(scope="module")
def checkout_trace():
    wl = build_onlineboutique()
    driver = WorkloadDriver(wl, seed=30)
    for _, trace in driver.traces(50):
        if "paymentservice" in trace.services:
            return trace
    raise AssertionError("no checkout trace generated")


class TestFaultInjector:
    def test_untouched_service_returns_original(self, checkout_trace):
        injector = FaultInjector(seed=1)
        out = injector.inject(
            checkout_trace, FaultSpec(FaultType.NETWORK_DELAY, "no-such-svc")
        )
        assert out is checkout_trace

    def test_cpu_exhaustion_inflates_target_and_ancestors(self, checkout_trace):
        injector = FaultInjector(seed=2)
        out = injector.inject(
            checkout_trace, FaultSpec(FaultType.CPU_EXHAUSTION, "paymentservice")
        )
        before = {s.span_id: s.duration for s in checkout_trace.spans}
        target = [s for s in out.spans if s.service == "paymentservice"]
        assert all(s.duration > before[s.span_id] for s in target)
        root = out.root
        assert root.duration > before[root.span_id]

    def test_error_return_sets_status_and_code(self, checkout_trace):
        injector = FaultInjector(seed=3)
        out = injector.inject(
            checkout_trace, FaultSpec(FaultType.ERROR_RETURN, "paymentservice")
        )
        target = [s for s in out.spans if s.service == "paymentservice"]
        assert all(s.status is SpanStatus.ERROR for s in target)
        assert all(
            s.attributes.get("http.status_code") in (500, 502, 503) for s in target
        )

    def test_code_exception_attaches_message(self, checkout_trace):
        injector = FaultInjector(seed=4)
        out = injector.inject(
            checkout_trace, FaultSpec(FaultType.CODE_EXCEPTION, "paymentservice")
        )
        target = [s for s in out.spans if s.service == "paymentservice"]
        assert all("exception.message" in s.attributes for s in target)

    def test_abnormal_tag_on_root(self, checkout_trace):
        injector = FaultInjector(seed=5)
        out = injector.inject(
            checkout_trace, FaultSpec(FaultType.MEMORY_EXHAUSTION, "paymentservice")
        )
        assert out.root.attributes.get("is_abnormal") == "true"

    def test_tagging_can_be_disabled(self, checkout_trace):
        injector = FaultInjector(seed=6, tag_abnormal=False)
        out = injector.inject(
            checkout_trace, FaultSpec(FaultType.NETWORK_DELAY, "paymentservice")
        )
        assert "is_abnormal" not in out.root.attributes

    def test_original_not_mutated(self, checkout_trace):
        durations = [s.duration for s in checkout_trace.spans]
        FaultInjector(seed=7).inject(
            checkout_trace, FaultSpec(FaultType.CPU_EXHAUSTION, "paymentservice")
        )
        assert [s.duration for s in checkout_trace.spans] == durations


class TestQueryWorkload:
    def _records(self, n: int = 200, abnormal_every: int = 10):
        return [
            TraceRecord(
                trace_id=f"{i:032x}",
                timestamp=float(i),
                is_abnormal=i % abnormal_every == 0,
            )
            for i in range(n)
        ]

    def test_bias_validation(self):
        with pytest.raises(ValueError):
            QueryWorkload(abnormal_bias=1.5)

    def test_sample_count(self):
        qw = QueryWorkload(seed=1)
        queries = qw.sample_queries(self._records(), 50)
        assert len(queries) == 50

    def test_queries_include_normal_traces(self):
        """The core phenomenon: analysts also query unremarkable traces."""
        records = self._records()
        abnormal_ids = {r.trace_id for r in records if r.is_abnormal}
        qw = QueryWorkload(abnormal_bias=0.45, seed=2)
        queries = qw.sample_queries(records, 300)
        normal_queries = [q for q in queries if q not in abnormal_ids]
        assert len(normal_queries) > 100

    def test_abnormal_bias_visible(self):
        records = self._records()
        abnormal_ids = {r.trace_id for r in records if r.is_abnormal}
        qw = QueryWorkload(abnormal_bias=0.9, seed=3)
        queries = qw.sample_queries(records, 300)
        abnormal_fraction = sum(q in abnormal_ids for q in queries) / 300
        # 10% of traces are abnormal but ~90% of queries target them.
        assert abnormal_fraction > 0.6

    def test_empty_population(self):
        qw = QueryWorkload(seed=5)
        assert qw.sample_queries([], 10) == []
