"""Unit tests for the RCA methods and their views."""

import pytest

from repro.rca import MicroRank, TraceAnomaly, TraceRCA, view_from_approximate, views_from_traces
from repro.rca.spectrum import SpectrumCounts, anomalous_spans, duration_baselines, ochiai
from repro.rca.views import SpanView, TraceView, view_from_trace
from repro.workloads import (
    FaultInjector,
    FaultSpec,
    FaultType,
    WorkloadDriver,
    build_onlineboutique,
)


@pytest.fixture(scope="module")
def faulted_corpus():
    """OnlineBoutique traces with CPU exhaustion on paymentservice."""
    workload = build_onlineboutique()
    driver = WorkloadDriver(workload, seed=9)
    injector = FaultInjector(seed=10)
    target = "paymentservice"
    traces = []
    for i, (_, trace) in enumerate(driver.traces(500)):
        if i % 12 == 5 and target in trace.services:
            trace = injector.inject(
                trace, FaultSpec(FaultType.CPU_EXHAUSTION, target)
            )
        traces.append(trace)
    return target, views_from_traces(traces)


class TestViews:
    def test_self_time_subtracts_children(self):
        from tests.conftest import make_chain_trace

        trace = make_chain_trace(depth=3)
        view = view_from_trace(trace)
        spans = {s.operation: s for s in view.spans}
        # Chain durations: 30 (root), 20, 10 — self times all 10.
        assert spans["op-0"].self_duration == pytest.approx(10.0)
        assert spans["op-2"].self_duration == pytest.approx(10.0)

    def test_abnormal_flag_from_tag_or_error(self):
        from tests.conftest import make_span
        from repro.model.span import SpanStatus
        from repro.model.trace import Trace

        tagged = Trace(
            trace_id="1" * 32,
            spans=[make_span(trace_id="1" * 32, attributes={"is_abnormal": "true"})],
        )
        erroring = Trace(
            trace_id="2" * 32,
            spans=[make_span(trace_id="2" * 32, status=SpanStatus.ERROR)],
        )
        assert view_from_trace(tagged).is_abnormal
        assert view_from_trace(erroring).is_abnormal


class TestSpectrum:
    def test_ochiai_extremes(self):
        assert ochiai(SpectrumCounts(ef=10, ep=0, nf=0, np=10)) == 1.0
        assert ochiai(SpectrumCounts(ef=0, ep=10, nf=10, np=0)) == 0.0

    def test_baselines_exclude_abnormal(self):
        normal = TraceView(
            trace_id="n",
            spans=[SpanView("svc", "op", 10.0, 10.0, False)],
            is_abnormal=False,
        )
        poisoned = TraceView(
            trace_id="a",
            spans=[SpanView("svc", "op", 9999.0, 9999.0, False)],
            is_abnormal=True,
        )
        baselines = duration_baselines([normal, poisoned])
        mean, _ = baselines[("exact", "svc", "op")]
        assert mean == pytest.approx(10.0)

    def test_anomalous_spans_flags_errors_and_outliers(self):
        baselines = {("exact", "svc", "op"): (10.0, 1.0)}
        errored = TraceView(
            trace_id="e",
            spans=[SpanView("svc", "op", 10.0, 10.0, True)],
        )
        slow = TraceView(
            trace_id="s",
            spans=[SpanView("svc", "op", 100.0, 100.0, False)],
        )
        fine = TraceView(
            trace_id="f",
            spans=[SpanView("svc", "op", 10.5, 10.5, False)],
        )
        assert anomalous_spans(errored, baselines)
        assert anomalous_spans(slow, baselines)
        assert not anomalous_spans(fine, baselines)

    def test_client_spans_skipped(self):
        baselines = {("exact", "svc", "op"): (1.0, 0.1)}
        client_only = TraceView(
            trace_id="c",
            spans=[SpanView("svc", "op", 999.0, 999.0, False, kind="client")],
        )
        assert not anomalous_spans(client_only, baselines)


class TestMethods:
    @pytest.mark.parametrize("method_cls", [MicroRank, TraceRCA, TraceAnomaly])
    def test_localises_injected_fault(self, faulted_corpus, method_cls):
        target, views = faulted_corpus
        top1 = method_cls().top1(views)
        assert top1 == target

    @pytest.mark.parametrize("method_cls", [MicroRank, TraceRCA, TraceAnomaly])
    def test_empty_input(self, method_cls):
        assert method_cls().rank([]) == []
        assert method_cls().top1([]) is None

    def test_degrades_without_normal_traces(self, faulted_corpus):
        """The paper's Table 3 argument: keeping only abnormal traces
        starves the contrast population and hurts accuracy."""
        target, views = faulted_corpus
        only_abnormal = [v for v in views if v.is_abnormal]
        full_hits = sum(
            1
            for cls in (MicroRank, TraceRCA, TraceAnomaly)
            if cls().top1(views) == target
        )
        starved_hits = sum(
            1
            for cls in (MicroRank, TraceRCA, TraceAnomaly)
            if cls().top1(only_abnormal) == target
        )
        assert full_hits >= starved_hits

    def test_rankings_sorted_descending(self, faulted_corpus):
        _, views = faulted_corpus
        for cls in (MicroRank, TraceRCA, TraceAnomaly):
            ranked = cls().rank(views)
            scores = [score for _, score in ranked]
            assert scores == sorted(scores, reverse=True)


class TestApproximateViews:
    def test_views_from_mint_approximate_traces(self):
        from repro.agent.config import MintConfig
        from repro.framework import MintFramework

        workload = build_onlineboutique()
        driver = WorkloadDriver(workload, seed=4)
        mint = MintFramework(
            config=MintConfig(edge_case_base_rate=0.0), auto_warmup_traces=5
        )
        traces = [t for _, t in driver.traces(40)]
        for i, trace in enumerate(traces):
            mint.process_trace(trace, float(i))
        mint.finalize(100.0)
        approx_views = []
        for trace in traces:
            result = mint.query(trace.trace_id)
            if result.status == "partial":
                approx_views.append(view_from_approximate(result.approximate))
        assert approx_views, "expected some unsampled traces"
        view = approx_views[0]
        assert view.spans
        assert all(s.duration >= 0 for s in view.spans)
